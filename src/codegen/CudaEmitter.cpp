//===- codegen/CudaEmitter.cpp - CUDA source emission -----------------------===//

#include "codegen/CudaEmitter.h"

#include "codegen/CEmitter.h"
#include "support/Error.h"
#include "support/Format.h"

using namespace moma;
using namespace moma::ir;
using namespace moma::codegen;
using rewrite::LoweredKernel;
using rewrite::LoweredPort;

namespace {

std::string cudaHeader(const CudaEmitOptions &Opts, const std::string &What) {
  std::string Src;
  if (!Opts.Banner.empty())
    Src += "// " + Opts.Banner + "\n";
  Src += "// " + What +
         " generated by MoMA (CGO'25 reproduction).\n"
         "// Word order within each element: most significant first.\n"
         "#include <stdint.h>\n"
         "typedef uint64_t u64;\n\n";
  return Src;
}

/// Emits the __device__ scalar function: outputs as pointers, inputs as
/// word-valued parameters named after the kernel's value ids. The body is
/// shared with the C and grid emitters (codegen/CEmitter.h).
std::string emitDeviceScalar(const LoweredKernel &L,
                             const CudaEmitOptions &Opts,
                             const std::string &FnName) {
  return emitScalarFunction(L, Opts.WordBits, FnName,
                            "__device__ static __forceinline__", "u64");
}

} // namespace

std::string
moma::codegen::emitCudaElementwise(const LoweredKernel &L,
                                   const CudaEmitOptions &Opts) {
  if (L.K.maxBits() > Opts.WordBits)
    fatalError("emitCudaElementwise: kernel not lowered to word width");

  std::string Name = "moma_" + L.K.Name;
  std::string Src = cudaHeader(Opts, "Element-wise kernel '" + L.K.Name + "'");
  Src += emitDeviceScalar(L, Opts, Name + "_scalar");

  // Global signature: per-element arrays for outputs and non-broadcast
  // inputs; broadcast words for q/mu; element count n.
  std::string Sig;
  auto Add = [&](const std::string &S) {
    if (!Sig.empty())
      Sig += ", ";
    Sig += S;
  };
  for (const LoweredPort &P : L.Outputs)
    Add(formatv("u64 *%s", P.Name.c_str()));
  for (const LoweredPort &P : L.Inputs)
    Add(formatv("const u64 *%s", P.Name.c_str()));
  Add("long long n");

  Src += formatv("__global__ void %s(%s) {\n", Name.c_str(), Sig.c_str());
  Src += "  // One thread per element (paper 5.1); blockIdx.y = batch.\n";
  Src += "  long long i = blockIdx.x * (long long)blockDim.x + threadIdx.x;\n";
  Src += "  if (i >= n) return;\n";
  Src += "  long long e = (long long)blockIdx.y * n + i;\n";

  std::string CallArgs;
  for (const LoweredPort &P : L.Outputs) {
    unsigned Stored = P.storedWords();
    for (unsigned W = 0; W < Stored; ++W) {
      if (!CallArgs.empty())
        CallArgs += ", ";
      CallArgs += formatv("&%s[e * %u + %u]", P.Name.c_str(), Stored, W);
    }
  }
  for (const LoweredPort &P : L.Inputs) {
    bool Broadcast = P.Name == "q" || P.Name == "mu";
    std::string Base =
        Broadcast ? P.Name
                  : formatv("(%s + e * %u)", P.Name.c_str(), P.storedWords());
    std::string Args = portLoadArgs(P, Base);
    if (!CallArgs.empty() && !Args.empty())
      CallArgs += ", ";
    CallArgs += Args;
  }
  Src += formatv("  %s_scalar(%s);\n", Name.c_str(), CallArgs.c_str());
  Src += "}\n\n";

  Src += formatv(
      "// Launch: dim3 grid((n + %u - 1) / %u, batch); %s<<<grid, %u>>>(...);\n",
      Opts.BlockDim, Opts.BlockDim, Name.c_str(), Opts.BlockDim);
  return Src;
}

std::string moma::codegen::emitCudaNttStage(const LoweredKernel &L,
                                            const CudaEmitOptions &Opts) {
  if (L.K.maxBits() > Opts.WordBits)
    fatalError("emitCudaNttStage: kernel not lowered to word width");
  const LoweredPort *X = findPort(L.Inputs, "x");
  const LoweredPort *Y = findPort(L.Inputs, "y");
  const LoweredPort *W = findPort(L.Inputs, "w");
  const LoweredPort *WQ = findPort(L.Inputs, "wq");
  const LoweredPort *Q = findPort(L.Inputs, "q");
  const LoweredPort *XO = findPort(L.Outputs, "xo");
  const LoweredPort *YO = findPort(L.Outputs, "yo");
  if (!X || !Y || !W || !WQ || !Q || !XO || !YO)
    fatalError("emitCudaNttStage: expected butterfly ports x,y,w,wq,q -> "
               "xo,yo");

  unsigned K = X->storedWords();
  unsigned TE = twiddleEntryWords(L);
  std::string Name = "moma_" + L.K.Name;
  std::string Src =
      cudaHeader(Opts, "NTT stage kernel (radix-2 DIT butterflies)");
  Src += emitDeviceScalar(L, Opts, Name + "_scalar");

  Src += formatv(
      "// In-place stage over X (bit-reversed input order). len is the\n"
      "// butterfly half-distance of this stage; Wst points at the stage's\n"
      "// twiddle table: len entries [w | wq] of %u words, w (%u words)\n"
      "// followed by its Shoup quotient wq = floor(w * 2^%u / q).\n",
      TE, W->storedWords(), WQ->ContainerBits);
  Src += formatv(
      "__global__ void %s_stage(u64 *X, const u64 *Wst, const u64 *q,\n"
      "                         long long n, long long len) {\n",
      Name.c_str());
  Src += "  // One thread per butterfly (n/2 butterflies per stage,\n"
         "  // paper 5.1); blockIdx.y = batch index.\n";
  Src += "  long long t = blockIdx.x * (long long)blockDim.x + threadIdx.x;\n";
  Src += "  if (t >= n / 2) return;\n";
  Src += "  long long g = t / len, j = t % len;\n";
  Src += "  long long i0 = g * 2 * len + j, i1 = i0 + len;\n";
  Src += formatv("  u64 *base = X + (long long)blockIdx.y * n * %u;\n", K);
  Src += formatv("  u64 *px = base + i0 * %u, *py = base + i1 * %u;\n", K, K);
  Src += formatv("  const u64 *pw = Wst + j * %u;\n", TE);

  std::string CallArgs;
  for (unsigned I = 0; I < XO->storedWords(); ++I)
    CallArgs += formatv("%s&px[%u]", CallArgs.empty() ? "" : ", ", I);
  for (unsigned I = 0; I < YO->storedWords(); ++I)
    CallArgs += formatv(", &py[%u]", I);
  for (const std::string &Args :
       {portLoadArgs(*X, "px"), portLoadArgs(*Y, "py"),
        twiddleEntryArgs(L, "pw"), portLoadArgs(*Q, "q")})
    if (!Args.empty())
      CallArgs += ", " + Args;
  Src += formatv("  %s_scalar(%s);\n", Name.c_str(), CallArgs.c_str());
  Src += "}\n\n";
  Src += formatv(
      "// Launch per stage s (len = 1 << s), batch b:\n"
      "//   dim3 grid((n/2 + %u - 1) / %u, b);\n"
      "//   %s_stage<<<grid, %u>>>(dX, dW + stageOffset, dQ, n, len);\n",
      Opts.BlockDim, Opts.BlockDim, Name.c_str(), Opts.BlockDim);
  return Src;
}

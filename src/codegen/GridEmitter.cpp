//===- codegen/GridEmitter.cpp - Grid-shaped C emission ---------------------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "codegen/GridEmitter.h"

#include "rewrite/PlanOptions.h"
#include "support/Error.h"
#include "support/Format.h"

using namespace moma;
using namespace moma::codegen;
using rewrite::LoweredKernel;
using rewrite::LoweredPort;

namespace {

/// Declares per-block locals b<i>_<w> holding broadcast port \p I's stored
/// words (loaded once per block, hoisted out of the element loop), and
/// returns the matching scalar-call argument list.
std::string hoistBroadcast(std::string &Src, const LoweredPort &P, size_t I) {
  std::string Args;
  for (unsigned W = 0; W < P.storedWords(); ++W) {
    std::string Local = formatv("b%zu_%u", I, W);
    Src += formatv("  const u64 %s = aux[%zu][%u];\n", Local.c_str(), I, W);
    if (!Args.empty())
      Args += ", ";
    Args += Local;
  }
  return Args;
}

} // namespace

EmittedKernel moma::codegen::emitGridC(const LoweredKernel &L,
                                       const GridEmitOptions &Opts) {
  const ir::Kernel &K = L.K;
  if (K.maxBits() > Opts.WordBits)
    fatalError("emitGridC: kernel not lowered to the requested word width");
  if (Opts.WordBits != 64)
    fatalError("emitGridC: the grid ABI is 64-bit words");

  EmittedKernel Out;
  std::string Base = "moma_" + K.Name;
  Out.Symbol = Base + "_grid";

  size_t BStart = broadcastStart(L);
  if (BStart == L.Inputs.size())
    fatalError("emitGridC: kernel has no modulus port");

  std::string Src;
  if (!Opts.Banner.empty())
    Src += "// " + Opts.Banner + "\n";
  Src += "// Grid-shaped kernel '" + K.Name +
         "' generated by MoMA (CGO'25 reproduction):\n"
         "// the paper's 5.1 CUDA thread mapping as host-JIT C, one call\n"
         "// per (blockIdx.x, blockIdx.y) block. Word order within each\n"
         "// element: most significant first.\n"
         "#include <stdint.h>\n"
         "typedef uint64_t u64;\n"
         "typedef uint32_t u32;\n\n";

  // The shared scalar body (identical to the emitC and CUDA emissions).
  std::string ScalarFn = Base + "_scalar";
  Src += emitScalarFunction(L, Opts.WordBits, ScalarFn, "static inline",
                            "u64");

  Out.Ports = portSignature(L);

  //===--------------------------------------------------------------------===//
  // Element-wise grid entry: one virtual thread per element, batch row in
  // blockIdx.y (paper 5.1 BLAS mapping).
  //===--------------------------------------------------------------------===//

  Src += "#ifdef __cplusplus\nextern \"C\"\n#endif\n";
  Src += formatv("void %s(u64 blockIdxX, u64 blockIdxY, u64 blockDim,\n"
                 "    u64 n, u64 *const *outs, const u64 *const *ins,\n"
                 "    const u64 *instride, const u64 *const *aux) {\n",
                 Out.Symbol.c_str());
  Src += "  u64 i = blockIdxX * blockDim;\n";
  Src += "  u64 end = i + blockDim;\n";
  Src += "  if (end > n) end = n;\n";
  Src += "  if (i >= end) return;\n";

  // Broadcast ports: loaded once per block.
  std::string AuxArgs;
  for (size_t I = BStart; I < L.Inputs.size(); ++I) {
    std::string A = hoistBroadcast(Src, L.Inputs[I], I - BStart);
    if (!AuxArgs.empty() && !A.empty())
      AuxArgs += ", ";
    AuxArgs += A;
  }

  // Per-element cursors, advanced by the port stride each iteration.
  for (size_t O = 0; O < L.Outputs.size(); ++O)
    Src += formatv("  u64 *o%zu = outs[%zu] + (blockIdxY * n + i) * %u;\n",
                   O, O, L.Outputs[O].storedWords());
  for (size_t I = 0; I < BStart; ++I)
    Src += formatv("  const u64 *p%zu = ins[%zu] + (blockIdxY * n + i) * "
                   "instride[%zu];\n",
                   I, I, I);

  std::string CallArgs;
  for (size_t O = 0; O < L.Outputs.size(); ++O)
    for (unsigned W = 0; W < L.Outputs[O].storedWords(); ++W) {
      if (!CallArgs.empty())
        CallArgs += ", ";
      CallArgs += formatv("&o%zu[%u]", O, W);
    }
  for (size_t I = 0; I < BStart; ++I) {
    std::string A = portLoadArgs(L.Inputs[I], formatv("p%zu", I));
    if (!CallArgs.empty() && !A.empty())
      CallArgs += ", ";
    CallArgs += A;
  }
  if (!CallArgs.empty() && !AuxArgs.empty())
    CallArgs += ", ";
  CallArgs += AuxArgs;

  Src += "  for (; i < end; ++i) {\n";
  Src += formatv("    %s(%s);\n", ScalarFn.c_str(), CallArgs.c_str());
  for (size_t O = 0; O < L.Outputs.size(); ++O)
    Src += formatv("    o%zu += %u;\n", O, L.Outputs[O].storedWords());
  for (size_t I = 0; I < BStart; ++I)
    Src += formatv("    p%zu += instride[%zu];\n", I, I);
  Src += "  }\n}\n";

  //===--------------------------------------------------------------------===//
  // Fused stage-group entry (butterfly kernels only): one virtual thread
  // per 2^depth-point sub-transform across `depth` consecutive stages,
  // batch row in blockIdx.y (paper 5.1 NTT mapping), elements held in
  // registers between sub-stages (see the header's ABI contract). `depth`
  // and the rev/ninv edge-stage folds are launch parameters, so one
  // compiled module serves every fusion depth and both transform edges.
  //===--------------------------------------------------------------------===//

  const LoweredPort *X = findPort(L.Inputs, "x");
  const LoweredPort *Y = findPort(L.Inputs, "y");
  const LoweredPort *W = findPort(L.Inputs, "w");
  const LoweredPort *WQ = findPort(L.Inputs, "wq");
  const LoweredPort *XO = findPort(L.Outputs, "xo");
  const LoweredPort *YO = findPort(L.Outputs, "yo");
  if (X && Y && W && WQ && XO && YO && BStart == 4 &&
      L.Outputs.size() == 2) {
    unsigned EW = X->storedWords();
    unsigned TE = twiddleEntryWords(L);
    unsigned MaxM = 1u << rewrite::PlanOptions::MaxFuseDepth;
    Out.FusedSymbol = Base + "_fused";
    Src += "\n#ifdef __cplusplus\nextern \"C\"\n#endif\n";
    Src += formatv("void %s(u64 blockIdxX, u64 blockIdxY, u64 blockDim,\n"
                   "    u64 n, u64 len0, u64 depth, u64 *Dst,\n"
                   "    const u64 *Src, const u64 *Tw, const u32 *rev,\n"
                   "    const u64 *twist, const u64 *scale, u64 sstride,\n"
                   "    const u64 *const *aux) {\n",
                   Out.FusedSymbol.c_str());
    Src += "  u64 m = (u64)1 << depth;\n";
    Src += "  u64 nt = n >> depth;\n";
    Src += "  u64 t = blockIdxX * blockDim;\n";
    Src += "  u64 end = t + blockDim;\n";
    Src += "  if (end > nt) end = nt;\n";
    Src += "  if (t >= end) return;\n";
    std::string FsAuxArgs;
    for (size_t I = BStart; I < L.Inputs.size(); ++I) {
      std::string A = hoistBroadcast(Src, L.Inputs[I], I - BStart);
      if (!FsAuxArgs.empty() && !A.empty())
        FsAuxArgs += ", ";
      FsAuxArgs += A;
    }
    Src += formatv("  const u64 *src = Src + blockIdxY * n * %u;\n", EW);
    Src += formatv("  u64 *dst = Dst + blockIdxY * n * %u;\n", EW);
    Src += "  u64 g = t / len0, r = t - g * len0;\n";
    Src += formatv("  u64 R[%u][%u];\n", MaxM, EW);
    Src += formatv("  u64 dump[%u];\n", EW);
    Src += formatv("  u64 zero[%u];\n", EW);
    Src += formatv("  for (u64 i = 0; i < %u; ++i) zero[i] = 0;\n", EW);
    // The zero-x butterfly call shared by every edge-stage multiply fold
    // (forward ψ twist at the loads, inverse scale at the stores):
    // butterfly(x = 0, y = v, w = <W>) writes xo = 0 + w*v, the bare
    // modular product, back into the register block.
    auto ZeroXCall = [&](const char *WExpr) {
      std::string Args;
      for (unsigned I = 0; I < XO->storedWords(); ++I)
        Args += formatv("%s&rx[%u]", Args.empty() ? "" : ", ", I);
      for (unsigned I = 0; I < YO->storedWords(); ++I)
        Args += formatv(", &dump[%u]", I);
      for (const std::string &A :
           {portLoadArgs(*X, "zero"), portLoadArgs(*Y, "rx"),
            twiddleEntryArgs(L, WExpr)})
        if (!A.empty())
          Args += ", " + A;
      return Args;
    };

    Src += "  for (; t < end; ++t) {\n";
    Src += "    u64 base = g * (len0 << depth) + r;\n";
    // Loads first — all of the thread's elements reach registers before
    // any store, the property the in-place single-group case relies on.
    // The forward negacyclic ψ twist rides the loads: the element at
    // gathered source index s is coefficient a_s, so its multiplier is
    // twist[s] (= ψ^s).
    Src += "    for (u64 j = 0; j < m; ++j) {\n";
    Src += "      u64 e = base + j * len0;\n";
    Src += "      u64 s = rev ? (u64)rev[e] : e;\n";
    Src += formatv("      const u64 *p = src + s * %u;\n", EW);
    Src += formatv("      for (u64 i = 0; i < %u; ++i) R[j][i] = p[i];\n",
                   EW);
    Src += "      if (twist) {\n";
    Src += "        u64 *rx = R[j];\n";
    Src += formatv("        const u64 *ptw = twist + s * %u;\n", TE);
    {
      std::string TwArgs = ZeroXCall("ptw");
      if (!FsAuxArgs.empty())
        TwArgs += ", " + FsAuxArgs;
      Src += formatv("        %s(%s);\n", ScalarFn.c_str(), TwArgs.c_str());
    }
    Src += "      }\n";
    Src += "    }\n";
    // Sub-stage d pairs register j with j + 2^d; the global stage of
    // half-distance L = len0<<d uses twiddle entry r + (j mod 2^d)*len0
    // within its stage-major table slice at entry L-1.
    Src += "    for (u64 d = 0; d < depth; ++d) {\n";
    Src += "      u64 h = (u64)1 << d;\n";
    Src += "      u64 L = len0 << d;\n";
    Src += "      for (u64 j0 = 0; j0 < m; j0 += 2 * h) {\n";
    Src += "        for (u64 j = j0; j < j0 + h; ++j) {\n";
    Src += "          u64 *rx = R[j];\n";
    Src += "          u64 *ry = R[j + h];\n";
    Src += formatv("          const u64 *pw = Tw + (L - 1 + r + "
                   "(j - j0) * len0) * %u;\n",
                   TE);
    // Assemble the in-register call: outputs write back into the same
    // registers the inputs load from (inputs pass by value, so no
    // aliasing concern).
    std::string FsArgs;
    for (unsigned I = 0; I < XO->storedWords(); ++I)
      FsArgs += formatv("%s&rx[%u]", FsArgs.empty() ? "" : ", ", I);
    for (unsigned I = 0; I < YO->storedWords(); ++I)
      FsArgs += formatv(", &ry[%u]", I);
    for (const std::string &A :
         {portLoadArgs(*X, "rx"), portLoadArgs(*Y, "ry"),
          twiddleEntryArgs(L, "pw")})
      if (!A.empty())
        FsArgs += ", " + A;
    if (!FsAuxArgs.empty())
      FsArgs += ", " + FsAuxArgs;
    Src += formatv("          %s(%s);\n", ScalarFn.c_str(), FsArgs.c_str());
    Src += "        }\n      }\n    }\n";
    // The inverse scale rides the stores through the same scalar body:
    // butterfly(x=0, y=v, w=scale[...]) makes xo = 0 + scale*v. sstride
    // selects the fold: 0 broadcasts one factor (the cyclic n^-1), the
    // entry size indexes a per-element table (the negacyclic untwist
    // ψ^{-e} · n^-1, e the natural-order output index). Factors arrive in
    // the twiddle tables' [w | wq] entry layout.
    Src += "    if (scale) {\n";
    Src += "      for (u64 j = 0; j < m; ++j) {\n";
    Src += "        u64 *rx = R[j];\n";
    Src += "        const u64 *psc = scale + (base + j * len0) * sstride;\n";
    std::string ScArgs = ZeroXCall("psc");
    if (!FsAuxArgs.empty())
      ScArgs += ", " + FsAuxArgs;
    Src += formatv("        %s(%s);\n", ScalarFn.c_str(), ScArgs.c_str());
    Src += "      }\n    }\n";
    Src += "    for (u64 j = 0; j < m; ++j) {\n";
    Src += formatv("      u64 *p = dst + (base + j * len0) * %u;\n", EW);
    Src += formatv("      for (u64 i = 0; i < %u; ++i) p[i] = R[j][i];\n",
                   EW);
    Src += "    }\n";
    Src += "    if (++r == len0) { r = 0; ++g; }\n";
    Src += "  }\n}\n";
  }

  Out.Source = std::move(Src);
  return Out;
}

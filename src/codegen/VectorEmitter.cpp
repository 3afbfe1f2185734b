//===- codegen/VectorEmitter.cpp - SIMD lane-loop C emission ----------------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "codegen/VectorEmitter.h"

#include "rewrite/PlanOptions.h"
#include "support/Error.h"
#include "support/Format.h"

using namespace moma;
using namespace moma::codegen;
using rewrite::LoweredKernel;
using rewrite::LoweredPort;

namespace {

/// Stored-word slots of \p P the scalar function actually consumes:
/// const-zero and dead words have no parameter, so the staging arrays
/// skip them too.
std::vector<unsigned> liveSlots(const LoweredPort &P) {
  std::vector<unsigned> Slots;
  size_t Skip = P.Words.size() - P.storedWords();
  for (size_t I = Skip; I < P.Words.size(); ++I) {
    if (P.IsConstZero[I] || P.isDeadWord(I))
      continue;
    Slots.push_back(static_cast<unsigned>(I - Skip));
  }
  return Slots;
}

/// Declares function-scope locals b<i>_<w> holding every broadcast port's
/// stored words (loaded once per entry, hoisted out of every loop), and
/// returns the local names in scalar-call order.
std::vector<std::string> hoistBroadcasts(std::string &Src,
                                         const LoweredKernel &L,
                                         size_t BStart) {
  std::vector<std::string> Names;
  for (size_t I = BStart; I < L.Inputs.size(); ++I)
    for (unsigned W = 0; W < L.Inputs[I].storedWords(); ++W) {
      std::string Local = formatv("b%zu_%u", I - BStart, W);
      Src += formatv("  const u64 %s = aux[%zu][%u];\n", Local.c_str(),
                     I - BStart, W);
      Names.push_back(Local);
    }
  return Names;
}

std::string joinArgs(const std::vector<std::string> &Parts) {
  std::string S;
  for (const std::string &P : Parts) {
    if (!S.empty())
      S += ", ";
    S += P;
  }
  return S;
}

} // namespace

EmittedKernel moma::codegen::emitVectorC(const LoweredKernel &L,
                                         const VectorEmitOptions &Opts) {
  const ir::Kernel &K = L.K;
  if (K.maxBits() > Opts.WordBits)
    fatalError("emitVectorC: kernel not lowered to the requested word width");
  if (Opts.WordBits != 64)
    fatalError("emitVectorC: the vector ABI is 64-bit words");

  EmittedKernel Out;
  std::string Base = "moma_" + K.Name;
  Out.Symbol = Base + "_vec";

  size_t BStart = broadcastStart(L);
  if (BStart == L.Inputs.size())
    fatalError("emitVectorC: kernel has no modulus port");

  const unsigned VL = VectorLanes;

  std::string Src;
  if (!Opts.Banner.empty())
    Src += "// " + Opts.Banner + "\n";
  Src += "// Vectorized kernel '" + K.Name +
         "' generated by MoMA (CGO'25 reproduction):\n"
         "// one element loop over the batch; fused transforms hold a block\n"
         "// of batch rows in SIMD lanes — lane j of word w lives at\n"
         "// R[reg][w][j], so every carry chain stays in-lane. Word order\n"
         "// within each element: most significant first.\n"
         "#include <stdint.h>\n"
         "typedef uint64_t u64;\n"
         "typedef uint32_t u32;\n\n";

  // The shared scalar body (identical to the emitC, grid and CUDA
  // emissions — bit-identity across backends is by construction). Large
  // bodies stay out of line: see VectorInlineMaxStmts.
  std::string ScalarFn = Base + "_scalar";
  Src += emitScalarFunction(L, Opts.WordBits, ScalarFn,
                            K.Body.size() <= VectorInlineMaxStmts
                                ? "static inline"
                                : "static __attribute__((noinline))",
                            "u64");

  Out.Ports = portSignature(L);

  //===--------------------------------------------------------------------===//
  // Batched element-wise entry: one loop of scalar calls over the flat
  // batch, cursors advanced by the port stride.
  //===--------------------------------------------------------------------===//

  Src += "#ifdef __cplusplus\nextern \"C\"\n#endif\n";
  Src += formatv("void %s(u64 n, u64 *const *outs,\n"
                 "    const u64 *const *ins, const u64 *__restrict__ "
                 "instride,\n"
                 "    const u64 *const *__restrict__ aux) {\n",
                 Out.Symbol.c_str());
  std::vector<std::string> AuxNames = hoistBroadcasts(Src, L, BStart);
  for (size_t O = 0; O < L.Outputs.size(); ++O)
    Src += formatv("  u64 *o%zu = outs[%zu];\n", O, O);
  for (size_t I = 0; I < BStart; ++I) {
    Src += formatv("  const u64 *p%zu = ins[%zu];\n", I, I);
    Src += formatv("  u64 s%zu = instride[%zu];\n", I, I);
  }
  std::vector<std::string> CallArgs;
  for (size_t O = 0; O < L.Outputs.size(); ++O)
    for (unsigned S = 0; S < L.Outputs[O].storedWords(); ++S)
      CallArgs.push_back(formatv("&o%zu[%u]", O, S));
  for (size_t I = 0; I < BStart; ++I) {
    std::string A = portLoadArgs(L.Inputs[I], formatv("p%zu", I));
    if (!A.empty())
      CallArgs.push_back(A);
  }
  for (const std::string &A : AuxNames)
    CallArgs.push_back(A);
  Src += "  for (u64 e = 0; e < n; ++e) {\n";
  Src += formatv("    %s(%s);\n", ScalarFn.c_str(),
                 joinArgs(CallArgs).c_str());
  for (size_t O = 0; O < L.Outputs.size(); ++O)
    Src += formatv("    o%zu += %u;\n", O, L.Outputs[O].storedWords());
  for (size_t I = 0; I < BStart; ++I)
    Src += formatv("    p%zu += s%zu;\n", I, I);
  Src += "  }\n}\n";

  //===--------------------------------------------------------------------===//
  // Fused stage-group entry (butterfly kernels only): the grid emitter's
  // fused ABI with lane = batch row. Every row of a batched transform runs
  // the identical butterfly/twiddle schedule, so the batch axis is the
  // natural SIMD axis — twiddles, reversal indices and edge-stage fold
  // tables are lane-invariant broadcasts. Each (thread t, lane block)
  // holds its 2^depth elements for up to VectorLanes rows in the register
  // block R[reg][word][lane]; the walk order per row is exactly the
  // interpreter/grid one, and modular arithmetic is exact, so results are
  // bit-identical by construction.
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
    std::string AuxTail = joinArgs(AuxNames);
    if (!AuxTail.empty())
      AuxTail = ", " + AuxTail;

    // Scalar-call fragments against the 2-D lane arrays (slot-major,
    // lane-minor — the SoA layout of the file comment).
    auto OutLane = [&](const LoweredPort &P, const std::string &Arr) {
      std::string A;
      for (unsigned S = 0; S < P.storedWords(); ++S)
        A += formatv("%s&%s[%u][l]", A.empty() ? "" : ", ", Arr.c_str(), S);
      return A;
    };
    auto InLane = [&](const LoweredPort &P, const std::string &Arr) {
      std::string A;
      for (unsigned S : liveSlots(P))
        A += formatv("%s%s[%u][l]", A.empty() ? "" : ", ", Arr.c_str(), S);
      return A;
    };

    unsigned MaxM = 1u << rewrite::PlanOptions::MaxFuseDepth;
    Out.FusedSymbol = Base + "_vfused";
    Src += "\n#ifdef __cplusplus\nextern \"C\"\n#endif\n";
    Src += formatv("void %s(u64 batch, u64 n, u64 len0, u64 depth,\n"
                   "    u64 *Dst, const u64 *Src, const u64 *__restrict__ "
                   "Tw,\n"
                   "    const u32 *__restrict__ rev, const u64 *__restrict__ "
                   "twist,\n"
                   "    const u64 *__restrict__ scale, u64 sstride,\n"
                   "    const u64 *const *__restrict__ aux) {\n",
                   Out.FusedSymbol.c_str());
    Src += "  u64 m = (u64)1 << depth;\n";
    Src += "  u64 nt = n >> depth;\n";
    hoistBroadcasts(Src, L, BStart);
    Src += formatv("  u64 row = n * %u;\n", EW);
    Src += formatv("  u64 R[%u][%u][%u];\n", MaxM, EW, VL);
    Src += formatv("  u64 dump[%u][%u];\n", EW, VL);
    Src += formatv("  u64 zero[%u];\n", EW);
    Src += formatv("  for (u64 i = 0; i < %u; ++i) zero[i] = 0;\n", EW);
    // The zero-x butterfly lane call shared by the edge-stage multiply
    // folds (forward ψ twist at the loads, inverse scale at the stores):
    // butterfly(x = 0, y = v, w = <W>) writes xo = w*v per lane.
    auto ZeroXCall = [&](const char *WExpr) {
      std::string Args = OutLane(*XO, "R[j]") + ", " + OutLane(*YO, "dump");
      std::string A = portLoadArgs(*X, "zero");
      if (!A.empty())
        Args += ", " + A;
      A = InLane(*Y, "R[j]");
      if (!A.empty())
        Args += ", " + A;
      A = twiddleEntryArgs(L, WExpr);
      if (!A.empty())
        Args += ", " + A;
      Args += AuxTail;
      return Args;
    };

    Src += formatv("  for (u64 b0 = 0; b0 < batch; b0 += %u) {\n", VL);
    Src += "    u64 c = batch - b0;\n";
    Src += formatv("    if (c > %u) c = %u;\n", VL, VL);
    Src += "    const u64 *src = Src + b0 * row;\n";
    Src += "    u64 *dst = Dst + b0 * row;\n";
    Src += "    u64 g = 0, r = 0;\n";
    Src += "    for (u64 t = 0; t < nt; ++t) {\n";
    Src += "      u64 base = g * (len0 << depth) + r;\n";
    // Loads first — every lane's elements reach the register block before
    // any store, the property the in-place single-group case relies on.
    Src += "      for (u64 j = 0; j < m; ++j) {\n";
    Src += "        u64 e = base + j * len0;\n";
    Src += "        u64 s = rev ? (u64)rev[e] : e;\n";
    Src += formatv("        const u64 *p = src + s * %u;\n", EW);
    Src += "        for (u64 l = 0; l < c; ++l)\n";
    Src += formatv("          for (u64 i = 0; i < %u; ++i) "
                   "R[j][i][l] = p[l * row + i];\n",
                   EW);
    Src += "        if (twist) {\n";
    Src += formatv("          const u64 *ptw = twist + s * %u;\n", TE);
    Src += "          for (u64 l = 0; l < c; ++l)\n";
    Src += formatv("            %s(%s);\n", ScalarFn.c_str(),
                   ZeroXCall("ptw").c_str());
    Src += "        }\n";
    Src += "      }\n";
    // Sub-stage d pairs register j with j + 2^d; same twiddle indexing as
    // the interpreter's walker and the grid fused entry.
    Src += "      for (u64 d = 0; d < depth; ++d) {\n";
    Src += "        u64 h = (u64)1 << d;\n";
    Src += "        u64 L = len0 << d;\n";
    Src += "        for (u64 j0 = 0; j0 < m; j0 += 2 * h) {\n";
    Src += "          for (u64 j = j0; j < j0 + h; ++j) {\n";
    Src += formatv("            const u64 *pw = Tw + (L - 1 + r + "
                   "(j - j0) * len0) * %u;\n",
                   TE);
    {
      std::string Args = OutLane(*XO, "R[j]") + ", " + OutLane(*YO,
                                                              "R[j + h]");
      std::string A = InLane(*X, "R[j]");
      if (!A.empty())
        Args += ", " + A;
      A = InLane(*Y, "R[j + h]");
      if (!A.empty())
        Args += ", " + A;
      A = twiddleEntryArgs(L, "pw");
      if (!A.empty())
        Args += ", " + A;
      Args += AuxTail;
      Src += "            for (u64 l = 0; l < c; ++l)\n";
      Src += formatv("              %s(%s);\n", ScalarFn.c_str(),
                     Args.c_str());
    }
    Src += "          }\n        }\n      }\n";
    Src += "      if (scale) {\n";
    Src += "        for (u64 j = 0; j < m; ++j) {\n";
    Src += "          const u64 *psc = scale + (base + j * len0) * "
           "sstride;\n";
    Src += "          for (u64 l = 0; l < c; ++l)\n";
    Src += formatv("            %s(%s);\n", ScalarFn.c_str(),
                   ZeroXCall("psc").c_str());
    Src += "        }\n      }\n";
    Src += "      for (u64 j = 0; j < m; ++j) {\n";
    Src += formatv("        u64 *p = dst + (base + j * len0) * %u;\n", EW);
    Src += "        for (u64 l = 0; l < c; ++l)\n";
    Src += formatv("          for (u64 i = 0; i < %u; ++i) "
                   "p[l * row + i] = R[j][i][l];\n",
                   EW);
    Src += "      }\n";
    Src += "      if (++r == len0) { r = 0; ++g; }\n";
    Src += "    }\n  }\n}\n";
  }

  Out.Source = std::move(Src);
  return Out;
}

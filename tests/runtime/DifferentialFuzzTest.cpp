//===- tests/runtime/DifferentialFuzzTest.cpp - 4-way differential fuzz --------===//
//
// The hardening companion of the batched runtime: the runtime multiplies
// the number of generated-code paths (backend x reduction x schedule x
// pruning x width), so this suite drives randomized modmul and butterfly
// kernels through all four executions we have —
//
//   1. the IR interpreter on the lowered kernel (rewrite-system truth),
//   2. the sim-GPU grid-shaped JIT (the 5.1 thread mapping, what the
//      sim-GPU ExecutionBackend dispatches; widths {1, 2, 4, 8}, with a
//      random block dimension per variant),
//   3. the vector backend's element-loop JIT through the runtime plan
//      cache (run over a random batch size of replicated trial elements),
//      and
//   4. the Bignum oracle (mathematical truth)
//
// — across widths {1, 2, 4, 8, 12} words (and both reduction strategies
// for modmul; the butterfly has one, Shoup's product), with random
// moduli (odd, exact bit-width, not necessarily prime) and random
// reduced inputs. Per configuration, a few kernel variants are
// generated (random modulus width in the word-count window, random
// scheduling, occasional pruning-off) and at least MOMA_FUZZ_ITERS trials
// (default 500) run across them.
//
// On a mismatch the test prints the reproducing seed (via TestUtil's
// SeededRng trace), the exact trial values, and the path of the emitted
// source the JIT compiled — everything needed to replay offline.
//
//===----------------------------------------------------------------------===//

#include "../TestUtil.h"

#include "field/PrimeGen.h"
#include "kernels/ScalarKernels.h"
#include "ntt/ReferenceDft.h"
#include "runtime/Backend.h"
#include "runtime/Dispatcher.h"
#include "runtime/KernelRegistry.h"

#include <gtest/gtest.h>

using namespace moma;
using namespace moma::runtime;
using namespace moma::testutil;
using mw::Bignum;

namespace {

// Trials per configuration come from the shared MOMA_FUZZ_ITERS knob
// (testutil::fuzzIters; the nightly CI job raises it).

/// One registry per test binary: identical kernel variants across
/// configurations share compiled modules and the on-disk cache.
KernelRegistry &registry() {
  static KernelRegistry Reg;
  return Reg;
}

/// The Bignum-oracle evaluation of one kernel op.
std::vector<Bignum> oracle(KernelOp Op, const std::vector<Bignum> &In,
                           const Bignum &Q) {
  switch (Op) {
  case KernelOp::MulMod:
    return {In[0].mulMod(In[1], Q)};
  case KernelOp::Butterfly: {
    Bignum T = In[2].mulMod(In[1], Q); // t = w * y
    return {In[0].addMod(T, Q), In[0].subMod(T, Q)};
  }
  default:
    ADD_FAILURE() << "unsupported fuzz op";
    return {};
  }
}

/// Runs \p Trials random (modulus, inputs) instances against one kernel
/// variant four ways: the interpreter on its lowered kernel, the vector
/// plan \p Plan, the sim-GPU plan \p GridPlan and the oracle (three ways
/// when \p GridPlan is null: large widths skip that leg to bound suite
/// time).
void fuzzVariant(KernelOp Op, const CompiledPlan &Plan,
                 const CompiledPlan *GridPlan, int Trials, SeededRng &R) {
  const Bignum One(1);
  unsigned M = Plan.Key.ModBits;
  unsigned K = Plan.ElemWords;
  unsigned NumIns = Plan.NumDataInputs;
  // Stored words per data input: K, except the butterfly's wq
  // companion, which spans the whole container.
  std::vector<unsigned> InWords;
  for (unsigned I = 0; I < NumIns; ++I)
    InWords.push_back(Plan.Lowered.Inputs[I].storedWords());

  for (int T = 0; T < Trials; ++T) {
    // Random odd modulus of exactly M bits; inputs reduced below it.
    Bignum Q = Bignum::randomBits(R, M);
    if (!Q.isOdd())
      Q = Q + One; // even with the top bit set means Q <= 2^M - 2, so
                   // +1 stays at exactly M bits (while -1 could drop to
                   // M-1 bits when Q == 2^(M-1))
    // The butterfly's wq is w's true companion, never random.
    std::vector<Bignum> In;
    for (unsigned I = 0; I < NumIns; ++I)
      In.push_back(Plan.Lowered.Inputs[I].Name == "wq"
                       ? kernels::shoupCompanion(In[2], Q,
                                                 Plan.Key.ContainerBits)
                       : Bignum::random(R, Q));

    // Oracle.
    std::vector<Bignum> Want = oracle(Op, In, Q);

    // Lowered-kernel interpreter. The kernel's trailing inputs are the
    // modulus and the reduction constants, in port order.
    PlanAux Aux = makePlanAux(Plan, Q);
    std::vector<Bignum> InterpIn = In;
    size_t QAt = Plan.Lowered.Inputs.size() - Plan.AuxWords.size();
    for (size_t I = 0; I < Plan.AuxWords.size(); ++I)
      InterpIn.push_back(
          unpackWordsMsbFirst(Aux.Buffers[I].data(), Plan.AuxWords[I]));
    (void)QAt;
    std::vector<Bignum> Interp = interpretLowered(Plan.Lowered, InterpIn);

    std::vector<std::vector<std::uint64_t>> InW;
    for (unsigned I = 0; I < NumIns; ++I)
      InW.push_back(packWordsMsbFirst(In[I], InWords[I]));
    std::string Err;

    // Sim-GPU grid-shaped JIT through its ExecutionBackend (batch of one
    // exercises the block guard: one block, one live thread).
    std::vector<std::vector<std::uint64_t>> GridOutW(Plan.NumOutputs);
    if (GridPlan) {
      PlanAux GAux = makePlanAux(*GridPlan, Q);
      for (auto &O : GridOutW)
        O.assign(K, 0);
      BatchArgs GArgs;
      for (auto &O : GridOutW)
        GArgs.Outs.push_back(O.data());
      for (auto &I : InW)
        GArgs.Ins.push_back(I.data());
      GArgs.Aux = GAux.ptrs();
      ASSERT_TRUE(registry()
                      .backendFor(GridPlan->Key)
                      .runBatch(*GridPlan, GArgs, 1, 1, &Err))
          << Err;
    }

    // Vector element-loop JIT through the runtime batch path: the trial
    // element replicated across a random batch size (every copy must
    // reproduce the oracle value).
    size_t VecN = 1 + R.below(37);
    std::vector<std::vector<std::uint64_t>> VecInW,
        VecOutW(Plan.NumOutputs);
    for (unsigned I = 0; I < NumIns; ++I) {
      std::vector<std::uint64_t> Rep(VecN * InWords[I]);
      for (size_t E = 0; E < VecN; ++E)
        std::copy(InW[I].begin(), InW[I].end(),
                  Rep.begin() + E * InWords[I]);
      VecInW.push_back(std::move(Rep));
    }
    for (auto &O : VecOutW)
      O.assign(VecN * K, 0);
    BatchArgs VArgs;
    for (auto &O : VecOutW)
      VArgs.Outs.push_back(O.data());
    for (auto &I : VecInW)
      VArgs.Ins.push_back(I.data());
    VArgs.Aux = Aux.ptrs();
    ASSERT_TRUE(registry()
                    .backendFor(Plan.Key)
                    .runBatch(Plan, VArgs, VecN, /*Rows=*/1, &Err))
        << Err;

    for (size_t O = 0; O < Want.size(); ++O) {
      std::string Ctx = "trial " + std::to_string(T) + " of plan " +
                        Plan.Key.str() + "\n  q = " + Q.toHex();
      for (unsigned I = 0; I < NumIns; ++I)
        Ctx += "\n  in[" + std::to_string(I) + "] = " + In[I].toHex();
      Ctx += "\n  emitted source: " + Plan.Module->sourcePath();
      ASSERT_EQ(Interp[O], Want[O])
          << "INTERPRETER diverges from oracle on output " << O << "\n"
          << Ctx;
      if (GridPlan) {
        Bignum Grid = unpackWordsMsbFirst(GridOutW[O].data(), K);
        ASSERT_EQ(Grid, Want[O])
            << "SIM-GPU GRID JIT diverges from oracle on output " << O
            << " (plan " << GridPlan->Key.str()
            << ", source: " << GridPlan->Module->sourcePath() << ")\n"
            << Ctx;
      }
      for (size_t E = 0; E < VecN; ++E) {
        Bignum Vec = unpackWordsMsbFirst(VecOutW[O].data() + E * K, K);
        ASSERT_EQ(Vec, Want[O])
            << "VECTOR JIT diverges from oracle on output " << O
            << " at batch element " << E << " of " << VecN << "\n"
            << Ctx;
      }
    }
  }
}

/// One fuzz configuration: a word count and a reduction strategy. A few
/// kernel variants (random modulus width inside the word-count window,
/// random scheduling, pruning mostly on) split the trial budget.
void fuzzConfig(KernelOp Op, unsigned Words, mw::Reduction Red,
                std::uint64_t SeedDefault) {
  SeededRng R(SeedDefault);
  unsigned ContainerWords = 1;
  while (ContainerWords < Words)
    ContainerWords *= 2;
  unsigned Container = 64 * ContainerWords;
  // Modulus widths whose stored word count is exactly Words.
  unsigned LoM = std::max(4u, (Words - 1) * 64 + 1);
  unsigned HiM = std::min(Words * 64, Container - 4);

  int Iters = fuzzIters();
  // Large widths interpret slowly; two variants keep the suite quick
  // while still varying the generated kernel.
  int Variants = Words >= 8 ? 2 : 3;
  int PerVariant = (Iters + Variants - 1) / Variants;

  for (int V = 0; V < Variants; ++V) {
    unsigned M = LoM + static_cast<unsigned>(R.below(HiM - LoM + 1));
    rewrite::PlanOptions Opts;
    Opts.Red = Red;
    Opts.Schedule = R.below(2) == 1;
    // Unpruned kernels at large widths are enormous; exercise the
    // pruning-off path only where it stays cheap.
    Opts.Prune = Words >= 4 || R.below(4) != 0;

    // The default backend is the vector leg of the oracle.
    PlanKey Key;
    Key.Op = Op;
    Key.ContainerBits = Container;
    Key.ModBits = M;
    Key.Opts = Opts;
    std::shared_ptr<const CompiledPlan> Plan = registry().get(Key);
    ASSERT_NE(Plan, nullptr) << registry().error();
    ASSERT_EQ(Plan->ElemWords, Words);

    // The sim-GPU leg of the oracle: same knobs compiled grid-shaped,
    // with a random launch geometry per variant. Widths above 8 words
    // stay 3-way (the interpreter dominates there anyway).
    std::shared_ptr<const CompiledPlan> GridPlan;
    if (Words <= 8) {
      const unsigned Dims[] = {64, 128, 256, 512, 1024};
      PlanKey GKey = Key;
      GKey.Opts.Backend = rewrite::ExecBackend::SimGpu;
      GKey.Opts.BlockDim = Dims[R.below(5)];
      GridPlan = registry().get(GKey);
      ASSERT_NE(GridPlan, nullptr) << registry().error();
    }
    fuzzVariant(Op, *Plan, GridPlan.get(), PerVariant, R);
  }
}

/// The FuseDepth axis of the fused NTT pipeline: random transform shapes
/// (size, batch, width) executed through random (backend, reduction knob,
/// block-dim, fuse-depth) variants must stay bit-identical to the other
/// backend's Barrett/depth-1 walk of the same data — the fused groups, the
/// first-stage bit-reversal gather, the in-register sub-stages and the
/// folded inverse scaling all collapse to the same butterfly sequence,
/// and a Montgomery knob folds onto the same Shoup butterfly.
void fuzzNttFuseDepth(std::uint64_t SeedDefault) {
  SeededRng R(SeedDefault);
  KernelRegistry Reg; // own registry: pinned-variant dispatchers below
  const unsigned Dims[] = {1, 3, 64, 257, 1024};
  int Trials = std::max(1, fuzzIters() / 20); // transforms are heavyweight
  for (int T = 0; T < Trials; ++T) {
    unsigned Words = 1u << R.below(3); // 1, 2, 4
    unsigned LogN = 1 + unsigned(R.below(8));
    size_t N = size_t(1) << LogN;
    // Up to 20 rows: the vector leg's fused entry walks blocks of 8 rows,
    // so draws must reach full blocks and their remainders.
    size_t Batch = 1 + R.below(20);
    mw::Bignum Q = field::nttPrime(64 * Words - 4 - unsigned(R.below(9)),
                                   LogN + 1 + unsigned(R.below(3)));
    unsigned K = (Q.bitWidth() + 63) / 64;

    std::vector<mw::Bignum> Polys;
    for (size_t I = 0; I < N * Batch; ++I)
      Polys.push_back(mw::Bignum::random(R, Q));
    auto Packed = packBatch(Polys, K);

    bool Inverse = R.below(2) == 1;
    // The drawn 2-adicity is always >= LogN + 1, so the negacyclic ring
    // is admissible on every trial and joins the fuzzed axes.
    rewrite::NttRing Ring = R.below(2) ? rewrite::NttRing::Negacyclic
                                       : rewrite::NttRing::Cyclic;
    auto Run = [&](Dispatcher &Dd, std::uint64_t *P) {
      return Inverse ? Dd.nttInverse(Q, P, N, Batch, Ring)
                     : Dd.nttForward(Q, P, N, Batch, Ring);
    };

    rewrite::PlanOptions V;
    V.Backend = R.below(2) ? rewrite::ExecBackend::SimGpu
                           : rewrite::ExecBackend::Vector;
    V.BlockDim = Dims[R.below(5)];
    V.FuseDepth = 1 + unsigned(R.below(3));
    V.Red = R.below(2) ? mw::Reduction::Montgomery
                       : mw::Reduction::Barrett;
    V.Schedule = R.below(2) == 1;

    // The reference is the other backend's Barrett/depth-1 walk, so no
    // backend is checked against itself.
    rewrite::PlanOptions Ref;
    Ref.Backend = V.Backend == rewrite::ExecBackend::SimGpu
                      ? rewrite::ExecBackend::Vector
                      : rewrite::ExecBackend::SimGpu;
    Dispatcher DRef(Reg, nullptr, Ref);
    auto Want = Packed;
    ASSERT_TRUE(Run(DRef, Want.data())) << DRef.error();

    Dispatcher D(Reg, nullptr, V);
    auto Data = Packed;
    ASSERT_TRUE(Run(D, Data.data())) << D.error();
    ASSERT_EQ(Data, Want)
        << "trial " << T << ": " << (Inverse ? "inverse" : "forward")
        << " " << rewrite::nttRingName(Ring)
        << " NTT diverges, n = " << N << ", batch = " << Batch
        << ", q = " << Q.toHex() << ", variant "
        << runtime::PlanKey::forModulus(KernelOp::Butterfly, Q, V)
               .str();
  }
}

TEST(DifferentialFuzz, NttFuseDepthAxis) { fuzzNttFuseDepth(0xF0261); }

} // namespace

#define MOMA_FUZZ_TEST(OP, WORDS, RED, SEED)                                   \
  TEST(DifferentialFuzz, OP##_w##WORDS##_##RED) {                              \
    fuzzConfig(KernelOp::OP, WORDS, mw::Reduction::RED, SEED);                 \
  }

MOMA_FUZZ_TEST(MulMod, 1, Barrett, 0xF0221)
MOMA_FUZZ_TEST(MulMod, 2, Barrett, 0xF0222)
MOMA_FUZZ_TEST(MulMod, 4, Barrett, 0xF0224)
MOMA_FUZZ_TEST(MulMod, 8, Barrett, 0xF0228)
MOMA_FUZZ_TEST(MulMod, 12, Barrett, 0xF022C)
MOMA_FUZZ_TEST(MulMod, 1, Montgomery, 0xF0231)
MOMA_FUZZ_TEST(MulMod, 2, Montgomery, 0xF0232)
MOMA_FUZZ_TEST(MulMod, 4, Montgomery, 0xF0234)
MOMA_FUZZ_TEST(MulMod, 8, Montgomery, 0xF0238)
MOMA_FUZZ_TEST(MulMod, 12, Montgomery, 0xF023C)
MOMA_FUZZ_TEST(Butterfly, 1, Barrett, 0xF0241)
MOMA_FUZZ_TEST(Butterfly, 2, Barrett, 0xF0242)
MOMA_FUZZ_TEST(Butterfly, 4, Barrett, 0xF0244)
MOMA_FUZZ_TEST(Butterfly, 8, Barrett, 0xF0248)
MOMA_FUZZ_TEST(Butterfly, 12, Barrett, 0xF024C)

//===----------------------------------------------------------------------===//
// RNS differential fuzz: random multi-word batches through the RNS layer
// vs the Bignum oracle (vmul) and the Bignum schoolbook convolution
// (polyMul), across backend x ring x limb count x limb width. Each trial
// draws a whole problem shape, so the budget is divided down — the
// nightly MOMA_FUZZ_ITERS raise still scales it linearly.
//===----------------------------------------------------------------------===//

TEST(DifferentialFuzz, RnsVMulAndPolyMul) {
  SeededRng R(0xF0271);
  int Trials = std::max(2, fuzzIters() / 25);
  // Small palette of limb shapes: every (bits, count) pair reuses its
  // compiled plans across trials, so the suite stays JIT-bound, not
  // compile-bound.
  const unsigned LimbBitsChoices[] = {44, 52, 60};
  const unsigned LimbCountChoices[] = {2, 3, 4};
  for (int T = 0; T < Trials; ++T) {
    RnsContext Ctx;
    std::string Err;
    RnsContext::Options O;
    O.LimbBits = LimbBitsChoices[R.below(3)];
    O.TwoAdicity = 8;
    ASSERT_TRUE(
        RnsContext::create(LimbCountChoices[R.below(3)], Ctx, &Err, O))
        << Err;
    const Bignum &M = Ctx.modulus();
    unsigned WW = Ctx.wideWords();

    rewrite::PlanOptions Base;
    Base.Backend = R.below(2) ? rewrite::ExecBackend::SimGpu
                              : rewrite::ExecBackend::Vector;
    Base.BlockDim = Base.Backend == rewrite::ExecBackend::SimGpu
                        ? (64u << (R.below(3)))
                        : 0;
    Base.Red = (R.below(2)) ? mw::Reduction::Montgomery
                              : mw::Reduction::Barrett;
    Base.FuseDepth = 1 + R.below(3);
    Dispatcher D(registry(), nullptr, Base);

    // Element-wise: random batch, vmul vs Bignum.
    {
      size_t N = 1 + R.below(40);
      std::vector<Bignum> A, B;
      for (size_t I = 0; I < N; ++I) {
        A.push_back(Bignum::random(R, M));
        B.push_back(Bignum::random(R, M));
      }
      auto AW = packBatch(A, WW), BW = packBatch(B, WW);
      std::vector<std::uint64_t> CW(N * WW);
      RnsTensor TA(Ctx, N, 1), TB(Ctx, N, 1);
      ASSERT_TRUE(D.fromWide(AW.data(), TA) && D.fromWide(BW.data(), TB) &&
                  D.rnsVMul(TA, TB, TA) && D.toWide(TA, CW.data()))
          << D.error() << " (trial " << T << ")";
      auto C = unpackBatch(CW, WW);
      for (size_t I = 0; I < N; ++I)
        ASSERT_EQ(C[I], A[I].mulMod(B[I], M))
            << "rnsVMul trial " << T << " elem " << I << " base "
            << Base.str();
    }

    // Polynomial: small transform, random ring, vs schoolbook mod M.
    {
      size_t NP = size_t(4) << (R.below(4)); // 4..32
      size_t Batch = 1 + R.below(2);
      rewrite::NttRing Ring = (R.below(2))
                                  ? rewrite::NttRing::Negacyclic
                                  : rewrite::NttRing::Cyclic;
      std::vector<Bignum> A, B;
      for (size_t I = 0; I < NP * Batch; ++I) {
        A.push_back(Bignum::random(R, M));
        B.push_back(Bignum::random(R, M));
      }
      auto AW = packBatch(A, WW), BW = packBatch(B, WW);
      std::vector<std::uint64_t> CW(NP * Batch * WW);
      ASSERT_TRUE(D.rnsPolyMul(Ctx, AW.data(), BW.data(), CW.data(), NP,
                               Batch, Ring))
          << D.error() << " (trial " << T << ")";
      auto C = unpackBatch(CW, WW);
      for (size_t Bt = 0; Bt < Batch; ++Bt) {
        std::vector<Bignum> RA(A.begin() + Bt * NP,
                               A.begin() + (Bt + 1) * NP),
            RB(B.begin() + Bt * NP, B.begin() + (Bt + 1) * NP);
        auto Want = ntt::referencePolyMulRing(
            RA, RB, M, Ring == rewrite::NttRing::Negacyclic);
        for (size_t I = 0; I < NP; ++I)
          ASSERT_EQ(C[Bt * NP + I], Want[I])
              << "rnsPolyMul trial " << T << " ring "
              << rewrite::nttRingName(Ring) << " batch " << Bt
              << " coeff " << I << " base " << Base.str();
      }
    }
  }
}

//===- tests/rewrite/PassManagerTest.cpp - pass pipeline unit tests -------===//
//
// The composable pass manager: per-pass semantic preservation on
// randomized kernels, the non-convergence diagnostic, convergence of the
// pruning pipeline on every runtime kernel shape, and golden op counts
// showing what the pipeline (interval range analysis, CSE, dead-port
// elimination around the folds) buys on the representative kernel
// classes.
//
//===----------------------------------------------------------------------===//

#include "../TestUtil.h"

#include "codegen/CEmitter.h"
#include "field/PrimeGen.h"
#include "ir/Builder.h"
#include "kernels/ScalarKernels.h"
#include "rewrite/PassManager.h"
#include "rewrite/Passes.h"
#include "rewrite/PlanOptions.h"
#include "rewrite/Stats.h"
#include "support/Format.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace moma;
using namespace moma::ir;
using namespace moma::rewrite;
using namespace moma::testutil;
using mw::Bignum;

namespace {

/// A compact version of the FuzzLowerTest random-kernel generator: enough
/// op diversity to exercise every pass's rewrite rules.
Kernel randomKernel(unsigned Width, unsigned Steps, Rng &R) {
  Kernel K;
  K.Name = "passfuzz";
  Builder B(K);
  std::vector<ValueId> Wide;
  std::vector<ValueId> Flags;
  for (unsigned I = 0; I < 3; ++I) {
    ValueId V = K.newValue(Width, "in" + std::to_string(I));
    K.addInput(V, "in" + std::to_string(I));
    Wide.push_back(V);
  }
  auto Pick = [&] { return Wide[R.below(Wide.size())]; };
  for (unsigned S = 0; S < Steps; ++S) {
    switch (R.below(10)) {
    case 0: {
      CarryResult A = B.add(Pick(), Pick(),
                            Flags.empty() ? NoValue
                                          : Flags[R.below(Flags.size())]);
      Wide.push_back(A.Value);
      Flags.push_back(A.Carry);
      break;
    }
    case 1: {
      CarryResult D = B.sub(Pick(), Pick());
      Wide.push_back(D.Value);
      Flags.push_back(D.Carry);
      break;
    }
    case 2: {
      HiLoResult M = B.mul(Pick(), Pick());
      Wide.push_back(M.Hi);
      Wide.push_back(M.Lo);
      break;
    }
    case 3:
      Wide.push_back(B.mulLow(Pick(), Pick()));
      break;
    case 4:
      Flags.push_back(B.lt(Pick(), Pick()));
      break;
    case 5:
      if (!Flags.empty())
        Wide.push_back(B.select(Flags[R.below(Flags.size())], Pick(), Pick()));
      break;
    case 6:
      Wide.push_back(B.shr(Pick(), 1 + R.below(Width - 1)));
      break;
    case 7:
      Wide.push_back(B.bitXor(Pick(), Pick()));
      break;
    case 8: {
      HiLoResult Sp = B.split(Pick());
      Wide.push_back(B.concat(Sp.Hi, Sp.Lo));
      break;
    }
    default:
      Wide.push_back(
          B.constant(Width, Bignum::random(R, Bignum::powerOfTwo(Width))));
      break;
    }
  }
  K.addOutput(Wide.back(), "out0");
  K.addOutput(Wide[Wide.size() / 2], "out1");
  if (!Flags.empty())
    K.addOutput(Flags.back(), "outf");
  return K;
}

/// A pass that claims work every run without touching the kernel: the
/// pipeline can never reach its fixed point, so MaxIters must fire.
struct NeverSettlesPass : Pass {
  const char *name() const override { return "neversettles"; }
  PassResult run(ir::Kernel &K, AnalysisCache &AC) override {
    (void)K;
    (void)AC;
    PassResult R;
    R.Changes = 1;
    return R;
  }
};

/// One fresh instance of every pass class, in pruning-pipeline order.
std::vector<std::unique_ptr<Pass>> everyPass() {
  std::vector<std::unique_ptr<Pass>> Passes;
  Passes.push_back(std::make_unique<ConstFoldPass>());
  Passes.push_back(std::make_unique<AlgebraicIdentitiesPass>());
  Passes.push_back(std::make_unique<RangeAnalysisPass>());
  Passes.push_back(std::make_unique<CsePass>());
  Passes.push_back(std::make_unique<CopyPropPass>());
  Passes.push_back(std::make_unique<DcePass>());
  Passes.push_back(std::make_unique<DeadPortEliminationPass>());
  return Passes;
}

} // namespace

// Every pass, run alone over a lowered random kernel, must preserve the
// original wide semantics — including the port-word substitution
// plumbing when the pass rebuilds the kernel.
TEST(PassManager, EachPassAlonePreservesSemantics) {
  SeededRng Gen(0xA55E5);
  const size_t NumPasses = everyPass().size();
  ASSERT_EQ(NumPasses, pruningPipeline().size());
  for (size_t PassIdx = 0; PassIdx < NumPasses; ++PassIdx) {
    std::string Name = everyPass()[PassIdx]->name();
    for (int Round = 0; Round < 4; ++Round) {
      unsigned Width = Round % 2 ? 256 : 128;
      Kernel K = randomKernel(Width, 16 + 4 * Round, Gen);
      ASSERT_TRUE(verify(K).empty()) << printKernel(K);

      LowerOptions Opts;
      Opts.TargetWordBits = 64;
      LoweredKernel L = lowerToWords(K, Opts);
      PassPipeline P;
      P.add(std::move(everyPass()[PassIdx]));
      PipelineStats S = P.runLowered(L);
      EXPECT_TRUE(S.Converged) << Name;
      ASSERT_TRUE(verify(L.K).empty()) << Name << "\n" << printKernel(L.K);

      Rng R(Gen.seed() * 127 + Round);
      ::testing::ScopedTrace Trace(__FILE__, __LINE__,
                                   ::testing::Message() << "pass " << Name);
      expectLoweringEquivalence(K, L, R, 10,
                                [&](Rng &Rr) { return randomInputs(K, Rr); });
    }
  }
}

// Satellite regression: a pipeline that keeps reporting work must stop at
// MaxIters and say so on stderr, naming the kernel.
TEST(PassManager, NonConvergenceDiagnostic) {
  Kernel K;
  K.Name = "spinner";
  Builder B(K);
  ValueId V = K.newValue(64, "a");
  K.addInput(V, "a");
  K.addOutput(B.shr(V, 1), "out");

  PassPipeline P;
  P.add(std::make_unique<NeverSettlesPass>());
  ::testing::internal::CaptureStderr();
  PipelineStats S = P.run(K, /*MaxIters=*/4);
  std::string Diag = ::testing::internal::GetCapturedStderr();
  EXPECT_FALSE(S.Converged);
  EXPECT_EQ(S.Iterations, 4u);
  EXPECT_NE(Diag.find("did not converge"), std::string::npos) << Diag;
  EXPECT_NE(Diag.find("spinner"), std::string::npos) << Diag;
  EXPECT_NE(Diag.find("neversettles"), std::string::npos) << Diag;
}

// Every pruned plan runs the pipeline, so a pass interaction that
// livelocks would silently cost MaxIters sweeps per plan build. Pin
// convergence on every kernel shape the runtime lowers (each needs at
// most 4 sweeps today).
TEST(PassManager, PipelineConvergesOnEveryRuntimeKernel) {
  unsigned Kernels = 0;
  auto Check = [&](const std::string &Name, const Kernel &K,
                   const LowerOptions &Opts) {
    LoweredKernel L = lowerToWords(K, Opts);
    PipelineStats S = pruningPipeline().runLowered(L);
    EXPECT_TRUE(S.Converged) << Name;
    EXPECT_LE(S.Iterations, 8u) << Name << "\n" << S.report();
    EXPECT_TRUE(verify(L.K).empty()) << Name;
    ++Kernels;
  };
  // Each container with its C - 4 modulus and a padded one.
  const std::pair<unsigned, unsigned> Widths[] = {
      {64, 60},   {64, 45},   {128, 124}, {128, 109},
      {256, 252}, {256, 221}, {512, 508}, {512, 377}};
  for (auto [Container, ModBits] : Widths)
    for (mw::MulAlgorithm Alg :
         {mw::MulAlgorithm::Schoolbook, mw::MulAlgorithm::Karatsuba}) {
      LowerOptions Opts;
      Opts.MulAlg = Alg;
      std::string Tag =
          formatv("/c%u/m%u/%s", Container, ModBits,
                  Alg == mw::MulAlgorithm::Karatsuba ? "karatsuba"
                                                     : "schoolbook");
      kernels::ScalarKernelSpec Spec{Container, ModBits};
      Check("addmod" + Tag, kernels::buildAddModKernel(Spec), Opts);
      Check("submod" + Tag, kernels::buildSubModKernel(Spec), Opts);
      Check("butterfly" + Tag, kernels::buildButterflyKernel(Spec), Opts);
      for (mw::Reduction Red :
           {mw::Reduction::Barrett, mw::Reduction::Montgomery}) {
        kernels::ScalarKernelSpec RSpec{Container, ModBits, Red};
        std::string RTag = Tag + "/" + mw::reductionName(Red);
        Check("mulmod" + RTag, kernels::buildMulModKernel(RSpec), Opts);
        Check("axpy" + RTag, kernels::buildAxpyKernel(RSpec), Opts);
      }
    }
  // The CRT kernels at the runtime's 60-bit limbs: decompose reduces a
  // wide value of ceil(60L / 64) words, recombine works modulo the
  // L-limb product.
  auto ContainerFor = [](unsigned Bits) {
    unsigned C = 64;
    while (C < Bits + 4)
      C *= 2;
    return C;
  };
  for (unsigned Limbs : {2u, 4u, 8u}) {
    unsigned WideWords = (60 * Limbs + 63) / 64;
    Check(formatv("rnsdec/L%u", Limbs),
          kernels::buildRnsDecomposeKernel(
              {ContainerFor(WideWords * 64 - 4), 60}, WideWords),
          LowerOptions());
    Check(formatv("rnsrec/L%u", Limbs),
          kernels::buildRnsRecombineStepKernel(
              {ContainerFor(60 * Limbs), 60 * Limbs}),
          LowerOptions());
  }
  Check("rnsresc", kernels::buildRnsRescaleStepKernel({64, 60}),
        LowerOptions());
  EXPECT_EQ(Kernels, 119u);
}

// CSE must fold a commuted duplicate of an earlier statement and let DCE
// drop the survivor-less copy, without changing semantics.
TEST(PassManager, CseCollapsesCommutedDuplicates) {
  Kernel K;
  K.Name = "csedup";
  Builder B(K);
  ValueId A = K.newValue(64, "a");
  ValueId C = K.newValue(64, "b");
  K.addInput(A, "a");
  K.addInput(C, "b");
  ValueId X = B.mulLow(A, C);
  ValueId Y = B.mulLow(C, A); // commuted duplicate
  CarryResult Sum = B.add(X, Y);
  K.addOutput(Sum.Value, "out");

  Kernel Ref = K;
  PassPipeline P;
  P.add(std::make_unique<CsePass>()).add(std::make_unique<DcePass>());
  PipelineStats S = P.run(K);
  ASSERT_NE(S.pass("cse"), nullptr);
  EXPECT_GE(S.pass("cse")->Changes, 1u);
  EXPECT_LT(K.Body.size(), Ref.Body.size());

  SeededRng R(0xC5ED);
  for (int I = 0; I < 20; ++I) {
    std::vector<Bignum> In = randomInputs(Ref, R);
    EXPECT_EQ(interpret(Ref, In), interpret(K, In));
  }
}

// Golden op counts: on the RNS decompose kernel the pruning pipeline's
// range analysis (fed by the lowering's WordBounds table) and CSE cut the
// unpruned lowering from 129 statements to 42 and from 26 multiplies to
// 14 — and stay semantically identical for genuine Barrett (q, mu)
// parameter pairs.
TEST(PassManager, PipelineShrinksRnsDecompose) {
  kernels::ScalarKernelSpec Spec;
  Spec.ContainerBits = 256;
  Spec.ModBits = 60;
  Kernel K = kernels::buildRnsDecomposeKernel(Spec, /*WideWords=*/4);

  LoweredKernel L = lowerToWords(K);
  ASSERT_FALSE(L.WordBounds.empty());
  OpStats Unpruned = countOps(L.K);
  EXPECT_EQ(Unpruned.Total, 129u);
  EXPECT_EQ(Unpruned.multiplies(), 26u);
  PipelineStats S = pruningPipeline().runLowered(L);
  EXPECT_TRUE(S.Converged);

  OpStats Pruned = countOps(L.K);
  EXPECT_EQ(Pruned.Total, 42u);
  EXPECT_EQ(Pruned.multiplies(), 14u);
  EXPECT_EQ(Pruned.Total, countOps(lowerWithPlan(K, PlanOptions()).K).Total)
      << "lowerWithPlan must run the same pipeline";
  EXPECT_GE(S.pass("range")->Changes, 1u);
  EXPECT_GE(S.pass("cse")->Changes, 1u);

  // The r0 < 3q style annotations are semantic preconditions: they hold
  // when gmu = floor(2^W / q) for an L-bit modulus, so the differential
  // check fixes a genuine pair and randomizes only the wide input.
  Bignum Q = field::nttPrime(60, 20);
  Bignum GMu = Bignum::powerOfTwo(256) / Q;
  SeededRng R(0xD1FF);
  auto MakeIn = [&](Rng &Rr) {
    std::vector<Bignum> In;
    for (const Param &P : K.inputs()) {
      if (P.Name == "q")
        In.push_back(Q);
      else if (P.Name == "gmu")
        In.push_back(GMu);
      else
        In.push_back(
            Bignum::random(Rr, Bignum::powerOfTwo(K.value(P.Id).KnownBits)));
    }
    return In;
  };
  expectLoweringEquivalence(K, L, R, 25, MakeIn);
}

// Same on the fused-NTT element kernel: range analysis kills carries of
// the butterfly's addmod chains, 50 statements down to 48.
TEST(PassManager, PipelineShrinksButterfly) {
  kernels::ScalarKernelSpec Spec;
  Spec.ContainerBits = 128;
  Spec.ModBits = 124;
  Kernel K = kernels::buildButterflyKernel(Spec);

  LoweredKernel L = lowerToWords(K);
  OpStats Unpruned = countOps(L.K);
  EXPECT_EQ(Unpruned.Total, 50u);
  EXPECT_TRUE(pruningPipeline().runLowered(L).Converged);
  OpStats Pruned = countOps(L.K);
  EXPECT_EQ(Pruned.Total, 48u);
  EXPECT_LE(Pruned.multiplies(), Unpruned.multiplies());
  EXPECT_LE(Pruned.addSubs(), Unpruned.addSubs());

  // Butterfly inputs must be reduced (x, y, w < q) and wq must be the
  // genuine Shoup companion of w.
  Bignum Q = Bignum::powerOfTwo(124) - Bignum(59);
  SeededRng R(0xBF17);
  auto MakeIn = [&](Rng &Rr) {
    std::vector<Bignum> In;
    for (const Param &P : K.inputs()) {
      if (P.Name == "q")
        In.push_back(Q);
      else if (P.Name == "wq")
        In.push_back(kernels::shoupCompanion(In.back(), Q, 128));
      else
        In.push_back(Bignum::random(Rr, Q));
    }
    return In;
  };
  expectLoweringEquivalence(K, L, R, 25, MakeIn);
}

// Dead-port elimination marks input words nothing reads; the emitters skip
// their loads and parameters while the port ABI keeps the slot.
TEST(PassManager, DeadPortWordsKeepAbiSlotsButSkipLoads) {
  Kernel K;
  K.Name = "deadhi";
  Builder B(K);
  ValueId A = K.newValue(128, "a");
  K.addInput(A, "a");
  HiLoResult Sp = B.split(A);
  (void)Sp.Hi; // only the low half reaches an output
  K.addOutput(Sp.Lo, "lo");

  LoweredKernel L = lowerToWords(K);
  PipelineStats S = pruningPipeline().runLowered(L);
  const PassStats *DP = S.pass("deadports");
  ASSERT_NE(DP, nullptr);
  EXPECT_GE(DP->Removed, 1u);

  ASSERT_EQ(L.Inputs.size(), 1u);
  const LoweredPort &Port = L.Inputs[0];
  ASSERT_EQ(Port.Words.size(), 2u);
  EXPECT_EQ(Port.storedWords(), 2u); // ABI unchanged
  EXPECT_TRUE(Port.isDeadWord(0));
  EXPECT_FALSE(Port.isDeadWord(1));

  codegen::EmittedKernel EK = codegen::emitC(L, codegen::CEmitOptions());
  EXPECT_NE(EK.Source.find("a[2]"), std::string::npos) << EK.Source;
  EXPECT_NE(EK.Source.find("= a[1]"), std::string::npos) << EK.Source;
  EXPECT_EQ(EK.Source.find("= a[0]"), std::string::npos) << EK.Source;

  std::string Fn =
      codegen::emitScalarFunction(L, 64, "k", "static", "uint64_t");
  std::string Args = codegen::portLoadArgs(Port, "a");
  // One live scalar parameter for the port, matching the one load arg.
  EXPECT_EQ(Args, "a[1]");

  SeededRng R(0xDEAD);
  expectLoweringEquivalence(K, L, R, 10,
                            [&](Rng &Rr) { return randomInputs(K, Rr); });
}

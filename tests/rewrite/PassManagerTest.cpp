//===- tests/rewrite/PassManagerTest.cpp - pass pipeline unit tests -------===//
//
// The composable pass manager: catalog and spec parsing, per-pass semantic
// preservation on randomized kernels, the non-convergence diagnostic, and
// golden op-count ablations showing what the extended passes (CSE,
// interval range analysis, dead-port elimination) buy on the
// representative kernel classes.
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

} // namespace

TEST(PassManager, CatalogAndSpecParsing) {
  std::vector<std::string> Names = passCatalog();
  ASSERT_EQ(Names.size(), 8u);
  for (const std::string &N : Names) {
    std::unique_ptr<Pass> P = createPass(N);
    ASSERT_NE(P, nullptr) << N;
    EXPECT_EQ(N, P->name());
  }
  EXPECT_EQ(createPass("nosuchpass"), nullptr);

  PassPipeline Def, DefEmpty, Ext, Two, Bad;
  std::string Err;
  EXPECT_TRUE(parsePipeline("default", Def, &Err));
  EXPECT_EQ(Def.size(), 5u);
  EXPECT_TRUE(parsePipeline("", DefEmpty, &Err));
  EXPECT_EQ(DefEmpty.size(), 5u);
  EXPECT_TRUE(parsePipeline("extended", Ext, &Err));
  EXPECT_EQ(Ext.size(), 8u);
  EXPECT_TRUE(parsePipeline("cse,dce", Two, &Err));
  EXPECT_EQ(Two.size(), 2u);
  EXPECT_FALSE(parsePipeline("constfold,bogus", Bad, &Err));
  EXPECT_NE(Err.find("bogus"), std::string::npos);
}

// Every catalog pass, run alone over a lowered random kernel, must
// preserve the original wide semantics — including the port-word
// substitution plumbing when the pass rebuilds the kernel.
TEST(PassManager, EachPassAlonePreservesSemantics) {
  SeededRng Gen(0xA55E5);
  for (const std::string &Name : passCatalog()) {
    for (int Round = 0; Round < 4; ++Round) {
      unsigned Width = Round % 2 ? 256 : 128;
      Kernel K = randomKernel(Width, 16 + 4 * Round, Gen);
      ASSERT_TRUE(verify(K).empty()) << printKernel(K);

      LowerOptions Opts;
      Opts.TargetWordBits = 64;
      LoweredKernel L = lowerToWords(K, Opts);
      PassPipeline P;
      P.add(createPass(Name));
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

// The three spellings of the default pipeline — the "" spec a default
// PlanOptions carries, "default", and the explicit five-pass list — must
// produce the same kernel, statement for statement.
TEST(PassManager, DefaultSpellingsAgreeStatementForStatement) {
  kernels::ScalarKernelSpec Spec;
  Spec.ContainerBits = 256;
  Spec.ModBits = 250;
  Kernel K = kernels::buildMulModKernel(Spec);

  LoweredKernel A = lowerWithPlan(K, PlanOptions());
  for (const char *Passes :
       {"default", "constfold,algebraic,knownbits,copyprop,dce"}) {
    PlanOptions Opts;
    Opts.Passes = Passes;
    LoweredKernel B = lowerWithPlan(K, Opts);
    EXPECT_EQ(printKernel(A.K), printKernel(B.K)) << Passes;
    ASSERT_EQ(A.Inputs.size(), B.Inputs.size());
    for (size_t I = 0; I < A.Inputs.size(); ++I)
      EXPECT_EQ(A.Inputs[I].Words, B.Inputs[I].Words) << Passes;
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
  std::string Err;
  ASSERT_TRUE(parsePipeline("cse,dce", P, &Err)) << Err;
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

// Golden op-count ablation: on the RNS decompose kernel the extended
// pipeline's range analysis (fed by the lowering's WordBounds table) and
// CSE must strictly reduce multiplies and add/subs versus the default
// pipeline — and stay semantically identical for genuine Barrett (q, mu)
// parameter pairs.
TEST(PassManager, ExtendedPipelineShrinksRnsDecompose) {
  kernels::ScalarKernelSpec Spec;
  Spec.ContainerBits = 256;
  Spec.ModBits = 60;
  Kernel K = kernels::buildRnsDecomposeKernel(Spec, /*WideWords=*/4);

  LoweredKernel Def = lowerToWords(K);
  LoweredKernel Ext = lowerToWords(K);
  ASSERT_FALSE(Ext.WordBounds.empty());
  PassPipeline PD = defaultPipeline();
  PassPipeline PE = extendedPipeline();
  PipelineStats SD = PD.runLowered(Def);
  PipelineStats SE = PE.runLowered(Ext);
  EXPECT_TRUE(SD.Converged);
  EXPECT_TRUE(SE.Converged);

  OpStats D = countOps(Def.K), E = countOps(Ext.K);
  EXPECT_LT(E.multiplies(), D.multiplies());
  EXPECT_LT(E.addSubs(), D.addSubs());
  EXPECT_LT(E.Total, D.Total);
  ASSERT_NE(SE.pass("range"), nullptr);
  EXPECT_GE(SE.pass("range")->Changes, 1u);
  ASSERT_NE(SE.pass("cse"), nullptr);
  EXPECT_GE(SE.pass("cse")->Changes, 1u);

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
  expectLoweringEquivalence(K, Def, R, 25, MakeIn);
  expectLoweringEquivalence(K, Ext, R, 25, MakeIn);
}

// Same ablation on the fused-NTT element kernel: the butterfly's addmod
// carry chains give the interval analysis strictly fewer statements.
TEST(PassManager, ExtendedPipelineShrinksButterfly) {
  kernels::ScalarKernelSpec Spec;
  Spec.ContainerBits = 128;
  Spec.ModBits = 124;
  Kernel K = kernels::buildButterflyKernel(Spec);

  LoweredKernel Def = lowerToWords(K);
  LoweredKernel Ext = lowerToWords(K);
  PassPipeline PD = defaultPipeline();
  PassPipeline PE = extendedPipeline();
  PD.runLowered(Def);
  PE.runLowered(Ext);

  OpStats D = countOps(Def.K), E = countOps(Ext.K);
  EXPECT_LT(E.Total, D.Total);
  EXPECT_LE(E.multiplies(), D.multiplies());
  EXPECT_LE(E.addSubs(), D.addSubs());

  // Butterfly inputs must be reduced (x, y, w < q) and mu must be the
  // genuine Barrett constant for q.
  Bignum Q = Bignum::powerOfTwo(124) - Bignum(59);
  Bignum Mu = Bignum::powerOfTwo(2 * 124 + 3) / Q;
  SeededRng R(0xBF17);
  auto MakeIn = [&](Rng &Rr) {
    std::vector<Bignum> In;
    for (const Param &P : K.inputs()) {
      if (P.Name == "q")
        In.push_back(Q);
      else if (P.Name == "mu")
        In.push_back(Mu);
      else
        In.push_back(Bignum::random(Rr, Q));
    }
    return In;
  };
  expectLoweringEquivalence(K, Ext, R, 25, MakeIn);
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
  PassPipeline P = extendedPipeline();
  PipelineStats S = P.runLowered(L);
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

// The PlanOptions pass-spec knob: "default" and "" name one plan, other
// specs extend the cache-key string, and lowerWithPlan honors the spec.
TEST(PassManager, PlanOptionsPassSpec) {
  PlanOptions A, B;
  B.Passes = "default";
  EXPECT_TRUE(A == B);
  EXPECT_EQ(A.str(), B.str());
  B.Passes = "extended";
  EXPECT_FALSE(A == B);
  EXPECT_NE(B.str().find("/p=extended"), std::string::npos);

  kernels::ScalarKernelSpec Spec;
  Spec.ContainerBits = 256;
  Spec.ModBits = 60;
  Kernel K = kernels::buildRnsDecomposeKernel(Spec, /*WideWords=*/4);
  LoweredKernel Def = lowerWithPlan(K, A);
  LoweredKernel Ext = lowerWithPlan(K, B);
  EXPECT_LT(countOps(Ext.K).Total, countOps(Def.K).Total);
}

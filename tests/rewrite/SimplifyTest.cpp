//===- tests/rewrite/SimplifyTest.cpp - folding and pruning --------------------===//
//
// The §4 non-power-of-two optimization and its supporting folds: constant
// propagation, algebraic identities, KnownBits strength reduction, copy
// propagation, and dead code elimination.
//
//===----------------------------------------------------------------------===//

#include "../TestUtil.h"

#include "ir/Builder.h"
#include "field/PrimeGen.h"
#include "kernels/ScalarKernels.h"
#include "rewrite/PassManager.h"
#include "rewrite/PlanOptions.h"
#include "rewrite/Stats.h"

#include <gtest/gtest.h>

using namespace moma;
using namespace moma::ir;
using namespace moma::rewrite;
using namespace moma::testutil;
using kernels::ScalarKernelSpec;
using mw::Bignum;

TEST(Simplify, FoldsConstantArithmetic) {
  Kernel K;
  K.Name = "f";
  Builder B(K);
  ValueId C1 = B.constant(64, Bignum(40));
  ValueId C2 = B.constant(64, Bignum(2));
  CarryResult S = B.add(C1, C2);
  HiLoResult P = B.mul(C1, C2);
  K.addOutput(S.Value, "s");
  K.addOutput(P.Lo, "p");
  defaultPipeline().run(K);
  // Everything folds to constants; only Const statements remain.
  for (const Stmt &St : K.Body)
    EXPECT_EQ(St.Kind, OpKind::Const);
  auto Out = interpret(K, {});
  EXPECT_EQ(Out[0], Bignum(42));
  EXPECT_EQ(Out[1], Bignum(80));
}

TEST(Simplify, AddWithZeroBecomesIdentity) {
  Kernel K;
  K.Name = "z";
  ValueId A = K.newValue(64, "a");
  K.addInput(A, "a");
  Builder B(K);
  ValueId Z = B.constantZero(64);
  CarryResult S = B.add(A, Z);
  K.addOutput(S.Value, "s");
  defaultPipeline().run(K);
  EXPECT_EQ(countOps(K).count(OpKind::Add), 0u);
  auto Out = interpret(K, {Bignum(123)});
  EXPECT_EQ(Out[0], Bignum(123));
}

TEST(Simplify, MulByZeroAndOne) {
  Kernel K;
  K.Name = "m";
  ValueId A = K.newValue(64, "a");
  K.addInput(A, "a");
  Builder B(K);
  HiLoResult P0 = B.mul(A, B.constantZero(64));
  HiLoResult P1 = B.mul(A, B.constant(64, Bignum(1)));
  K.addOutput(P0.Lo, "z");
  K.addOutput(P1.Lo, "o");
  defaultPipeline().run(K);
  EXPECT_EQ(countOps(K).multiplies(), 0u);
  auto Out = interpret(K, {Bignum(77)});
  EXPECT_TRUE(Out[0].isZero());
  EXPECT_EQ(Out[1], Bignum(77));
}

TEST(Simplify, KnownBitsKillsImpossibleCarry) {
  Kernel K;
  K.Name = "kb";
  // Both inputs < 2^30: the 64-bit add can never carry.
  ValueId A = K.newValue(64, "a", 30);
  K.addInput(A, "a");
  ValueId Bv = K.newValue(64, "b", 30);
  K.addInput(Bv, "b");
  Builder B(K);
  CarryResult S = B.add(A, Bv);
  // Make the carry observable: out = select(carry, a, b).
  K.addOutput(B.select(S.Carry, A, Bv), "o");
  K.addOutput(S.Value, "s");
  defaultPipeline().run(K);
  EXPECT_EQ(countOps(K).count(OpKind::Select), 0u)
      << "carry is provably zero, select must fold to its false arm";
  auto Out = interpret(K, {Bignum(5), Bignum(9)});
  EXPECT_EQ(Out[0], Bignum(9));
}

TEST(Simplify, KnownBitsTurnsMulIntoMulLow) {
  Kernel K;
  K.Name = "ml";
  ValueId A = K.newValue(64, "a", 30);
  K.addInput(A, "a");
  ValueId Bv = K.newValue(64, "b", 30);
  K.addInput(Bv, "b");
  Builder B(K);
  HiLoResult P = B.mul(A, Bv);
  K.addOutput(P.Lo, "lo");
  K.addOutput(B.select(B.eq(P.Hi, B.constantZero(64)), A, Bv), "probe");
  defaultPipeline().run(K);
  EXPECT_EQ(countOps(K).count(OpKind::Mul), 0u);
  EXPECT_EQ(countOps(K).count(OpKind::MulLow), 1u);
  // hi == 0 folds true, probe = a.
  auto Out = interpret(K, {Bignum(1000), Bignum(2000)});
  EXPECT_EQ(Out[0], Bignum(2000000));
  EXPECT_EQ(Out[1], Bignum(1000));
}

TEST(Simplify, ShrPastKnownBitsIsZero) {
  Kernel K;
  K.Name = "sh";
  ValueId A = K.newValue(64, "a", 10);
  K.addInput(A, "a");
  Builder B(K);
  K.addOutput(B.shr(A, 20), "o"); // a < 2^10, so a >> 20 == 0
  defaultPipeline().run(K);
  EXPECT_EQ(countOps(K).count(OpKind::Shr), 0u);
  EXPECT_TRUE(interpret(K, {Bignum(1023)})[0].isZero());
}

TEST(Simplify, DeadCodeIsRemoved) {
  Kernel K;
  K.Name = "dce";
  ValueId A = K.newValue(64, "a");
  K.addInput(A, "a");
  Builder B(K);
  // Dead: a full multiply whose results are unused.
  B.mul(A, A);
  CarryResult S = B.add(A, A);
  K.addOutput(S.Value, "s");
  PipelineStats Stats = defaultPipeline().run(K);
  EXPECT_EQ(countOps(K).multiplies(), 0u);
  EXPECT_GT(Stats.pass("dce")->Removed, 0u);
}

TEST(Simplify, CopyChainsCollapse) {
  Kernel K;
  K.Name = "cp";
  ValueId A = K.newValue(64, "a");
  K.addInput(A, "a");
  Builder B(K);
  ValueId C = B.copy(B.copy(B.copy(A)));
  K.addOutput(C, "o");
  defaultPipeline().run(K);
  EXPECT_EQ(countOps(K).count(OpKind::Copy), 0u);
  EXPECT_EQ(K.outputs()[0].Id, K.inputs()[0].Id)
      << "output rebinds to the input value";
}

TEST(Simplify, SelectIdentities) {
  Kernel K;
  K.Name = "sel";
  ValueId C = K.newValue(1, "c");
  K.addInput(C, "c");
  ValueId A = K.newValue(64, "a");
  K.addInput(A, "a");
  Builder B(K);
  K.addOutput(B.select(C, A, A), "same");
  K.addOutput(B.select(B.constant(1, Bignum(1)), A, B.constantZero(64)),
              "true");
  defaultPipeline().run(K);
  EXPECT_EQ(countOps(K).count(OpKind::Select), 0u);
  auto Out = interpret(K, {Bignum(0), Bignum(9)});
  EXPECT_EQ(Out[0], Bignum(9));
  EXPECT_EQ(Out[1], Bignum(9));
}

TEST(Simplify, ComparisonIdentities) {
  Kernel K;
  K.Name = "cmp";
  ValueId A = K.newValue(64, "a");
  K.addInput(A, "a");
  Builder B(K);
  ValueId Lt = B.lt(A, A);
  ValueId Eq = B.eq(A, A);
  ValueId LtZ = B.lt(A, B.constantZero(64));
  K.addOutput(B.select(Lt, A, B.constantZero(64)), "o1");
  K.addOutput(B.select(Eq, A, B.constantZero(64)), "o2");
  K.addOutput(B.select(LtZ, A, B.constantZero(64)), "o3");
  defaultPipeline().run(K);
  EXPECT_EQ(countOps(K).count(OpKind::Lt), 0u);
  EXPECT_EQ(countOps(K).count(OpKind::Eq), 0u);
  auto Out = interpret(K, {Bignum(5)});
  EXPECT_TRUE(Out[0].isZero()); // a < a false -> 0 arm
  EXPECT_EQ(Out[1], Bignum(5)); // a == a true -> a
  EXPECT_TRUE(Out[2].isZero()); // a < 0 false
}

TEST(Simplify, PreservesSemanticsOnLoweredKernels) {
  // Fuzz guard: simplification must never change lowered-kernel results.
  for (unsigned Container : {128u, 256u}) {
    ScalarKernelSpec Spec{Container, 0};
    Kernel K = kernels::buildButterflyKernel(Spec);
    LoweredKernel L = lowerToWords(K, {});
    LoweredKernel LS = lowerWithPlan(K, PlanOptions());
    Bignum Q = field::nttPrime(Spec.modBits(), 8, 77);
    Bignum Mu = Bignum::powerOfTwo(2 * Spec.modBits() + 3) / Q;
    Rng R(4000 + Container);
    for (int I = 0; I < 40; ++I) {
      std::vector<Bignum> In = {Bignum::random(R, Q), Bignum::random(R, Q),
                                Bignum::random(R, Q), Q, Mu};
      EXPECT_EQ(interpretLowered(L, In), interpretLowered(LS, In));
    }
  }
}

TEST(Simplify, NonPowerOfTwoPruningShrinksKernels) {
  // The paper's Eq. 35/36 claim quantified: a 380-bit modulus lowered in a
  // 512-bit container must need fewer word operations than a 508-bit one.
  ScalarKernelSpec Full{512, 0};    // 508-bit modulus
  ScalarKernelSpec Narrow{512, 380}; // 380-bit modulus, 2 words pruned
  LoweredKernel LFull =
      lowerWithPlan(kernels::buildMulModKernel(Full), PlanOptions());
  LoweredKernel LNarrow =
      lowerWithPlan(kernels::buildMulModKernel(Narrow), PlanOptions());
  OpStats F = countOps(LFull.K), N = countOps(LNarrow.K);
  EXPECT_LT(N.Total, F.Total);
  EXPECT_LT(N.multiplies(), F.multiplies())
      << "pruning must remove whole word multiplies, not just moves";
}

TEST(Simplify, PruningSavingsGrowWithPadding) {
  // 753-bit modulus in a 1024 container saves more than 1020-bit.
  ScalarKernelSpec Full{1024, 0};
  ScalarKernelSpec Narrow{1024, 753};
  LoweredKernel LFull =
      lowerWithPlan(kernels::buildMulModKernel(Full), PlanOptions());
  LoweredKernel LNarrow =
      lowerWithPlan(kernels::buildMulModKernel(Narrow), PlanOptions());
  double Ratio = double(countOps(LNarrow.K).Total) /
                 double(countOps(LFull.K).Total);
  EXPECT_LT(Ratio, 0.8) << "753/1024 should prune well over 20% of the ops";
}

TEST(Simplify, FixpointTerminates) {
  ScalarKernelSpec Spec{256, 0};
  Kernel K = kernels::buildMulModKernel(Spec);
  LoweredKernel L = lowerWithPlan(K, PlanOptions());
  // A second run must be a no-op.
  Kernel Before = L.K;
  PipelineStats S = defaultPipeline().run(L.K);
  EXPECT_EQ(S.pass("constfold")->Changes + S.pass("algebraic")->Changes +
                S.pass("knownbits")->Changes,
            0u);
  EXPECT_EQ(L.K.size(), Before.size());
}

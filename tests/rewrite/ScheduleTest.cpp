//===- tests/rewrite/ScheduleTest.cpp - pressure analysis and scheduling -------===//

#include "../TestUtil.h"

#include "ir/Builder.h"
#include "field/PrimeGen.h"
#include "kernels/ScalarKernels.h"
#include "rewrite/Schedule.h"
#include "rewrite/PlanOptions.h"

#include <gtest/gtest.h>

using namespace moma;
using namespace moma::ir;
using namespace moma::rewrite;
using namespace moma::testutil;
using mw::Bignum;

TEST(Schedule, PressureOfTinyKernel) {
  // in a, b -> (hi, lo) = a*b; out lo. Peak: a, b, hi, lo live at the mul.
  Kernel K;
  ValueId A = K.newValue(64, "a");
  K.addInput(A, "a");
  ValueId B = K.newValue(64, "b");
  K.addInput(B, "b");
  Builder Bld(K);
  HiLoResult P = Bld.mul(A, B);
  K.addOutput(P.Lo, "lo");
  PressureStats S = measurePressure(K);
  EXPECT_EQ(S.MaxLiveWords, 4u);
  EXPECT_EQ(S.MaxLive, 4u);
}

TEST(Schedule, WideValuesCountMultipleWords) {
  Kernel K;
  ValueId A = K.newValue(256, "a");
  K.addInput(A, "a");
  Builder Bld(K);
  K.addOutput(Bld.copy(A), "o");
  // a (4 words) + copy (4 words) live at the copy.
  EXPECT_EQ(measurePressure(K).MaxLiveWords, 8u);
  // At 32-bit machine words the same kernel needs twice the registers.
  EXPECT_EQ(measurePressure(K, 32).MaxLiveWords, 16u);
}

TEST(Schedule, UnusedInputsAreNotLive) {
  Kernel K;
  ValueId A = K.newValue(64, "a");
  K.addInput(A, "a");
  ValueId B = K.newValue(64, "b"); // never used
  K.addInput(B, "b");
  Builder Bld(K);
  K.addOutput(Bld.copy(A), "o");
  EXPECT_EQ(measurePressure(K).MaxLiveWords, 2u);
}

TEST(Schedule, SchedulerPreservesSemantics) {
  for (unsigned Container : {128u, 256u}) {
    kernels::ScalarKernelSpec Spec{Container, 0};
    Kernel K = kernels::buildButterflyKernel(Spec);
    LoweredKernel L = lowerWithPlan(K, PlanOptions());
    Kernel Scheduled = L.K;
    scheduleForPressure(Scheduled);
    ASSERT_TRUE(verify(Scheduled).empty())
        << "scheduling must keep def-before-use";

    // Same inputs, same outputs.
    Bignum Q = field::nttPrime(Spec.modBits(), 8, 21);
    Bignum Mu = Bignum::powerOfTwo(2 * Spec.modBits() + 3) / Q;
    Rng R(1300 + Container);
    for (int I = 0; I < 25; ++I) {
      std::vector<Bignum> WordIn;
      std::vector<Bignum> In = {Bignum::random(R, Q), Bignum::random(R, Q),
                                Bignum::random(R, Q), Q, Mu};
      for (size_t P = 0; P < L.Inputs.size(); ++P) {
        auto Words = decomposePort(L.Inputs[P], In[P]);
        WordIn.insert(WordIn.end(), Words.begin(), Words.end());
      }
      EXPECT_EQ(interpret(L.K, WordIn), interpret(Scheduled, WordIn));
    }
  }
}

TEST(Schedule, NeverWorsensLoweredKernels) {
  // The lowering emits operation chains depth-first, so its order is
  // already close to optimal; the scheduler must at worst keep it.
  for (unsigned Container : {128u, 256u, 512u}) {
    kernels::ScalarKernelSpec Spec{Container, 0};
    LoweredKernel L =
        lowerWithPlan(kernels::buildMulModKernel(Spec), PlanOptions());
    PressureStats Before = measurePressure(L.K);
    PressureStats After = scheduleForPressure(L.K);
    EXPECT_LE(After.MaxLiveWords, Before.MaxLiveWords) << Container;
  }
}

TEST(Schedule, ImprovesBreadthFirstKernels) {
  // A deliberately breadth-first kernel: eight shifted copies of one
  // input all materialized before any of them is consumed. Depth-first
  // scheduling interleaves producers and the xor chain.
  Kernel K;
  ValueId A = K.newValue(64, "a");
  K.addInput(A, "a");
  Builder Bld(K);
  std::vector<ValueId> Vs;
  for (unsigned I = 1; I <= 8; ++I)
    Vs.push_back(Bld.shl(A, I));
  ValueId Acc = Vs[0];
  for (unsigned I = 1; I < 8; ++I)
    Acc = Bld.bitXor(Acc, Vs[I]);
  K.addOutput(Acc, "o");

  PressureStats Before = measurePressure(K);
  EXPECT_EQ(Before.MaxLiveWords, 9u); // 8 shifts + the first xor def (a dies at the last shl)
  PressureStats After = scheduleForPressure(K);
  EXPECT_LT(After.MaxLiveWords, Before.MaxLiveWords);
  ASSERT_TRUE(verify(K).empty());
  // Semantics preserved.
  Bignum X = Bignum::fromHex("0x123456789abcdef");
  Bignum Expect;
  {
    Bignum Acc2 = (X << 1).truncate(64);
    for (unsigned I = 2; I <= 8; ++I) {
      Bignum V = (X << I).truncate(64);
      Acc2 = Bignum(Acc2.low64() ^ V.low64());
    }
    Expect = Acc2;
  }
  EXPECT_EQ(interpret(K, {X})[0], Expect);
}

TEST(Schedule, PressureGrowsLinearlyWithWidth) {
  // The butterfly's live set is proportional to the element width: about
  // 2.1x per container doubling measured. At 768 bits the kernel alone
  // holds ~143 live words — over half the 255-register CUDA budget
  // before the compiler's own temporaries, the mechanism behind the
  // paper's large-width compile troubles (5.3).
  unsigned Prev = 0;
  for (unsigned Container : {128u, 256u, 512u, 1024u}) {
    kernels::ScalarKernelSpec Spec{Container, 0};
    LoweredKernel L =
        lowerWithPlan(kernels::buildButterflyKernel(Spec), PlanOptions());
    unsigned Peak = measurePressure(L.K).MaxLiveWords;
    if (Prev) {
      EXPECT_GE(Peak, 2 * Prev - 4) << Container;
    }
    Prev = Peak;
  }
  EXPECT_GE(Prev, 128u) << "1024-bit butterfly live set";
  // Halving the machine word doubles the pressure (paper 7 small-word
  // hardware pays twice over).
  kernels::ScalarKernelSpec Spec{256, 0};
  PlanOptions Opts;
  Opts.TargetWordBits = 32;
  LoweredKernel L32 = lowerWithPlan(kernels::buildButterflyKernel(Spec), Opts);
  LoweredKernel L64 =
      lowerWithPlan(kernels::buildButterflyKernel(Spec), PlanOptions());
  EXPECT_GT(measurePressure(L32.K, 32).MaxLiveWords,
            measurePressure(L64.K, 64).MaxLiveWords);
}

TEST(Schedule, IdempotentOnScheduledKernel) {
  kernels::ScalarKernelSpec Spec{256, 0};
  LoweredKernel L =
      lowerWithPlan(kernels::buildMulModKernel(Spec), PlanOptions());
  PressureStats Once = scheduleForPressure(L.K);
  PressureStats Twice = scheduleForPressure(L.K);
  EXPECT_EQ(Twice.MaxLiveWords, Once.MaxLiveWords);
}

//===- tests/rewrite/LowerTest.cpp - recursive lowering -----------------------===//
//
// End-to-end tests of lowerToWords: the full recursion of §3.2 ("multi-word
// modular arithmetic via recursion") across container widths, moduli,
// multiplication rules, target word widths, and kernels.
//
//===----------------------------------------------------------------------===//

#include "../TestUtil.h"

#include "field/PrimeGen.h"
#include "kernels/BlasKernels.h"
#include "kernels/ScalarKernels.h"
#include "rewrite/PlanOptions.h"
#include "rewrite/Stats.h"

#include <gtest/gtest.h>

using namespace moma;
using namespace moma::ir;
using namespace moma::rewrite;
using namespace moma::testutil;
using kernels::ScalarKernelSpec;
using mw::Bignum;

namespace {

/// Input generator for modular kernels: reduced a/b (and x/y), the real
/// modulus, and its Barrett mu.
struct FieldInputs {
  Bignum Q, Mu;
  unsigned NumData;
  explicit FieldInputs(unsigned MBits, unsigned NumData = 2,
                       std::uint64_t Seed = 2025)
      : NumData(NumData) {
    Q = field::nttPrime(MBits, 8, Seed);
    Mu = Bignum::powerOfTwo(2 * MBits + 3) / Q;
  }
  std::vector<Bignum> operator()(Rng &R) const {
    std::vector<Bignum> In;
    for (unsigned I = 0; I < NumData; ++I)
      In.push_back(Bignum::random(R, Q));
    In.push_back(Q);
    In.push_back(Mu);
    return In;
  }
  /// For kernels without a mu port (addmod/submod).
  std::vector<Bignum> noMu(Rng &R) const {
    std::vector<Bignum> In;
    for (unsigned I = 0; I < NumData; ++I)
      In.push_back(Bignum::random(R, Q));
    In.push_back(Q);
    return In;
  }
  /// For the butterfly: x, y, w, then w's Shoup companion and q.
  std::vector<Bignum> butterfly(Rng &R, unsigned ContainerBits) const {
    std::vector<Bignum> In;
    for (unsigned I = 0; I < 3; ++I)
      In.push_back(Bignum::random(R, Q));
    In.push_back(kernels::shoupCompanion(In[2], Q, ContainerBits));
    In.push_back(Q);
    return In;
  }
};

struct LowerCase {
  unsigned ContainerBits;
  unsigned ModBits; // 0 -> container - 4
  unsigned TargetBits;
  mw::MulAlgorithm Alg;
  bool Simplify;
};

std::string caseName(const testing::TestParamInfo<LowerCase> &Info) {
  const LowerCase &C = Info.param;
  std::string S = "c" + std::to_string(C.ContainerBits) + "_m" +
                  std::to_string(C.ModBits ? C.ModBits
                                           : C.ContainerBits - 4) +
                  "_w" + std::to_string(C.TargetBits) +
                  (C.Alg == mw::MulAlgorithm::Karatsuba ? "_kara" : "_school") +
                  (C.Simplify ? "_simplified" : "_raw");
  return S;
}

class LowerSweep : public testing::TestWithParam<LowerCase> {};

} // namespace

TEST_P(LowerSweep, MulModEquivalence) {
  const LowerCase &C = GetParam();
  ScalarKernelSpec Spec{C.ContainerBits, C.ModBits};
  Kernel K = kernels::buildMulModKernel(Spec);
  PlanOptions Opts;
  Opts.TargetWordBits = C.TargetBits;
  Opts.MulAlg = C.Alg;
  Opts.Prune = C.Simplify;
  LoweredKernel L = lowerWithPlan(K, Opts);
  EXPECT_LE(L.K.maxBits(), C.TargetBits);
  FieldInputs Gen(Spec.modBits(), 2, 33);
  Rng R(1000 + C.ContainerBits + C.TargetBits);
  int Iters = C.ContainerBits >= 512 ? 25 : 80;
  expectLoweringEquivalence(K, L, R, Iters, std::cref(Gen));
}

TEST_P(LowerSweep, ButterflyEquivalence) {
  const LowerCase &C = GetParam();
  ScalarKernelSpec Spec{C.ContainerBits, C.ModBits};
  Kernel K = kernels::buildButterflyKernel(Spec);
  PlanOptions Opts;
  Opts.TargetWordBits = C.TargetBits;
  Opts.MulAlg = C.Alg;
  Opts.Prune = C.Simplify;
  LoweredKernel L = lowerWithPlan(K, Opts);
  FieldInputs Gen(Spec.modBits(), 3, 34);
  Rng R(2000 + C.ContainerBits + C.TargetBits);
  int Iters = C.ContainerBits >= 512 ? 20 : 60;
  expectLoweringEquivalence(K, L, R, Iters, [&](Rng &Rr) {
    return Gen.butterfly(Rr, C.ContainerBits);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Widths, LowerSweep,
    testing::Values(
        // Power-of-two containers, one to four recursion rounds.
        LowerCase{128, 0, 64, mw::MulAlgorithm::Schoolbook, false},
        LowerCase{128, 0, 64, mw::MulAlgorithm::Schoolbook, true},
        LowerCase{128, 0, 64, mw::MulAlgorithm::Karatsuba, true},
        LowerCase{256, 0, 64, mw::MulAlgorithm::Schoolbook, true},
        LowerCase{256, 0, 64, mw::MulAlgorithm::Karatsuba, true},
        LowerCase{512, 0, 64, mw::MulAlgorithm::Schoolbook, true},
        LowerCase{512, 0, 64, mw::MulAlgorithm::Karatsuba, false},
        LowerCase{1024, 0, 64, mw::MulAlgorithm::Schoolbook, true},
        // Non-power-of-two ZKP-style widths in power-of-two containers
        // (381-bit BLS-like in 512, 753-bit MNT-like in 1024).
        LowerCase{512, 381, 64, mw::MulAlgorithm::Schoolbook, true},
        LowerCase{512, 377, 64, mw::MulAlgorithm::Karatsuba, true},
        LowerCase{1024, 753, 64, mw::MulAlgorithm::Schoolbook, true},
        // FHE-style 116-bit modulus in a 128 container (paper 5.2).
        LowerCase{128, 116, 64, mw::MulAlgorithm::Schoolbook, true},
        // Small machine words: the paper's §7 direction (16-bit words on
        // AI hardware) — deep recursion: 256 -> 16 is four rounds.
        LowerCase{128, 0, 32, mw::MulAlgorithm::Schoolbook, true},
        LowerCase{256, 0, 16, mw::MulAlgorithm::Schoolbook, true},
        LowerCase{256, 0, 16, mw::MulAlgorithm::Karatsuba, true}),
    caseName);

TEST(Lower, RoundsMatchLog2Ratio) {
  for (unsigned Container : {128u, 256u, 512u, 1024u}) {
    ScalarKernelSpec Spec{Container, 0};
    Kernel K = kernels::buildAddModKernel(Spec);
    LoweredKernel L = lowerToWords(K, {});
    unsigned ExpectRounds = 0;
    for (unsigned W = Container; W > 64; W /= 2)
      ++ExpectRounds;
    EXPECT_EQ(L.Rounds, ExpectRounds) << Container;
  }
}

TEST(Lower, PortWordCountsFollowKnownBits) {
  // 380-bit modulus in a 512 container: 8 container words, 6 stored.
  ScalarKernelSpec Spec{512, 380};
  Kernel K = kernels::buildMulModKernel(Spec);
  LoweredKernel L = lowerToWords(K, {});
  ASSERT_EQ(L.Inputs.size(), 4u);
  for (const LoweredPort &P : L.Inputs) {
    EXPECT_EQ(P.Words.size(), 8u);
    unsigned NonConst = 0;
    for (bool Z : P.IsConstZero)
      NonConst += !Z;
    EXPECT_EQ(NonConst, P.storedWords()) << P.Name;
  }
  EXPECT_EQ(L.Inputs[0].storedWords(), 6u);  // a: 380 bits
  EXPECT_EQ(L.Inputs[3].storedWords(), 6u);  // mu: 384 bits
  EXPECT_EQ(L.Outputs[0].storedWords(), 6u); // c < q
}

TEST(Lower, PrunedWordsAreTheTopOnes) {
  ScalarKernelSpec Spec{512, 380};
  Kernel K = kernels::buildAddModKernel(Spec);
  LoweredKernel L = lowerToWords(K, {});
  const LoweredPort &A = L.Inputs[0];
  // Words are msb-first: exactly the first two are statically zero.
  EXPECT_TRUE(A.IsConstZero[0]);
  EXPECT_TRUE(A.IsConstZero[1]);
  for (size_t I = 2; I < 8; ++I)
    EXPECT_FALSE(A.IsConstZero[I]);
}

TEST(Lower, AllBlasOpsLowerAndAgree) {
  for (auto Op : {kernels::BlasOp::VAdd, kernels::BlasOp::VSub,
                  kernels::BlasOp::VMul, kernels::BlasOp::Axpy}) {
    ScalarKernelSpec Spec{256, 0};
    Kernel K = kernels::buildBlasElementKernel(Op, Spec);
    LoweredKernel L = kernels::generateBlasKernel(Op, Spec);
    bool HasMu = Op == kernels::BlasOp::VMul || Op == kernels::BlasOp::Axpy;
    unsigned NumData = Op == kernels::BlasOp::Axpy ? 3u : 2u;
    FieldInputs Gen(Spec.modBits(), NumData, 35);
    Rng R(3000 + static_cast<unsigned>(Op));
    expectLoweringEquivalence(
        K, L, R, 40, [&](Rng &Rr) { return HasMu ? Gen(Rr) : Gen.noMu(Rr); });
  }
}

TEST(Lower, StatementCountGrowsWithRecursionDepth) {
  // The paper: "complexity increases significantly as we recursively
  // break down the data type".
  size_t Prev = 0;
  for (unsigned Container : {128u, 256u, 512u}) {
    ScalarKernelSpec Spec{Container, 0};
    Kernel K = kernels::buildMulModKernel(Spec);
    LoweredKernel L = lowerToWords(K, {});
    EXPECT_GT(L.K.size(), 3 * Prev) << "superlinear growth expected";
    Prev = L.K.size();
  }
}

TEST(Lower, RejectsBadTargetWidth) {
  ScalarKernelSpec Spec{128, 0};
  Kernel K = kernels::buildAddModKernel(Spec);
  LowerOptions Opts;
  Opts.TargetWordBits = 48; // not a power of two
  EXPECT_DEATH((void)lowerToWords(K, Opts), "power of two");
}

TEST(Lower, AlreadyNativeKernelIsUntouched) {
  ScalarKernelSpec Spec{64, 52};
  Kernel K = kernels::buildMulModKernel(Spec);
  LoweredKernel L = lowerToWords(K, {});
  EXPECT_EQ(L.Rounds, 0u);
  EXPECT_EQ(L.K.size(), K.size());
  ASSERT_EQ(L.Inputs[0].Words.size(), 1u);
}

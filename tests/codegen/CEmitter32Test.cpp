//===- tests/codegen/CEmitter32Test.cpp - 32-bit machine words -----------------===//
//
// The paper's §7 direction: MoMA on hardware with small machine words.
// Lower to ω₀ = 32, emit C over uint32_t (double word uint64_t), compile,
// and compare against the interpreter — proving the rewrite system and
// emitter are genuinely word-width-generic.
//
//===----------------------------------------------------------------------===//

#include "../TestUtil.h"

#include "codegen/CEmitter.h"
#include "field/PrimeGen.h"
#include "jit/HostJit.h"
#include "kernels/ScalarKernels.h"
#include "rewrite/PlanOptions.h"

#include <gtest/gtest.h>

using namespace moma;
using namespace moma::codegen;
using namespace moma::rewrite;
using namespace moma::testutil;
using mw::Bignum;

TEST(CEmitter32, MulMod128OnThirtyTwoBitWords) {
  kernels::ScalarKernelSpec Spec{128, 0};
  ir::Kernel K = kernels::buildMulModKernel(Spec);
  PlanOptions Opts;
  Opts.TargetWordBits = 32;
  LoweredKernel L = lowerWithPlan(K, Opts);
  EXPECT_EQ(L.Rounds, 2u);
  ASSERT_EQ(L.Inputs[0].Words.size(), 4u) << "four 32-bit words per input";

  CEmitOptions EOpts;
  EOpts.WordBits = 32;
  EmittedKernel EK = emitC(L, EOpts);
  EXPECT_NE(EK.Source.find("uint32_t"), std::string::npos);
  EXPECT_NE(EK.Source.find("uint64_t"), std::string::npos)
      << "uint64_t is the 32-bit world's double word";
  EXPECT_EQ(EK.Source.find("__int128"), std::string::npos)
      << "no 128-bit type needed at omega0 = 32";

  jit::HostJit Jit;
  std::shared_ptr<jit::JitModule> M = Jit.load(EK.Source);
  ASSERT_NE(M, nullptr) << Jit.error();
  using Fn = void (*)(std::uint32_t *, const std::uint32_t *,
                      const std::uint32_t *, const std::uint32_t *,
                      const std::uint32_t *);
  auto MulMod = M->symbolAs<Fn>(EK.Symbol);
  ASSERT_NE(MulMod, nullptr) << "symbol '" << EK.Symbol << "' not found in "
                             << M->soPath();

  Bignum Q = field::nttPrime(124, 8, 99);
  Bignum Mu = Bignum::powerOfTwo(2 * 124 + 3) / Q;
  auto To32 = [](const Bignum &V, unsigned Count) {
    std::vector<std::uint32_t> Out(Count);
    for (unsigned I = 0; I < Count; ++I)
      Out[I] = static_cast<std::uint32_t>(
          (V >> ((Count - 1 - I) * 32)).low64());
    return Out;
  };

  Rng R(0x32);
  for (int I = 0; I < 50; ++I) {
    Bignum A = Bignum::random(R, Q), B = Bignum::random(R, Q);
    auto AW = To32(A, 4), BW = To32(B, 4), QW = To32(Q, 4), MuW = To32(Mu, 4);
    std::uint32_t CW[4];
    MulMod(CW, AW.data(), BW.data(), QW.data(), MuW.data());
    Bignum Got;
    for (unsigned W = 0; W < 4; ++W)
      Got = (Got << 32) + Bignum(CW[W]);
    ASSERT_EQ(Got, (A * B) % Q) << "iteration " << I;
  }
}

TEST(CEmitter32, RejectsMismatchedWordWidth) {
  kernels::ScalarKernelSpec Spec{128, 0};
  LoweredKernel L = lowerToWords(kernels::buildAddModKernel(Spec), {});
  CEmitOptions EOpts;
  EOpts.WordBits = 32; // kernel was lowered to 64
  EXPECT_DEATH((void)emitC(L, EOpts), "not lowered");
}

TEST(CEmitter32, SixteenBitWordsEmit) {
  // Deep recursion (128 -> 16 is three rounds) still emits valid-looking
  // code; uint32_t is the double word.
  kernels::ScalarKernelSpec Spec{128, 0};
  PlanOptions Opts;
  Opts.TargetWordBits = 16;
  LoweredKernel L = lowerWithPlan(kernels::buildAddModKernel(Spec), Opts);
  CEmitOptions EOpts;
  EOpts.WordBits = 16;
  EmittedKernel EK = emitC(L, EOpts);
  EXPECT_NE(EK.Source.find("uint16_t"), std::string::npos);
  EXPECT_NE(EK.Source.find("const uint16_t a[8]"), std::string::npos)
      << "eight 16-bit words per 124-bit-known input";
}

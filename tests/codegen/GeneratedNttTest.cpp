//===- tests/codegen/GeneratedNttTest.cpp - end-to-end generated pipeline ------===//
//
// The strongest integration statement in the suite: emit the butterfly
// through the full pipeline (build -> lower -> simplify -> emit C), load
// it through the host-JIT runtime (src/jit/HostJit.h), and drive a
// complete 64-point NTT through nothing but the generated function — then
// compare against the engine and the reference DFT.
//
//===----------------------------------------------------------------------===//

#include "codegen/CEmitter.h"
#include "field/PrimeField.h"
#include "jit/HostJit.h"
#include "kernels/NttKernels.h"
#include "ntt/Ntt.h"
#include "ntt/ReferenceDft.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace moma;
using namespace moma::codegen;
using field::PrimeField;
using mw::Bignum;

namespace {

/// moma_ntt_butterfly_256: (xo[4], yo[4], x..., y..., w..., wq..., q...)
using ButterflyFn = void (*)(std::uint64_t *, std::uint64_t *,
                             const std::uint64_t *, const std::uint64_t *,
                             const std::uint64_t *, const std::uint64_t *,
                             const std::uint64_t *);

/// Word marshalling: Bignum <-> msb-first stored words.
std::vector<std::uint64_t> toWordsMsbFirst(const Bignum &V, unsigned Count) {
  std::vector<std::uint64_t> Out(Count);
  for (unsigned I = 0; I < Count; ++I)
    Out[I] = (V >> ((Count - 1 - I) * 64)).low64();
  return Out;
}

Bignum fromWordsMsbFirst(const std::uint64_t *W, unsigned Count) {
  Bignum Acc;
  for (unsigned I = 0; I < Count; ++I)
    Acc = (Acc << 64) + Bignum(W[I]);
  return Acc;
}

} // namespace

TEST(GeneratedNtt, FullTransformThroughEmittedButterfly) {
  // Generate and compile the 256-bit butterfly.
  kernels::ScalarKernelSpec Spec{256, 0};
  rewrite::LoweredKernel L = kernels::generateButterflyKernel(Spec);
  EmittedKernel EK = emitC(L);
  ASSERT_EQ(EK.Ports.size(), 7u); // xo yo | x y w wq q

  jit::HostJitOptions JitOpts;
  JitOpts.Flags = "-O2";
  jit::HostJit Jit(JitOpts);
  std::shared_ptr<jit::JitModule> M = Jit.load(EK.Source);
  ASSERT_NE(M, nullptr) << Jit.error();
  auto Butterfly = M->symbolAs<ButterflyFn>(EK.Symbol);
  ASSERT_NE(Butterfly, nullptr) << "symbol '" << EK.Symbol
                                << "' not found in " << M->soPath();

  // Field and plan supply modulus and twiddles.
  auto F = PrimeField<4>::evaluationField(12);
  const size_t N = 64;
  ntt::NttPlan<4> Plan(F, N);
  auto QW = toWordsMsbFirst(F.modulusBig(), 4);

  // Random input; engine result as the oracle.
  Rng R(0x6E77);
  std::vector<PrimeField<4>::Element> Engine(N);
  std::vector<Bignum> X(N);
  for (size_t I = 0; I < N; ++I) {
    X[I] = Bignum::random(R, F.modulusBig());
    Engine[I] = F.fromBignum(X[I]);
  }
  Plan.forward(Engine.data());

  // Drive the same transform through the generated butterfly only:
  // bit-reverse, then the standard stage loops calling the JIT-loaded
  // function for every butterfly.
  unsigned LogN = 6;
  for (size_t I = 0; I < N; ++I) {
    size_t Rev = 0;
    for (unsigned B = 0; B < LogN; ++B)
      Rev |= ((I >> B) & 1) << (LogN - 1 - B);
    if (I < Rev)
      std::swap(X[I], X[Rev]);
  }
  Bignum OmegaBig = F.nthRoot(N).toBignum();
  for (size_t Len = 1; Len < N; Len <<= 1) {
    Bignum WLen = OmegaBig.powMod(Bignum(N / (2 * Len)), F.modulusBig());
    for (size_t I0 = 0; I0 < N; I0 += 2 * Len) {
      Bignum Tw(1);
      for (size_t J = 0; J < Len; ++J) {
        auto XW = toWordsMsbFirst(X[I0 + J], 4);
        auto YW = toWordsMsbFirst(X[I0 + J + Len], 4);
        auto TwW = toWordsMsbFirst(Tw, 4);
        auto TwQW = toWordsMsbFirst(
            kernels::shoupCompanion(Tw, F.modulusBig(), 256), 4);
        std::uint64_t XO[4], YO[4];
        Butterfly(XO, YO, XW.data(), YW.data(), TwW.data(), TwQW.data(),
                  QW.data());
        X[I0 + J] = fromWordsMsbFirst(XO, 4);
        X[I0 + J + Len] = fromWordsMsbFirst(YO, 4);
        Tw = Tw.mulMod(WLen, F.modulusBig());
      }
    }
  }

  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(X[I], Engine[I].toBignum()) << "index " << I;
}

TEST(GeneratedNtt, EmittedButterflyMatchesReferenceDftSmall) {
  // Same pipeline at 128 bits against the O(n^2) Eq. 12 oracle directly.
  kernels::ScalarKernelSpec Spec{128, 0};
  rewrite::LoweredKernel L = kernels::generateButterflyKernel(Spec);
  EmittedKernel EK = emitC(L);

  jit::HostJit Jit;
  std::shared_ptr<jit::JitModule> M = Jit.load(EK.Source);
  ASSERT_NE(M, nullptr) << Jit.error();
  auto Butterfly = M->symbolAs<ButterflyFn>(EK.Symbol);
  ASSERT_NE(Butterfly, nullptr);

  auto F = PrimeField<2>::evaluationField(12);
  const size_t N = 8;
  Rng R(0x6E78);
  std::vector<Bignum> X(N), Orig;
  for (auto &V : X)
    V = Bignum::random(R, F.modulusBig());
  Orig = X;

  Bignum Omega = F.nthRoot(N).toBignum();
  auto Ref = ntt::referenceDft(Orig, Omega, F.modulusBig());

  auto QW = toWordsMsbFirst(F.modulusBig(), 2);
  // Bit-reverse for n=8: swap 1<->4, 3<->6.
  std::swap(X[1], X[4]);
  std::swap(X[3], X[6]);
  for (size_t Len = 1; Len < N; Len <<= 1) {
    Bignum WLen = Omega.powMod(Bignum(N / (2 * Len)), F.modulusBig());
    for (size_t I0 = 0; I0 < N; I0 += 2 * Len) {
      Bignum Tw(1);
      for (size_t J = 0; J < Len; ++J) {
        auto XW = toWordsMsbFirst(X[I0 + J], 2);
        auto YW = toWordsMsbFirst(X[I0 + J + Len], 2);
        auto TwW = toWordsMsbFirst(Tw, 2);
        auto TwQW = toWordsMsbFirst(
            kernels::shoupCompanion(Tw, F.modulusBig(), 128), 2);
        std::uint64_t XO[2], YO[2];
        Butterfly(XO, YO, XW.data(), YW.data(), TwW.data(), TwQW.data(),
                  QW.data());
        X[I0 + J] = fromWordsMsbFirst(XO, 2);
        X[I0 + J + Len] = fromWordsMsbFirst(YO, 2);
        Tw = Tw.mulMod(WLen, F.modulusBig());
      }
    }
  }
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(X[I], Ref[I]) << "index " << I;
}

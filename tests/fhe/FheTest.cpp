//===- tests/fhe/FheTest.cpp - FHE layer & residue-form handles ----------------===//
//
// Coverage for the redesigned RNS surface (runtime/RnsTensor.h + the
// Dispatcher's tensor overloads) and the ciphertext layer built on it
// (fhe/Fhe.h), every arithmetic claim checked bit-exact against the
// arbitrary-precision oracle in fhe/Reference.h:
//
//  * RnsContext::subChain views: identity-stable caching (including
//    across context copies), correct prefix modulus/weights (decompose
//    -> recombine identity through a view), legal one-limb bottom rung;
//  * the tensor API: fromWide/toWide roundtrip, domain-tag state
//    machine, typed InvalidArgument on incongruent operands and
//    too-short rescale chains, stable dispatchErrorCodeName strings;
//  * ciphertext add / tensor-product multiply / rescale / relinearize
//    bit-exact vs the Bignum reference across both rings and
//    L in {2, 4, 8}, plus end-to-end decryption correctness on circuits
//    the toy parameters cover;
//  * the generated rnsresc kernel against the per-coefficient
//    (X - X mod q_last) / q_last identity;
//  * the lazy-NTT contract, pinned with exact dispatchStats()
//    arithmetic: a chain of k tensor products costs (k+2)L transforms
//    against the flat API's 3kL — saved = (2k-2)L — and a ciphertext
//    multiply whose operands came out of an earlier multiply dispatches
//    zero forward transforms for them;
//  * a differential-fuzz leg chaining 3-6 random ciphertext ops
//    (add / multiply+relinearize / rescale) with the device and the
//    oracle marched in lockstep;
//  * Server::submitCtMul serving products through the coalescer and the
//    typed InvalidRequest admission reply, and a burst of products
//    sharing one worker wakeup while each runs on its own operands.
//
//===----------------------------------------------------------------------===//

#include "../TestUtil.h"
#include "../service/ParkedWorker.h"

#include "fhe/Fhe.h"
#include "ntt/ReferenceDft.h"
#include "service/Server.h"

#include <gtest/gtest.h>

using namespace moma;
using namespace moma::fhe;
using namespace moma::runtime;
using namespace moma::testutil;
using mw::Bignum;
using rewrite::ExecBackend;
using rewrite::NttRing;

namespace {

/// One registry per test binary: identical kernel variants across tests
/// share compiled modules and the on-disk JIT cache.
KernelRegistry &registry() {
  static KernelRegistry Reg;
  return Reg;
}

rewrite::PlanOptions pinned(ExecBackend B, unsigned FuseDepth = 2) {
  rewrite::PlanOptions O;
  O.Backend = B;
  O.FuseDepth = FuseDepth;
  return O;
}

FheContext makeFhe(unsigned Limbs, NttRing Ring, size_t NPoints = 64) {
  FheOptions O;
  O.NPoints = NPoints;
  O.NumLimbs = Limbs;
  O.Ring = Ring;
  FheContext FC;
  std::string Err;
  EXPECT_TRUE(FheContext::create(O, FC, &Err)) << Err;
  return FC;
}

std::vector<std::uint64_t> randomMsg(Rng &R, const FheContext &FC) {
  std::vector<std::uint64_t> M(FC.nPoints());
  for (auto &V : M)
    V = R.below(FC.plainModulus().low64());
  return M;
}

/// Bit-exact comparison of a device ciphertext against the oracle.
void expectCtEq(runtime::Dispatcher &D, Ciphertext &Ct,
                const RefCiphertext &Ref, const char *What) {
  RefCiphertext Got;
  ASSERT_TRUE(ciphertextToRef(D, Ct, Got)) << What << ": " << D.error();
  ASSERT_EQ(Got.size(), Ref.size()) << What;
  for (size_t P = 0; P < Ref.size(); ++P)
    for (size_t I = 0; I < Ref[P].size(); ++I)
      ASSERT_EQ(Got[P][I], Ref[P][I])
          << What << ": poly " << P << " coeff " << I;
}

/// The plaintext ring product mod t — what a multiply should decrypt to.
std::vector<std::uint64_t> plainMul(const std::vector<std::uint64_t> &A,
                                    const std::vector<std::uint64_t> &B,
                                    const Bignum &T, bool Neg) {
  RefPoly PA(A.begin(), A.end()), PB(B.begin(), B.end());
  auto P = ntt::referencePolyMulRing(PA, PB, T, Neg);
  std::vector<std::uint64_t> Out(P.size());
  for (size_t I = 0; I < P.size(); ++I)
    Out[I] = P[I].low64();
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// subChain views
//===----------------------------------------------------------------------===//

TEST(FheRns, SubChainViewsAreIdentityStableAndCorrect) {
  RnsContext Ctx;
  std::string Err;
  ASSERT_TRUE(RnsContext::create(4, Ctx, &Err)) << Err;

  // The full-length view is the context itself; shorter views are
  // cached per requested length.
  EXPECT_EQ(&Ctx.subChain(4), &Ctx);
  const RnsContext &V2 = Ctx.subChain(2);
  EXPECT_EQ(&Ctx.subChain(2), &V2);
  EXPECT_EQ(V2.numLimbs(), 2u);
  // A one-limb view is a legal bottom rung of the rescale ladder.
  EXPECT_EQ(Ctx.subChain(1).numLimbs(), 1u);

  // Copies share the walked cache: the copy hands back the same view.
  RnsContext Copy = Ctx;
  EXPECT_EQ(&Copy.subChain(2), &V2);

  // Prefix property: same limbs, modulus the prefix product.
  EXPECT_EQ(V2.limb(0), Ctx.limb(0));
  EXPECT_EQ(V2.limb(1), Ctx.limb(1));
  EXPECT_EQ(V2.modulus(), Ctx.limb(0) * Ctx.limb(1));
  EXPECT_EQ(Ctx.subChain(1).modulus(), Ctx.limb(0));
}

TEST(FheRns, SubChainCrtEdgesRoundTrip) {
  SeededRng R(0xf1e1);
  RnsContext Ctx;
  std::string Err;
  ASSERT_TRUE(RnsContext::create(4, Ctx, &Err)) << Err;
  const RnsContext &Sub = Ctx.subChain(3);
  Dispatcher D(registry(), nullptr, pinned(ExecBackend::Vector));

  const size_t N = 64;
  std::vector<Bignum> A;
  for (size_t I = 0; I < N; ++I)
    A.push_back(Bignum::random(R, Sub.modulus()));
  auto AW = packBatch(A, Sub.wideWords());
  RnsTensor T(Sub, N, 1);
  ASSERT_TRUE(D.fromWide(AW.data(), T)) << D.error();
  std::vector<std::uint64_t> Back(AW.size());
  ASSERT_TRUE(D.toWide(T, Back.data())) << D.error();
  // The view's recomputed CRT weights reconstruct exactly.
  EXPECT_EQ(AW, Back);
}

//===----------------------------------------------------------------------===//
// Tensor API basics & typed errors
//===----------------------------------------------------------------------===//

TEST(FheRns, TensorDomainTagMachine) {
  SeededRng R(0xd0a1);
  RnsContext Ctx;
  std::string Err;
  ASSERT_TRUE(RnsContext::create(2, Ctx, &Err)) << Err;
  Dispatcher D(registry(), nullptr, pinned(ExecBackend::Vector));

  const size_t N = 64;
  std::vector<Bignum> A;
  for (size_t I = 0; I < N; ++I)
    A.push_back(Bignum::random(R, Ctx.modulus()));
  auto AW = packBatch(A, Ctx.wideWords());
  RnsTensor T(Ctx, N, 1, NttRing::Cyclic);
  ASSERT_TRUE(D.fromWide(AW.data(), T));
  EXPECT_EQ(T.domain(), RnsDomain::Coeff);
  ASSERT_TRUE(D.rnsNttForward(T));
  EXPECT_EQ(T.domain(), RnsDomain::Ntt);
  // Idempotent: already transformed, no-op.
  auto Before = D.dispatchStats();
  ASSERT_TRUE(D.rnsNttForward(T));
  EXPECT_EQ(D.dispatchStats().Transforms, Before.Transforms);
  ASSERT_TRUE(D.rnsNttInverse(T));
  EXPECT_EQ(T.domain(), RnsDomain::Coeff);
  // The roundtrip is value-preserving.
  std::vector<std::uint64_t> Back(AW.size());
  ASSERT_TRUE(D.toWide(T, Back.data()));
  EXPECT_EQ(AW, Back);

  EXPECT_STREQ(rnsDomainName(RnsDomain::Coeff), "coeff");
  EXPECT_STREQ(rnsDomainName(RnsDomain::Ntt), "ntt");
}

TEST(FheRns, TypedErrorCodes) {
  RnsContext Ctx;
  std::string Err;
  ASSERT_TRUE(RnsContext::create(2, Ctx, &Err)) << Err;
  Dispatcher D(registry(), nullptr, pinned(ExecBackend::Vector));

  // The rescale kernel's wire name is ABI: the JIT cache and moma-gen's
  // -k flag both key on it.
  EXPECT_STREQ(kernelOpName(KernelOp::RnsRescaleStep), "rnsresc");

  EXPECT_STREQ(dispatchErrorCodeName(DispatchErrorCode::Ok), "ok");
  EXPECT_STREQ(dispatchErrorCodeName(DispatchErrorCode::InvalidArgument),
               "invalid-argument");
  EXPECT_STREQ(dispatchErrorCodeName(DispatchErrorCode::PlanUnavailable),
               "plan-unavailable");
  EXPECT_STREQ(dispatchErrorCodeName(DispatchErrorCode::BackendFailed),
               "backend-failed");

  // Incongruent operands: different shapes under one context.
  RnsTensor A(Ctx, 64, 1), B(Ctx, 32, 1), C(Ctx, 64, 1);
  EXPECT_FALSE(D.rnsVAdd(A, B, C));
  EXPECT_EQ(D.lastErrorCode(), DispatchErrorCode::InvalidArgument);
  EXPECT_FALSE(D.error().empty());

  // A one-limb chain cannot rescale.
  RnsTensor Short(Ctx.subChain(1), 64, 1);
  EXPECT_FALSE(D.rnsRescale(Short));
  EXPECT_EQ(D.lastErrorCode(), DispatchErrorCode::InvalidArgument);

  // Success clears the code.
  RnsTensor B2(Ctx, 64, 1);
  EXPECT_TRUE(D.rnsVAdd(A, B2, C)) << D.error();
  EXPECT_EQ(D.lastErrorCode(), DispatchErrorCode::Ok);
}

TEST(FheRns, RescaleMatchesExactQuotient) {
  SeededRng R(0x5ca1e);
  for (unsigned Limbs : {2u, 4u, 8u}) {
    RnsContext Ctx;
    std::string Err;
    ASSERT_TRUE(RnsContext::create(Limbs, Ctx, &Err)) << Err;
    Dispatcher D(registry(), nullptr, pinned(ExecBackend::Vector));

    const size_t N = 64;
    std::vector<Bignum> A;
    for (size_t I = 0; I < N; ++I)
      A.push_back(Bignum::random(R, Ctx.modulus()));
    auto AW = packBatch(A, Ctx.wideWords());
    RnsTensor T(Ctx, N, 1);
    ASSERT_TRUE(D.fromWide(AW.data(), T));
    ASSERT_TRUE(D.rnsRescale(T)) << D.error();

    // The tensor rebinds to the one-shorter view.
    const RnsContext &Sub = Ctx.subChain(Limbs - 1);
    EXPECT_EQ(&T.context(), &Sub);

    std::vector<std::uint64_t> Got(size_t(Sub.wideWords()) * N);
    ASSERT_TRUE(D.toWide(T, Got.data()));
    auto GotW = unpackBatch(Got, Sub.wideWords());
    const Bignum &QL = Ctx.limb(Limbs - 1);
    for (size_t I = 0; I < N; ++I)
      EXPECT_EQ(GotW[I], (A[I] - A[I] % QL) / QL)
          << "limbs " << Limbs << " coeff " << I;
  }
}

//===----------------------------------------------------------------------===//
// Ciphertext ops, bit-exact vs the Bignum oracle
//===----------------------------------------------------------------------===//

TEST(Fhe, AddBitExactAndDecrypts) {
  SeededRng R(0xadd);
  for (NttRing Ring : {NttRing::Cyclic, NttRing::Negacyclic})
    for (unsigned Limbs : {2u, 4u, 8u}) {
      FheContext FC = makeFhe(Limbs, Ring);
      Dispatcher D(registry(), nullptr, pinned(ExecBackend::Vector));
      SecretKey SK = keyGen(FC, R);

      auto M1 = randomMsg(R, FC), M2 = randomMsg(R, FC);
      Ciphertext C1, C2;
      ASSERT_TRUE(encrypt(FC, D, SK, M1, R, C1)) << D.error();
      ASSERT_TRUE(encrypt(FC, D, SK, M2, R, C2)) << D.error();
      RefCiphertext R1, R2;
      ASSERT_TRUE(ciphertextToRef(D, C1, R1));
      ASSERT_TRUE(ciphertextToRef(D, C2, R2));

      Ciphertext Sum;
      ASSERT_TRUE(ciphertextAdd(D, C1, C2, Sum)) << D.error();
      RefCiphertext RefSum = refAdd(R1, R2, FC.rns().modulus());
      expectCtEq(D, Sum, RefSum, "add");

      std::vector<std::uint64_t> Dec;
      ASSERT_TRUE(decrypt(FC, D, SK, Sum, Dec));
      std::uint64_t T = FC.plainModulus().low64();
      for (size_t I = 0; I < Dec.size(); ++I)
        ASSERT_EQ(Dec[I], (M1[I] + M2[I]) % T) << "coeff " << I;
    }
}

TEST(Fhe, MulBitExactAndDecrypts) {
  SeededRng R(0x3a1);
  for (NttRing Ring : {NttRing::Cyclic, NttRing::Negacyclic})
    for (unsigned Limbs : {2u, 4u, 8u}) {
      FheContext FC = makeFhe(Limbs, Ring);
      Dispatcher D(registry(), nullptr, pinned(ExecBackend::Vector));
      SecretKey SK = keyGen(FC, R);
      bool Neg = Ring == NttRing::Negacyclic;

      auto M1 = randomMsg(R, FC), M2 = randomMsg(R, FC);
      Ciphertext C1, C2;
      ASSERT_TRUE(encrypt(FC, D, SK, M1, R, C1));
      ASSERT_TRUE(encrypt(FC, D, SK, M2, R, C2));
      RefCiphertext R1, R2;
      ASSERT_TRUE(ciphertextToRef(D, C1, R1));
      ASSERT_TRUE(ciphertextToRef(D, C2, R2));

      Ciphertext Prod;
      ASSERT_TRUE(ciphertextMul(D, C1, C2, Prod)) << D.error();
      ASSERT_EQ(Prod.size(), 3u);
      RefCiphertext RefProd = refMul(R1, R2, FC.rns().modulus(), Neg);
      expectCtEq(D, Prod, RefProd, "mul");

      // Degree-2 decryption: the toy modulus easily holds the noise.
      std::vector<std::uint64_t> Dec;
      ASSERT_TRUE(decrypt(FC, D, SK, Prod, Dec));
      auto Want = plainMul(M1, M2, FC.plainModulus(), Neg);
      for (size_t I = 0; I < Dec.size(); ++I)
        ASSERT_EQ(Dec[I], Want[I]) << "coeff " << I;
    }
}

TEST(Fhe, RescaleBitExact) {
  SeededRng R(0x4e5c);
  for (NttRing Ring : {NttRing::Cyclic, NttRing::Negacyclic})
    for (unsigned Limbs : {2u, 4u, 8u}) {
      FheContext FC = makeFhe(Limbs, Ring);
      Dispatcher D(registry(), nullptr, pinned(ExecBackend::Vector));
      SecretKey SK = keyGen(FC, R);

      Ciphertext C;
      ASSERT_TRUE(encrypt(FC, D, SK, randomMsg(R, FC), R, C));
      RefCiphertext Ref;
      ASSERT_TRUE(ciphertextToRef(D, C, Ref));

      ASSERT_TRUE(rescale(D, C)) << D.error();
      RefCiphertext RefR = refRescale(Ref, FC.rns());
      EXPECT_EQ(&C.context(), &FC.rns().subChain(Limbs - 1));
      expectCtEq(D, C, RefR, "rescale");
    }
}

TEST(Fhe, RelinearizeBitExactAndDecrypts) {
  SeededRng R(0x4e11);
  for (NttRing Ring : {NttRing::Cyclic, NttRing::Negacyclic})
    for (unsigned Limbs : {2u, 4u}) {
      FheContext FC = makeFhe(Limbs, Ring);
      Dispatcher D(registry(), nullptr, pinned(ExecBackend::Vector));
      SecretKey SK = keyGen(FC, R);
      RelinKey RK;
      ASSERT_TRUE(relinKeyGen(FC, D, SK, R, RK)) << D.error();
      bool Neg = Ring == NttRing::Negacyclic;

      auto M1 = randomMsg(R, FC), M2 = randomMsg(R, FC);
      Ciphertext C1, C2;
      ASSERT_TRUE(encrypt(FC, D, SK, M1, R, C1));
      ASSERT_TRUE(encrypt(FC, D, SK, M2, R, C2));
      RefCiphertext R1, R2;
      ASSERT_TRUE(ciphertextToRef(D, C1, R1));
      ASSERT_TRUE(ciphertextToRef(D, C2, R2));

      Ciphertext Prod;
      ASSERT_TRUE(ciphertextMul(D, C1, C2, Prod));
      ASSERT_TRUE(relinearize(D, Prod, RK)) << D.error();
      ASSERT_EQ(Prod.size(), 2u);

      RefCiphertext RefProd =
          refRelinearize(refMul(R1, R2, FC.rns().modulus(), Neg), RK.Ref,
                         FC.rns(), Neg);
      expectCtEq(D, Prod, RefProd, "relinearize");

      // Back at degree 1, decryption still lands on the product.
      std::vector<std::uint64_t> Dec;
      ASSERT_TRUE(decrypt(FC, D, SK, Prod, Dec));
      auto Want = plainMul(M1, M2, FC.plainModulus(), Neg);
      for (size_t I = 0; I < Dec.size(); ++I)
        ASSERT_EQ(Dec[I], Want[I]) << "coeff " << I;
    }
}

//===----------------------------------------------------------------------===//
// The lazy-NTT contract, pinned with exact dispatch arithmetic
//===----------------------------------------------------------------------===//

TEST(Fhe, LazyNttDispatchSavings) {
  SeededRng R(0x1a21);
  RnsContext Ctx;
  std::string Err;
  ASSERT_TRUE(RnsContext::create(4, Ctx, &Err)) << Err;
  const std::uint64_t L = Ctx.numLimbs();
  const size_t NP = 64; // log2(64) = 6 -> 3 stage groups at depth 2
  const unsigned WW = Ctx.wideWords();

  std::vector<std::vector<Bignum>> Ops;
  std::vector<std::vector<std::uint64_t>> OpsW;
  for (int I = 0; I < 4; ++I) {
    std::vector<Bignum> V;
    for (size_t J = 0; J < NP; ++J)
      V.push_back(Bignum::random(R, Ctx.modulus()));
    OpsW.push_back(packBatch(V, WW));
    Ops.push_back(std::move(V));
  }

  // Flat chain: three one-shot rnsPolyMul calls, each paying the full
  // decompose -> 3L transforms -> recombine toll.
  Dispatcher DF(registry(), nullptr, pinned(ExecBackend::Vector, 2));
  std::vector<std::uint64_t> F1(NP * WW), F2(NP * WW), F3(NP * WW);
  auto Before = DF.dispatchStats();
  ASSERT_TRUE(DF.rnsPolyMul(Ctx, OpsW[0].data(), OpsW[1].data(), F1.data(),
                            NP, 1, NttRing::Cyclic));
  ASSERT_TRUE(DF.rnsPolyMul(Ctx, F1.data(), OpsW[2].data(), F2.data(), NP,
                            1, NttRing::Cyclic));
  ASSERT_TRUE(DF.rnsPolyMul(Ctx, F2.data(), OpsW[3].data(), F3.data(), NP,
                            1, NttRing::Cyclic));
  auto After = DF.dispatchStats();
  const std::uint64_t K = 3; // chained products
  EXPECT_EQ(After.Transforms - Before.Transforms, 3 * K * L);
  EXPECT_EQ(After.StageGroups - Before.StageGroups, 3 * K * L * 3);
  // Per flat product: 2L decompose + L vmul + L recombine.
  EXPECT_EQ(After.Batches - Before.Batches, K * 4 * L);

  // Lazy chain: the same three products through residue-form handles.
  // Each operand transforms exactly once, intermediates stay in NTT
  // form, toWide pays the single inverse: (k + 2)L transforms total
  // where flat paid 3kL — saved = (2k - 2)L.
  Dispatcher DL(registry(), nullptr, pinned(ExecBackend::Vector, 2));
  RnsTensor T0(Ctx, NP, 1), T1(Ctx, NP, 1), T2(Ctx, NP, 1),
      T3(Ctx, NP, 1), Acc(Ctx, NP, 1);
  Before = DL.dispatchStats();
  ASSERT_TRUE(DL.fromWide(OpsW[0].data(), T0));
  ASSERT_TRUE(DL.fromWide(OpsW[1].data(), T1));
  ASSERT_TRUE(DL.fromWide(OpsW[2].data(), T2));
  ASSERT_TRUE(DL.fromWide(OpsW[3].data(), T3));
  ASSERT_TRUE(DL.rnsPolyMul(T0, T1, Acc));
  EXPECT_EQ(Acc.domain(), RnsDomain::Ntt);
  ASSERT_TRUE(DL.rnsPolyMul(Acc, T2, Acc));
  ASSERT_TRUE(DL.rnsPolyMul(Acc, T3, Acc));
  std::vector<std::uint64_t> L3(NP * WW);
  ASSERT_TRUE(DL.toWide(Acc, L3.data()));
  After = DL.dispatchStats();
  EXPECT_EQ(After.Transforms - Before.Transforms, (K + 2) * L);
  EXPECT_EQ(After.StageGroups - Before.StageGroups, (K + 2) * L * 3);
  // Edges once, not per product: 4L decompose + 3L vmul + L recombine.
  EXPECT_EQ(After.Batches - Before.Batches, 4 * L + K * L + L);

  // Same math, exactly (2k - 2)L transforms cheaper.
  EXPECT_EQ(L3, F3);
  EXPECT_EQ((3 * K * L) - ((K + 2) * L), (2 * K - 2) * L);
}

TEST(Fhe, ChainedCiphertextMulSkipsOperandTransforms) {
  SeededRng R(0xc41);
  FheContext FC = makeFhe(4, NttRing::Negacyclic);
  Dispatcher D(registry(), nullptr, pinned(ExecBackend::Vector));
  SecretKey SK = keyGen(FC, R);
  const std::uint64_t L = FC.rns().numLimbs();

  Ciphertext X, Y, Z;
  ASSERT_TRUE(encrypt(FC, D, SK, randomMsg(R, FC), R, X));
  ASSERT_TRUE(encrypt(FC, D, SK, randomMsg(R, FC), R, Y));
  ASSERT_TRUE(encrypt(FC, D, SK, randomMsg(R, FC), R, Z));

  // First product: all four operand polys fresh -> exactly 4L forward
  // transforms, zero inverse.
  Ciphertext P1;
  auto Before = D.dispatchStats();
  ASSERT_TRUE(ciphertextMul(D, X, Y, P1));
  EXPECT_EQ(D.dispatchStats().Transforms - Before.Transforms, 4 * L);

  // Second product reuses X, whose polys are now NTT-resident: only Z's
  // two polys transform — exactly 2L, the lazy retention at work.
  Ciphertext P2;
  Before = D.dispatchStats();
  ASSERT_TRUE(ciphertextMul(D, X, Z, P2));
  EXPECT_EQ(D.dispatchStats().Transforms - Before.Transforms, 2 * L);
}

//===----------------------------------------------------------------------===//
// Differential fuzz: random op chains, device vs oracle in lockstep
//===----------------------------------------------------------------------===//

TEST(Fhe, DifferentialFuzzOpChains) {
  SeededRng R(0xfece5);
  const int Iters = fuzzIters(20);
  for (int It = 0; It < Iters; ++It) {
    NttRing Ring = R.below(2) ? NttRing::Negacyclic : NttRing::Cyclic;
    unsigned Limbs = 2 + unsigned(R.below(3)); // 2..4
    FheContext FC = makeFhe(Limbs, Ring, 32);
    Dispatcher D(registry(), nullptr, pinned(ExecBackend::Vector));
    SecretKey SK = keyGen(FC, R);
    RelinKey RK;
    ASSERT_TRUE(relinKeyGen(FC, D, SK, R, RK));
    bool Neg = Ring == NttRing::Negacyclic;

    Ciphertext Acc;
    ASSERT_TRUE(encrypt(FC, D, SK, randomMsg(R, FC), R, Acc));
    RefCiphertext Ref;
    ASSERT_TRUE(ciphertextToRef(D, Acc, Ref));

    bool Rescaled = false;
    const size_t Steps = 3 + R.below(4); // 3..6 ops
    for (size_t S = 0; S < Steps; ++S) {
      // After a rescale the relin key (full chain) and fresh encryptions
      // (full chain) no longer apply: only further rescales remain.
      std::uint64_t Op = Rescaled ? 2 : R.below(3);
      if (Op == 2 && Acc.context().numLimbs() < 2)
        break;
      switch (Op) {
      case 0: { // add a fresh encryption
        Ciphertext Fresh;
        ASSERT_TRUE(encrypt(FC, D, SK, randomMsg(R, FC), R, Fresh));
        RefCiphertext FreshRef;
        ASSERT_TRUE(ciphertextToRef(D, Fresh, FreshRef));
        ASSERT_TRUE(ciphertextAdd(D, Acc, Fresh, Acc)) << D.error();
        Ref = refAdd(Ref, FreshRef, FC.rns().modulus());
        break;
      }
      case 1: { // multiply by a fresh encryption, then relinearize
        Ciphertext Fresh;
        ASSERT_TRUE(encrypt(FC, D, SK, randomMsg(R, FC), R, Fresh));
        RefCiphertext FreshRef;
        ASSERT_TRUE(ciphertextToRef(D, Fresh, FreshRef));
        ASSERT_TRUE(ciphertextMul(D, Acc, Fresh, Acc)) << D.error();
        ASSERT_TRUE(relinearize(D, Acc, RK)) << D.error();
        Ref = refRelinearize(refMul(Ref, FreshRef, FC.rns().modulus(), Neg),
                             RK.Ref, FC.rns(), Neg);
        break;
      }
      default: { // drop a limb
        const RnsContext &Cur = Acc.context();
        ASSERT_TRUE(rescale(D, Acc)) << D.error();
        Ref = refRescale(Ref, Cur);
        Rescaled = true;
        break;
      }
      }
      expectCtEq(D, Acc, Ref, "fuzz step");
    }
  }
}

//===----------------------------------------------------------------------===//
// Serving layer
//===----------------------------------------------------------------------===//

TEST(Fhe, ServerCtMulServesAndRejectsTyped) {
  SeededRng R(0x5e4e);
  FheContext FC = makeFhe(2, NttRing::Negacyclic);
  SecretKey SK = keyGen(FC, R);

  service::ServerOptions SO;
  SO.Workers = 2;
  service::Server Srv(registry(), SO);

  // Encrypt through a local dispatcher (host-side prep), serve the
  // products through the server's workers.
  Dispatcher D(registry(), nullptr, pinned(ExecBackend::Vector));
  auto M1 = randomMsg(R, FC), M2 = randomMsg(R, FC);
  Ciphertext A, B;
  ASSERT_TRUE(encrypt(FC, D, SK, M1, R, A));
  ASSERT_TRUE(encrypt(FC, D, SK, M2, R, B));
  RefCiphertext RA, RB;
  ASSERT_TRUE(ciphertextToRef(D, A, RA));
  ASSERT_TRUE(ciphertextToRef(D, B, RB));

  Ciphertext Out;
  auto F = Srv.submitCtMul(A, B, Out);
  service::Reply Rep = F.get();
  ASSERT_TRUE(Rep.Ok) << Rep.Error;
  RefCiphertext Want =
      refMul(RA, RB, FC.rns().modulus(), /*Negacyclic=*/true);
  expectCtEq(D, Out, Want, "server ctmul");

  // Malformed submissions come back typed, straight from the door.
  Ciphertext Bad; // empty
  service::Reply Rej = Srv.submitCtMul(Bad, B, Out).get();
  EXPECT_FALSE(Rej.Ok);
  EXPECT_EQ(Rej.Code, service::ErrorCode::InvalidRequest);

  // A degree-2 operand is refused the same way.
  Ciphertext P;
  ASSERT_TRUE(ciphertextMul(D, A, B, P));
  service::Reply Rej2 = Srv.submitCtMul(P, B, Out).get();
  EXPECT_FALSE(Rej2.Ok);
  EXPECT_EQ(Rej2.Code, service::ErrorCode::InvalidRequest);
}

TEST(Fhe, ServerCtMulBurstSharesOneWakeup) {
  // Queued same-context products coalesce onto one worker wakeup but are
  // never staged: each runs its own dispatcher-call sequence on its own
  // ciphertexts, so every result must still match the oracle.
  SeededRng R(0xb125);
  FheContext FC = makeFhe(2, NttRing::Negacyclic);
  SecretKey SK = keyGen(FC, R);
  Dispatcher D(registry(), nullptr, pinned(ExecBackend::Vector));

  const size_t Reqs = 4;
  std::vector<Ciphertext> A(Reqs), B(Reqs), Out(Reqs);
  std::vector<RefCiphertext> Want(Reqs);
  for (size_t I = 0; I < Reqs; ++I) {
    ASSERT_TRUE(encrypt(FC, D, SK, randomMsg(R, FC), R, A[I]));
    ASSERT_TRUE(encrypt(FC, D, SK, randomMsg(R, FC), R, B[I]));
    RefCiphertext RA, RB;
    ASSERT_TRUE(ciphertextToRef(D, A[I], RA));
    ASSERT_TRUE(ciphertextToRef(D, B[I], RB));
    Want[I] = refMul(RA, RB, FC.rns().modulus(), /*Negacyclic=*/true);
  }

  service::ServerOptions SO;
  SO.Workers = 1;
  service::Server Srv(registry(), SO);
  std::vector<std::future<service::Reply>> F;
  submitBehindParkedWorker(Reqs, [&](size_t I) {
    F.push_back(Srv.submitCtMul(A[I], B[I], Out[I]));
  });
  Srv.drain();

  for (size_t I = 0; I < Reqs; ++I) {
    service::Reply Rep = F[I].get();
    ASSERT_TRUE(Rep.Ok) << Rep.Error;
    expectCtEq(D, Out[I], Want[I], "burst ctmul");
  }
  service::Server::Stats St = Srv.stats();
  EXPECT_EQ(St.Dispatches, 2u) << "the burst was not one wakeup";
  EXPECT_EQ(St.MaxBatchSize, Reqs - 1);
}

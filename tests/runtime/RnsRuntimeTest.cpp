//===- tests/runtime/RnsRuntimeTest.cpp - RNS multi-modulus runtime ------------===//
//
// Coverage for the runtime RNS layer (runtime/RnsContext.h + the
// Dispatcher's rns* entry points):
//
//  * base construction invariants (distinct same-width NTT-friendly
//    limbs, M = Π q_l, packed CRT weights) and shape rejection;
//  * the generated CRT edge kernels: batched decompose matches the host
//    encode reference, decompose -> recombine is the identity on reduced
//    wide batches, on both backends;
//  * bit-exactness of rnsVAdd/rnsVMul against the Bignum oracle and the
//    GRNS baseline (`baselines/Rns.h` mulModQ path);
//  * bit-exactness of rnsPolyMul against the Bignum schoolbook
//    convolution (n = 64, every limb count) and against the independent
//    library-NTT-per-limb + host-CRT oracle (n up to 1024), cyclic and
//    negacyclic, limb counts {2, 4, 8};
//  * the plan-sharing guarantee: because PlanKey excludes the modulus
//    value, the number of compiled plans is independent of the limb
//    count, and dispatchStats() shows the exact per-limb dispatch
//    arithmetic;
//  * negacyclic rnsPolyMul issues exactly the cyclic dispatch count
//    (the ψ folds ride existing edge dispatches);
//  * PlanKey canonicalization of the new axes (/W wide words, /neg ring
//    suffix, folded knobs on the CRT kernels).
//
//===----------------------------------------------------------------------===//

#include "../TestUtil.h"

#include "baselines/Rns.h"
#include "field/PrimeField.h"
#include "field/RootOfUnity.h"
#include "ntt/Negacyclic.h"
#include "ntt/Ntt.h"
#include "ntt/ReferenceDft.h"
#include "runtime/Dispatcher.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace moma;
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

rewrite::PlanOptions pinned(ExecBackend B, unsigned FuseDepth = 1) {
  rewrite::PlanOptions O;
  O.Backend = B;
  O.FuseDepth = FuseDepth;
  return O;
}

RnsContext makeBase(unsigned Limbs, unsigned LimbBits = 60,
                    unsigned TwoAdicity = 16) {
  RnsContext Ctx;
  std::string Err;
  RnsContext::Options O;
  O.LimbBits = LimbBits;
  O.TwoAdicity = TwoAdicity;
  EXPECT_TRUE(RnsContext::create(Limbs, Ctx, &Err, O)) << Err;
  return Ctx;
}

std::vector<Bignum> randomWide(Rng &R, const RnsContext &Ctx, size_t N) {
  std::vector<Bignum> Out;
  for (size_t I = 0; I < N; ++I)
    Out.push_back(Bignum::random(R, Ctx.modulus()));
  return Out;
}

/// Schoolbook C = A * B over Z_M[x]/(x^n -+ 1), one batch row (the
/// shared ntt::referencePolyMulRing oracle).
std::vector<Bignum> schoolbook(const std::vector<Bignum> &A,
                               const std::vector<Bignum> &B,
                               const Bignum &M, NttRing Ring) {
  return ntt::referencePolyMulRing(A, B, M,
                                   Ring == NttRing::Negacyclic);
}

/// The independent per-limb oracle: host encode, library NTT polynomial
/// product per limb (ntt::NttPlan / ntt::NegacyclicPlan — not the
/// runtime under test), host CRT decode.
std::vector<Bignum> limbLibraryOracle(const RnsContext &Ctx,
                                      const std::vector<Bignum> &A,
                                      const std::vector<Bignum> &B,
                                      size_t NPoints, NttRing Ring) {
  size_t Batch = A.size() / NPoints;
  std::vector<std::vector<std::uint64_t>> LimbC(Ctx.numLimbs());
  for (size_t L = 0; L < Ctx.numLimbs(); ++L) {
    field::PrimeField<1> F(Ctx.limb(L));
    using Elem = field::PrimeField<1>::Element;
    ntt::NttPlan<1> Cyc(F, NPoints);
    ntt::NegacyclicPlan<1> Neg(F, NPoints);
    for (size_t Bt = 0; Bt < Batch; ++Bt) {
      std::vector<Elem> EA, EB;
      for (size_t I = 0; I < NPoints; ++I) {
        EA.push_back(F.fromBignum(A[Bt * NPoints + I] % Ctx.limb(L)));
        EB.push_back(F.fromBignum(B[Bt * NPoints + I] % Ctx.limb(L)));
      }
      std::vector<Elem> EC;
      if (Ring == NttRing::Negacyclic) {
        EC = ntt::polyMulNegacyclic(Neg, EA, EB);
      } else {
        Cyc.forward(EA.data());
        Cyc.forward(EB.data());
        EC.resize(NPoints);
        for (size_t I = 0; I < NPoints; ++I)
          EC[I] = F.mul(EA[I], EB[I]);
        Cyc.inverse(EC.data());
      }
      for (const Elem &E : EC)
        LimbC[L].push_back(E.toBignum().low64());
    }
  }
  std::vector<Bignum> Out;
  size_t N = A.size();
  for (size_t I = 0; I < N; ++I) {
    std::vector<std::uint64_t> Res;
    for (size_t L = 0; L < Ctx.numLimbs(); ++L)
      Res.push_back(LimbC[L][I]);
    Out.push_back(Ctx.decode(Res.data(), 1));
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Base construction
//===----------------------------------------------------------------------===//

TEST(RnsRuntime, ContextShapeAndRejection) {
  for (unsigned L : {2u, 4u, 8u}) {
    RnsContext Ctx = makeBase(L);
    EXPECT_EQ(Ctx.numLimbs(), L);
    Bignum Prod(1);
    for (size_t I = 0; I < Ctx.numLimbs(); ++I) {
      EXPECT_EQ(Ctx.limb(I).bitWidth(), 60u) << "limb " << I;
      EXPECT_GE(field::twoAdicity(Ctx.limb(I)), 16u);
      for (size_t J = I + 1; J < Ctx.numLimbs(); ++J)
        EXPECT_NE(Ctx.limb(I), Ctx.limb(J)) << "duplicate limb";
      Prod = Prod * Ctx.limb(I);
    }
    EXPECT_EQ(Ctx.modulus(), Prod);
    EXPECT_EQ(Ctx.wideWords(), (Ctx.modulus().bitWidth() + 63) / 64);
    // CRT weights: W_i ≡ 1 (mod q_i) and ≡ 0 (mod q_j), j != i.
    for (size_t I = 0; I < Ctx.numLimbs(); ++I) {
      Bignum W = unpackWordsMsbFirst(Ctx.weightWords(I).data(),
                                     Ctx.wideWords());
      for (size_t J = 0; J < Ctx.numLimbs(); ++J)
        EXPECT_EQ(W % Ctx.limb(J), Bignum(I == J ? 1 : 0));
    }
  }
  RnsContext Bad;
  std::string Err;
  EXPECT_FALSE(RnsContext::create(1, Bad, &Err));
  EXPECT_FALSE(Err.empty());
  RnsContext::Options WideLimb;
  WideLimb.LimbBits = 70;
  EXPECT_FALSE(RnsContext::create(2, Bad, &Err, WideLimb));
}

//===----------------------------------------------------------------------===//
// CRT edge kernels
//===----------------------------------------------------------------------===//

TEST(RnsRuntime, DecomposeMatchesEncodeAndRoundtripsBothBackends) {
  SeededRng R(0x2A51);
  RnsContext Ctx = makeBase(4);
  unsigned WW = Ctx.wideWords();
  const size_t N = 33; // odd length exercises the grid tail block
  auto A = randomWide(R, Ctx, N);
  auto AW = packBatch(A, WW);
  for (ExecBackend B : {ExecBackend::SimGpu, ExecBackend::Vector}) {
    Dispatcher D(registry(), nullptr, pinned(B));
    std::vector<std::uint64_t> Res(Ctx.numLimbs() * N, ~0ull),
        Back(N * WW);
    ASSERT_TRUE(D.rnsDecompose(Ctx, AW.data(), Res.data(), N))
        << D.error();
    for (size_t I = 0; I < N; ++I) {
      auto Ref = Ctx.encode(A[I]);
      for (size_t L = 0; L < Ctx.numLimbs(); ++L)
        ASSERT_EQ(Res[L * N + I], Ref[L])
            << "backend " << rewrite::execBackendName(B) << " elem " << I
            << " limb " << L;
    }
    ASSERT_TRUE(D.rnsRecombine(Ctx, Res.data(), Back.data(), N))
        << D.error();
    EXPECT_EQ(unpackBatch(Back, WW), A)
        << "roundtrip, backend " << rewrite::execBackendName(B);
  }
}

//===----------------------------------------------------------------------===//
// Element-wise ops vs the Bignum oracle and the GRNS baseline
//===----------------------------------------------------------------------===//

TEST(RnsRuntime, VAddVMulBitExactVsBignumAndGrnsBaseline) {
  SeededRng R(0x2A52);
  for (unsigned Limbs : {2u, 4u}) {
    RnsContext Ctx = makeBase(Limbs);
    const Bignum &M = Ctx.modulus();
    unsigned WW = Ctx.wideWords();
    const size_t N = 24;
    auto A = randomWide(R, Ctx, N), B = randomWide(R, Ctx, N);
    auto AW = packBatch(A, WW), BW = packBatch(B, WW);
    std::vector<std::uint64_t> CW(N * WW);

    // Element-wise RNS arithmetic: fromWide -> tensor op -> toWide.
    Dispatcher D(registry());
    RnsTensor TA(Ctx, N, 1), TB(Ctx, N, 1), TC(Ctx, N, 1);
    ASSERT_TRUE(D.fromWide(AW.data(), TA)) << D.error();
    ASSERT_TRUE(D.fromWide(BW.data(), TB)) << D.error();
    ASSERT_TRUE(D.rnsVAdd(TA, TB, TC)) << D.error();
    ASSERT_TRUE(D.toWide(TC, CW.data())) << D.error();
    auto C = unpackBatch(CW, WW);
    for (size_t I = 0; I < N; ++I)
      EXPECT_EQ(C[I], A[I].addMod(B[I], M)) << "vadd elem " << I;

    ASSERT_TRUE(D.rnsVMul(TA, TB, TC)) << D.error();
    ASSERT_TRUE(D.toWide(TC, CW.data())) << D.error();
    C = unpackBatch(CW, WW);
    // The GRNS baseline computes the same products through its own
    // 31-bit channel base and CRT (an entirely independent RNS
    // implementation).
    baselines::RnsContext Grns =
        baselines::RnsContext::forModulusBits(M.bitWidth());
    for (size_t I = 0; I < N; ++I) {
      Bignum Want = A[I].mulMod(B[I], M);
      EXPECT_EQ(C[I], Want) << "vmul vs Bignum, elem " << I;
      auto GC = Grns.mulModQ(Grns.encode(A[I]), Grns.encode(B[I]), M);
      EXPECT_EQ(Grns.decode(GC), Want) << "GRNS baseline disagrees?!";
    }
  }
}

//===----------------------------------------------------------------------===//
// rnsPolyMul vs schoolbook and the library-NTT-per-limb oracle
//===----------------------------------------------------------------------===//

TEST(RnsRuntime, PolyMulBitExactSchoolbookN64AllLimbCounts) {
  SeededRng R(0x2A53);
  for (unsigned Limbs : {2u, 4u, 8u}) {
    RnsContext Ctx = makeBase(Limbs);
    unsigned WW = Ctx.wideWords();
    const size_t NP = 64;
    auto A = randomWide(R, Ctx, NP), B = randomWide(R, Ctx, NP);
    auto AW = packBatch(A, WW), BW = packBatch(B, WW);
    std::vector<std::uint64_t> CW(NP * WW);
    Dispatcher D(registry());
    for (NttRing Ring : {NttRing::Cyclic, NttRing::Negacyclic}) {
      ASSERT_TRUE(D.rnsPolyMul(Ctx, AW.data(), BW.data(), CW.data(), NP,
                               /*Batch=*/1, Ring))
          << D.error();
      auto Want = schoolbook(A, B, Ctx.modulus(), Ring);
      EXPECT_EQ(unpackBatch(CW, WW), Want)
          << "L=" << Limbs << " ring " << rewrite::nttRingName(Ring);
    }
  }
}

TEST(RnsRuntime, PolyMulBitExactLibraryOracleLargeSizes) {
  SeededRng R(0x2A54);
  // n = 256 and 1024 with batch > 1: the O(n^2) oracle is replaced by
  // the independent library-NTT-per-limb + host-CRT path.
  struct Shape {
    unsigned Limbs;
    size_t NPoints;
    size_t Batch;
  };
  for (Shape S : {Shape{2, 256, 2}, Shape{4, 1024, 1}, Shape{8, 256, 1}}) {
    RnsContext Ctx = makeBase(S.Limbs);
    unsigned WW = Ctx.wideWords();
    size_t N = S.NPoints * S.Batch;
    auto A = randomWide(R, Ctx, N), B = randomWide(R, Ctx, N);
    auto AW = packBatch(A, WW), BW = packBatch(B, WW);
    std::vector<std::uint64_t> CW(N * WW);
    Dispatcher D(registry());
    for (NttRing Ring : {NttRing::Cyclic, NttRing::Negacyclic}) {
      ASSERT_TRUE(D.rnsPolyMul(Ctx, AW.data(), BW.data(), CW.data(),
                               S.NPoints, S.Batch, Ring))
          << D.error();
      EXPECT_EQ(unpackBatch(CW, WW),
                limbLibraryOracle(Ctx, A, B, S.NPoints, Ring))
          << "L=" << S.Limbs << " n=" << S.NPoints << " ring "
          << rewrite::nttRingName(Ring);
    }
  }
}

//===----------------------------------------------------------------------===//
// Plan sharing and dispatch arithmetic
//===----------------------------------------------------------------------===//

TEST(RnsRuntime, LimbCountNeverAddsCompiledPlans) {
  // The headline canonicalization claim: PlanKey excludes the modulus
  // value, so a base of 8 limbs compiles exactly as many plans as a base
  // of 2 — every limb of one width runs through a single module per
  // kernel. Fresh registries isolate the count (the disk cache may still
  // serve objects; Builds counts plan constructions).
  SeededRng R(0x2A55);
  const size_t NP = 64, Batch = 2;
  unsigned BuildsPerLimbCount[2] = {0, 0};
  unsigned Idx = 0;
  for (unsigned Limbs : {2u, 8u}) {
    RnsContext Ctx = makeBase(Limbs);
    unsigned WW = Ctx.wideWords();
    size_t N = NP * Batch;
    auto A = randomWide(R, Ctx, N), B = randomWide(R, Ctx, N);
    auto AW = packBatch(A, WW), BW = packBatch(B, WW);
    std::vector<std::uint64_t> CW(N * WW);
    KernelRegistry Fresh;
    Dispatcher D(Fresh, nullptr, pinned(ExecBackend::Vector, 2));
    ASSERT_TRUE(D.rnsPolyMul(Ctx, AW.data(), BW.data(), CW.data(), NP,
                             Batch, NttRing::Cyclic))
        << D.error();
    // The limb-facing plans: rnsdec, butterfly, mulmod (point-wise),
    // rnsrec. 2 vs 8 limbs must not change the number built. (The
    // rnsdec/rnsrec containers differ between the two bases — 128 vs
    // 512-bit wide sides — so only the *count* is comparable, which is
    // exactly the claim.)
    BuildsPerLimbCount[Idx++] = Fresh.stats().Builds;
    EXPECT_GT(Fresh.stats().Hits, 0u) << "limbs beyond the first must hit";
  }
  EXPECT_EQ(BuildsPerLimbCount[0], BuildsPerLimbCount[1])
      << "compiled-plan count must be independent of the limb count";
}

TEST(RnsRuntime, DispatchStatsExactPerLimbArithmetic) {
  SeededRng R(0x2A56);
  RnsContext Ctx = makeBase(4);
  unsigned WW = Ctx.wideWords();
  const size_t NP = 64, Batch = 3; // log2(64) = 6 -> 3 groups at depth 2
  size_t N = NP * Batch;
  auto A = randomWide(R, Ctx, N), B = randomWide(R, Ctx, N);
  auto AW = packBatch(A, WW), BW = packBatch(B, WW);
  std::vector<std::uint64_t> CW(N * WW);
  Dispatcher D(registry(), nullptr, pinned(ExecBackend::Vector, 2));

  auto Before = D.dispatchStats();
  ASSERT_TRUE(D.rnsPolyMul(Ctx, AW.data(), BW.data(), CW.data(), NP, Batch,
                           NttRing::Cyclic))
      << D.error();
  auto After = D.dispatchStats();
  const std::uint64_t L = Ctx.numLimbs();
  // Per limb: 3 transforms of ceil(6/2) = 3 stage groups each; batches:
  // 2L decompose + L point-wise vmul + L recombine steps.
  EXPECT_EQ(After.Transforms - Before.Transforms, 3 * L);
  EXPECT_EQ(After.StageGroups - Before.StageGroups, 3 * L * 3);
  EXPECT_EQ(After.Batches - Before.Batches, 2 * L + L + L);

  // Negacyclic adds exactly zero dispatches at equal (n, depth): the ψ
  // twist and untwist ride the existing edge stage groups.
  Before = After;
  ASSERT_TRUE(D.rnsPolyMul(Ctx, AW.data(), BW.data(), CW.data(), NP, Batch,
                           NttRing::Negacyclic))
      << D.error();
  After = D.dispatchStats();
  EXPECT_EQ(After.StageGroups - Before.StageGroups, 3 * L * 3);
  EXPECT_EQ(After.Batches - Before.Batches, 2 * L + L + L);
}

//===----------------------------------------------------------------------===//
// PlanKey canonicalization of the new axes
//===----------------------------------------------------------------------===//

TEST(RnsRuntime, PlanKeyCanonicalization) {
  RnsContext Ctx = makeBase(8);
  // Decompose: wide container from the wide word count, limb modulus,
  // knobs folded (rnsdec bakes generalized Barrett + schoolbook).
  rewrite::PlanOptions Fancy;
  Fancy.Red = mw::Reduction::Montgomery;
  Fancy.MulAlg = mw::MulAlgorithm::Karatsuba;
  Fancy.FuseDepth = 3;
  Fancy.Ring = NttRing::Negacyclic;
  PlanKey Dec = PlanKey::forRns(KernelOp::RnsDecompose, Ctx.limb(0),
                                Ctx.wideWords(), Fancy);
  EXPECT_EQ(Dec.WideWords, Ctx.wideWords());
  EXPECT_EQ(Dec.ContainerBits, 512u);
  EXPECT_EQ(Dec.ModBits, 60u);
  EXPECT_EQ(Dec.Opts.Red, mw::Reduction::Barrett);
  EXPECT_EQ(Dec.Opts.MulAlg, mw::MulAlgorithm::Schoolbook);
  EXPECT_EQ(Dec.Opts.FuseDepth, 1u);
  EXPECT_EQ(Dec.Opts.Ring, NttRing::Cyclic);
  EXPECT_EQ(Dec.str(),
            "rnsdec/c512/m60/W8/w64/barrett/schoolbook/prune/noschedule/"
            "vec");

  // Recombine: the standard canonical container of the full modulus; no
  // wide-words axis (the residue port is word-sized by construction).
  PlanKey Rec = PlanKey::forRns(KernelOp::RnsRecombineStep, Ctx.modulus(),
                                /*WideWords=*/0, Fancy);
  EXPECT_EQ(Rec.WideWords, 0u);
  EXPECT_EQ(Rec.ModBits, Ctx.modulus().bitWidth());
  EXPECT_EQ(Rec.Opts.Red, mw::Reduction::Barrett);

  // The ring axis: butterfly keeps it (with the /neg suffix), every
  // other op folds it so a negacyclic base plan never splits the
  // element-wise cache entries.
  Bignum Q = Ctx.limb(0);
  PlanKey Bf = PlanKey::forModulus(KernelOp::Butterfly, Q, Fancy);
  EXPECT_EQ(Bf.Opts.Ring, NttRing::Negacyclic);
  EXPECT_NE(Bf.str().find("/neg"), std::string::npos);
  // The butterfly multiplies by Shoup's method under either reduction
  // knob, so it folds the knob but keeps the multiply rule.
  EXPECT_EQ(Bf.Opts.Red, mw::Reduction::Barrett);
  EXPECT_EQ(Bf.Opts.MulAlg, mw::MulAlgorithm::Karatsuba);
  PlanKey Mul = PlanKey::forModulus(KernelOp::MulMod, Q, Fancy);
  EXPECT_EQ(Mul.Opts.Ring, NttRing::Cyclic);
  EXPECT_EQ(Mul.str().find("/neg"), std::string::npos);
  // Cyclic butterfly keys add no ring suffix (60-bit limbs canonicalize
  // to the single-word 64-bit container).
  rewrite::PlanOptions Plain;
  EXPECT_EQ(PlanKey::forModulus(KernelOp::Butterfly, Q, Plain).str(),
            "butterfly/c64/m60/w64/barrett/schoolbook/prune/noschedule/vec");
}

//===----------------------------------------------------------------------===//
// Shape rejection through the dispatcher
//===----------------------------------------------------------------------===//

TEST(RnsRuntime, RejectsInsufficientTwoAdicity) {
  SeededRng R(0x2A57);
  RnsContext Ctx = makeBase(2, 60, /*TwoAdicity=*/4);
  unsigned WW = Ctx.wideWords();
  const size_t NP = 32; // log2 = 5 > 4 - 1: negacyclic must fail
  auto A = randomWide(R, Ctx, NP), B = randomWide(R, Ctx, NP);
  auto AW = packBatch(A, WW), BW = packBatch(B, WW);
  std::vector<std::uint64_t> CW(NP * WW);
  Dispatcher D(registry());
  EXPECT_TRUE(D.rnsPolyMul(Ctx, AW.data(), BW.data(), CW.data(), 16, 1,
                           NttRing::Cyclic))
      << D.error();
  EXPECT_FALSE(D.rnsPolyMul(Ctx, AW.data(), BW.data(), CW.data(), NP, 1,
                            NttRing::Negacyclic));
  EXPECT_NE(D.error().find("2-adicity"), std::string::npos) << D.error();
}

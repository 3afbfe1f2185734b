//===- tests/runtime/FusedNttTest.cpp - fused NTT stage pipeline --------------===//
//
// Coverage for the fused-stage NTT pipeline (runtime/NttPipeline.h):
//
//  * bit-identity of fused execution across FuseDepth {1,2,3} x backend
//    {sim-GPU, vector} x reduction knob {Barrett, Montgomery} (both bind
//    the one Shoup butterfly) x width {1,2,4} x transform sizes including
//    non-multiple stage counts (n = 32 with depth 3 leaves a 2-stage tail
//    group);
//  * absolute correctness against the O(n^2) reference DFT and the
//    schoolbook polynomial product;
//  * the dispatch-count guarantee: a batched transform issues exactly
//    ceil(log2(n)/FuseDepth) backend dispatches — no host bit-reversal
//    pass, no separate inverse-scaling dispatch;
//  * the [w | wq] twiddle tables (every entry pairs a multiplier with its
//    Shoup quotient);
//  * the autotuner's FuseDepth axis (swept per transform size, persisted
//    through the JSON tune cache) and its one-timing-per-canonical-plan
//    grid;
//  * the dispatcher's bounded binding/table caches (LRU eviction with
//    observable counters).
//
//===----------------------------------------------------------------------===//

#include "../TestUtil.h"

#include "field/PrimeField.h"
#include "field/PrimeGen.h"
#include "field/RootOfUnity.h"
#include "ntt/Negacyclic.h"
#include "ntt/ReferenceDft.h"
#include "runtime/Dispatcher.h"
#include "runtime/NttPipeline.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

using namespace moma;
using namespace moma::runtime;
using namespace moma::testutil;
using mw::Bignum;
using rewrite::ExecBackend;

namespace {

KernelRegistry &registry() {
  static KernelRegistry Reg;
  return Reg;
}

rewrite::PlanOptions pinned(ExecBackend B, unsigned Depth,
                            mw::Reduction Red = mw::Reduction::Barrett,
                            unsigned BlockDim = 0) {
  rewrite::PlanOptions O;
  O.Backend = B;
  O.BlockDim = BlockDim;
  O.FuseDepth = Depth;
  O.Red = Red;
  return O;
}

std::vector<Bignum> randomElems(Rng &R, const Bignum &Q, size_t N) {
  std::vector<Bignum> Out;
  for (size_t I = 0; I < N; ++I)
    Out.push_back(Bignum::random(R, Q));
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Stage-group planning
//===----------------------------------------------------------------------===//

TEST(FusedNtt, StageGroupSchedule) {
  // ceil(log2(n)/k) groups, full depth first, the remainder last.
  auto G = planStageGroups(/*LogN=*/8, /*FuseDepth=*/3);
  ASSERT_EQ(G.size(), 3u);
  EXPECT_EQ(G[0].Len0, 1u);
  EXPECT_EQ(G[0].Depth, 3u);
  EXPECT_EQ(G[1].Len0, 8u);
  EXPECT_EQ(G[1].Depth, 3u);
  EXPECT_EQ(G[2].Len0, 64u);
  EXPECT_EQ(G[2].Depth, 2u); // 8 = 3 + 3 + 2: non-multiple tail

  auto G1 = planStageGroups(5, 1);
  EXPECT_EQ(G1.size(), 5u) << "depth 1 is the classic one-stage-per-"
                              "dispatch walk";
  auto GBig = planStageGroups(2, 3);
  ASSERT_EQ(GBig.size(), 1u);
  EXPECT_EQ(GBig[0].Depth, 2u) << "depth clamps to log2(n)";
}

//===----------------------------------------------------------------------===//
// Bit-identity across the whole variant grid
//===----------------------------------------------------------------------===//

TEST(FusedNtt, BitIdentityAcrossDepthBackendReductionWidth) {
  SeededRng R(0xF05ED1);
  const unsigned Widths[] = {1, 2, 4};
  const size_t Sizes[] = {8, 32, 1024}; // 32 with depth 3 -> 2-stage tail
  for (unsigned W : Widths) {
    Bignum Q = field::nttPrime(64 * W - 4, 11);
    unsigned K = Dispatcher::elemWords(Q);
    for (size_t N : Sizes) {
      const size_t Batch = 2;
      auto Polys = randomElems(R, Q, N * Batch);
      auto Packed = packBatch(Polys, K);

      for (ExecBackend B : {ExecBackend::SimGpu, ExecBackend::Vector}) {
        // Reference: the other backend's Barrett, depth-1 walk, so no
        // backend is checked against itself.
        ExecBackend RefB = B == ExecBackend::SimGpu ? ExecBackend::Vector
                                                    : ExecBackend::SimGpu;
        Dispatcher DRef(registry(), nullptr, pinned(RefB, 1));
        auto Fwd = Packed;
        ASSERT_TRUE(DRef.nttForward(Q, Fwd.data(), N, Batch))
            << DRef.error();
        auto Round = Fwd;
        ASSERT_TRUE(DRef.nttInverse(Q, Round.data(), N, Batch))
            << DRef.error();
        EXPECT_EQ(Round, Packed) << "reference roundtrip, w=" << W
                                 << " n=" << N;
        for (mw::Reduction Red :
             {mw::Reduction::Barrett, mw::Reduction::Montgomery})
          for (unsigned Depth : {1u, 2u, 3u}) {
            Dispatcher D(registry(), nullptr,
                         pinned(B, Depth, Red, /*BlockDim=*/64));
            auto Data = Packed;
            ASSERT_TRUE(D.nttForward(Q, Data.data(), N, Batch))
                << D.error();
            ASSERT_EQ(Data, Fwd)
                << "forward diverges: w=" << W << " n=" << N
                << " backend=" << rewrite::execBackendName(B)
                << " red=" << mw::reductionName(Red)
                << " depth=" << Depth;
            ASSERT_TRUE(D.nttInverse(Q, Data.data(), N, Batch))
                << D.error();
            ASSERT_EQ(Data, Packed)
                << "roundtrip diverges: w=" << W << " n=" << N
                << " backend=" << rewrite::execBackendName(B)
                << " red=" << mw::reductionName(Red)
                << " depth=" << Depth;
          }
      }
    }
  }
}

TEST(FusedNtt, MatchesReferenceDft) {
  // Absolute correctness of a fused sim-GPU transform against the
  // O(n^2) DFT (not just cross-variant agreement), bound from a
  // Montgomery base plan, which folds onto the one Shoup butterfly.
  Bignum Q = field::nttPrime(124, 11);
  unsigned K = Dispatcher::elemWords(Q);
  const size_t N = 16;
  SeededRng R(0xF05ED2);
  auto X = randomElems(R, Q, N);
  Bignum Omega = field::rootOfUnity(Q, N);
  auto Want = ntt::referenceDft(X, Omega, Q);

  Dispatcher D(registry(), nullptr,
               pinned(ExecBackend::SimGpu, 3, mw::Reduction::Montgomery,
                      128));
  auto Data = packBatch(X, K);
  ASSERT_TRUE(D.nttForward(Q, Data.data(), N, 1)) << D.error();
  EXPECT_EQ(unpackBatch(Data, K), Want);
}

TEST(FusedNtt, PolyMulMatchesSchoolbook) {
  Bignum Q = field::nttPrime(60, 8);
  const size_t N = 32;
  SeededRng R(0xF05ED3);
  std::vector<Bignum> A = randomElems(R, Q, N), B = randomElems(R, Q, N);
  auto Full = ntt::referencePolyMul(A, B, Q);

  Dispatcher D(registry(), nullptr,
               pinned(ExecBackend::SimGpu, 2, mw::Reduction::Montgomery,
                      64));
  std::vector<Bignum> C;
  ASSERT_TRUE(D.polyMul(Q, A, B, C, N)) << D.error();
  for (size_t I = 0; I < N; ++I) {
    Bignum Want = Full[I];
    if (I + N < Full.size())
      Want = Want.addMod(Full[I + N], Q);
    ASSERT_EQ(C[I], Want) << "cyclic coefficient " << I;
  }
}

//===----------------------------------------------------------------------===//
// Dispatch-count probe
//===----------------------------------------------------------------------===//

TEST(FusedNtt, BatchedTransformIssuesCeilLogNOverKDispatches) {
  // The acceptance shape: n = 256 (log2 = 8), batch = 1000, depth 3 ->
  // exactly ceil(8/3) = 3 backend dispatches per transform. No separate
  // bit-reversal pass and no separate inverse-scaling dispatch exist to
  // be counted — Batches stays untouched by both directions.
  Bignum Q = field::nttPrime(60, 10);
  unsigned K = Dispatcher::elemWords(Q);
  const size_t N = 256, Batch = 1000;
  SeededRng R(0xF05ED4);
  auto Polys = randomElems(R, Q, N * 2); // random head, zero tail is fine
  std::vector<std::uint64_t> Data(N * Batch * K, 0);
  auto Head = packBatch(Polys, K);
  std::copy(Head.begin(), Head.end(), Data.begin());

  Dispatcher D(registry(), nullptr,
               pinned(ExecBackend::SimGpu, 3, mw::Reduction::Barrett,
                      256));
  ASSERT_TRUE(D.nttForward(Q, Data.data(), N, Batch)) << D.error();
  Dispatcher::DispatchStats S = D.dispatchStats();
  EXPECT_EQ(S.Transforms, 1u);
  EXPECT_EQ(S.StageGroups, 3u) << "ceil(log2(256)/3)";
  EXPECT_EQ(S.Batches, 0u) << "no host-side pass became a batch dispatch";

  ASSERT_TRUE(D.nttInverse(Q, Data.data(), N, Batch)) << D.error();
  S = D.dispatchStats();
  EXPECT_EQ(S.Transforms, 2u);
  EXPECT_EQ(S.StageGroups, 6u);
  EXPECT_EQ(S.Batches, 0u)
      << "inverse n^-1 scaling must fold into the last stage group, not "
         "dispatch a separate vmul";

  // Depth 1 on the same problem: the classic log2(n) dispatches.
  Dispatcher D1(registry(), nullptr, pinned(ExecBackend::Vector, 1));
  std::vector<std::uint64_t> Small(N * 2 * K, 0);
  ASSERT_TRUE(D1.nttForward(Q, Small.data(), N, 2)) << D1.error();
  EXPECT_EQ(D1.dispatchStats().StageGroups, 8u);
}

//===----------------------------------------------------------------------===//
// Twiddle tables
//===----------------------------------------------------------------------===//

TEST(FusedNtt, ShoupCompanionsAreTwiddleQuotients) {
  // Every entry of the five tables is [w | wq] with
  // wq = floor(w * 2^lambda / q): the butterfly multiplies by Shoup's
  // method and reads both halves of one entry.
  const size_t N = 16;
  for (unsigned Bits : {60u, 124u, 252u}) {
    Bignum Q = field::nttPrime(Bits, 8);
    unsigned Lambda = PlanKey::canonicalContainerBits(Q.bitWidth(), 64);
    for (rewrite::NttRing Ring :
         {rewrite::NttRing::Cyclic, rewrite::NttRing::Negacyclic}) {
      NttTables T;
      std::string Err;
      ASSERT_TRUE(buildNttTables(Q, N, T, &Err, Ring)) << Err;
      unsigned K = T.ElemWords, E = T.EntryWords;
      ASSERT_EQ(E, K + Lambda / 64) << Bits << "-bit q";
      bool Neg = Ring == rewrite::NttRing::Negacyclic;
      std::pair<const std::vector<std::uint64_t> *, size_t> Tables[] = {
          {&T.Tw, N - 1},
          {&T.InvTw, N - 1},
          {&T.NInv, 1},
          {&T.Twist, Neg ? N : 0},
          {&T.Untwist, Neg ? N : 0}};
      for (const auto &[Table, Entries] : Tables) {
        ASSERT_EQ(Table->size(), Entries * E) << Bits << "-bit q";
        for (size_t I = 0; I < Entries; ++I) {
          const std::uint64_t *Entry = Table->data() + I * E;
          Bignum W = unpackWordsMsbFirst(Entry, K);
          ASSERT_LT(W, Q) << "entry " << I;
          EXPECT_EQ(unpackWordsMsbFirst(Entry + K, Lambda / 64),
                    (W << Lambda) / Q)
              << Bits << "-bit q, " << rewrite::nttRingName(Ring)
              << ", entry " << I;
        }
      }
    }
  }
}

TEST(FusedNtt, TablesRejectBadShapes) {
  NttTables T;
  std::string Err;
  Bignum Q = field::nttPrime(60, 8);
  EXPECT_FALSE(buildNttTables(Q, 48, T, &Err));
  EXPECT_NE(Err.find("power of two"), std::string::npos) << Err;
  EXPECT_FALSE(buildNttTables(Q, size_t(1) << 20, T, &Err));
  EXPECT_NE(Err.find("2-adicity"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Autotuner FuseDepth axis
//===----------------------------------------------------------------------===//

namespace {

AutotunerOptions quickNttTune() {
  AutotunerOptions O;
  O.CalibrationElems = 32;
  O.MaxCalibrationElems = 128;
  O.Repeats = 1;
  O.BlockDims = {64};
  // Keep the sweep to backend x depth: 2 backend geometries (sim-GPU
  // b64, vector) x 3 depths = 6 timed candidates per transform problem.
  O.TuneReduction = false;
  O.TunePrune = false;
  O.TuneSchedule = false;
  return O;
}

} // namespace

TEST(FusedNtt, TunerSweepsFuseDepthPerTransformSize) {
  Autotuner T(registry(), quickNttTune());
  Bignum Q = field::nttPrime(60, 10);
  const TuneDecision *D64 = T.chooseNtt(Q, {}, 64, 2);
  ASSERT_NE(D64, nullptr) << T.error();
  EXPECT_GE(D64->Opts.FuseDepth, 1u);
  EXPECT_LE(D64->Opts.FuseDepth, 3u);
  EXPECT_EQ(T.stats().Tuned, 1u);
  // Same butterfly problem, different transform size: its own decision.
  const TuneDecision *D256 = T.chooseNtt(Q, {}, 256, 2);
  ASSERT_NE(D256, nullptr) << T.error();
  EXPECT_EQ(T.stats().Tuned, 2u) << "transform size is a key dimension";
  // Same shape again: reused, not re-timed.
  const TuneDecision *Again = T.chooseNtt(Q, {}, 64, 2);
  EXPECT_EQ(Again, D64);
  EXPECT_EQ(T.stats().Tuned, 2u);
  // Shape errors surface instead of mis-keying.
  EXPECT_EQ(T.chooseNtt(Q, {}, 48, 1), nullptr);
}

TEST(FusedNtt, TransformSweepTimesEachCanonicalPlanOnce) {
  // With the reduction axis on, a transform problem still times each
  // canonical butterfly plan once: the knob folds for the butterfly, so
  // 2 backend geometries x 3 depths = 6 candidates. Mulmod keeps both
  // reductions: 2 x 2 geometries = 4 more.
  AutotunerOptions O = quickNttTune();
  O.TuneReduction = true;
  Autotuner T(registry(), O);
  Bignum Q = field::nttPrime(60, 10);
  ASSERT_NE(T.chooseNtt(Q, {}, 64, 2), nullptr) << T.error();
  EXPECT_EQ(T.stats().Candidates, 6u);
  ASSERT_NE(T.choose(KernelOp::MulMod, Q), nullptr) << T.error();
  EXPECT_EQ(T.stats().Candidates, 6u + 4u);
}

TEST(FusedNtt, FuseDepthRoundTripsThroughTheTuneCache) {
  namespace fs = std::filesystem;
  std::string Path =
      (fs::temp_directory_path() / "moma-tune-fuse.json").string();
  std::remove(Path.c_str());
  Bignum Q = field::nttPrime(60, 10);

  Autotuner T1(registry(), quickNttTune());
  const TuneDecision *D1 = T1.chooseNtt(Q, {}, 128, 4);
  ASSERT_NE(D1, nullptr) << T1.error();
  rewrite::PlanOptions Won = D1->Opts;
  ASSERT_TRUE(T1.save(Path));

  Autotuner T2(registry(), quickNttTune());
  ASSERT_TRUE(T2.load(Path)) << T2.error();
  const TuneDecision *D2 = T2.chooseNtt(Q, {}, 128, 4);
  ASSERT_NE(D2, nullptr) << T2.error();
  EXPECT_TRUE(D2->FromCache) << "persisted decision must not be re-timed";
  EXPECT_EQ(T2.stats().Tuned, 0u);
  EXPECT_EQ(D2->Opts.FuseDepth, Won.FuseDepth)
      << "fuse_depth lost in the JSON round-trip";
  EXPECT_TRUE(D2->Opts == Won) << "loaded " << D2->Opts.str()
                               << ", tuned " << Won.str();
  std::remove(Path.c_str());
}

TEST(FusedNtt, AutotunedDispatcherMatchesPinnedBitForBit) {
  // End to end: a tuner-driven dispatcher (whatever depth/backend wins)
  // must agree with the interpreter's depth-1 walk on the same data.
  Bignum Q = field::nttPrime(124, 10);
  unsigned K = Dispatcher::elemWords(Q);
  const size_t N = 64, Batch = 3;
  SeededRng R(0xF05ED5);
  auto Polys = randomElems(R, Q, N * Batch);
  auto Want = packBatch(Polys, K);
  Dispatcher DRef(registry(), nullptr, pinned(ExecBackend::Interp, 1));
  ASSERT_TRUE(DRef.nttForward(Q, Want.data(), N, Batch)) << DRef.error();

  Autotuner T(registry(), quickNttTune());
  Dispatcher D(registry(), &T);
  auto Data = packBatch(Polys, K);
  ASSERT_TRUE(D.nttForward(Q, Data.data(), N, Batch)) << D.error();
  EXPECT_EQ(Data, Want);
  EXPECT_EQ(D.lastPlanOptions().FuseDepth,
            T.chooseNtt(Q, {}, N, Batch)->Opts.FuseDepth)
      << "dispatcher must run the depth the tuner picked";
}

//===----------------------------------------------------------------------===//
// Bounded binding/table caches
//===----------------------------------------------------------------------===//

TEST(FusedNtt, CachesEvictLeastRecentlyUsed) {
  Bignum Q = field::nttPrime(60, 10);
  unsigned K = Dispatcher::elemWords(Q);
  SeededRng R(0xF05ED6);
  auto Polys = randomElems(R, Q, 64);
  auto Packed = packBatch(Polys, K);
  auto Forward = [&](Dispatcher &D, size_t N) {
    auto Data = Packed;
    return D.nttForward(Q, Data.data(), N, 64 / N);
  };

  // The table cap is in bytes: size it to exactly the n=16 and n=32
  // table sets, so two of the three sizes below fit at a time.
  size_t Cap = 0;
  {
    Dispatcher Probe(registry(), nullptr, pinned(ExecBackend::Vector, 2));
    ASSERT_TRUE(Forward(Probe, 16)) << Probe.error();
    ASSERT_TRUE(Forward(Probe, 32)) << Probe.error();
    Cap = Probe.cacheCounters().TableBytes;
  }
  Dispatcher D(registry(), nullptr, pinned(ExecBackend::Vector, 2));
  D.setCacheCaps(/*MaxBoundPlans=*/2, /*MaxTableBytes=*/Cap);

  for (size_t N : {8, 16, 32, 8})
    ASSERT_TRUE(Forward(D, N)) << D.error();
  Dispatcher::CacheCounters C = D.cacheCounters();
  EXPECT_EQ(C.TableEntries, 2u);
  EXPECT_LE(C.TableBytes, Cap);
  EXPECT_EQ(C.TableEvictions, 2u)
      << "n=32 evicts n=8, re-running n=8 evicts the LRU survivor n=16";

  // Three distinct moduli bind three vadd plans through a two-entry
  // binding cache (same compiled plan, different broadcast tails).
  std::vector<std::uint64_t> A(8 * K, 1), B(8 * K, 2), Out(8 * K);
  for (unsigned Bits : {60, 59, 58}) {
    Bignum QB = field::nttPrime(Bits, 8);
    unsigned KB = Dispatcher::elemWords(QB);
    std::vector<std::uint64_t> AB(8 * KB, 1), BB(8 * KB, 2),
        OB(8 * KB);
    ASSERT_TRUE(D.vadd(QB, AB.data(), BB.data(), OB.data(), 8))
        << D.error();
  }
  C = D.cacheCounters();
  EXPECT_LE(C.BoundEntries, 2u);
  EXPECT_GE(C.BoundEvictions, 1u);

  // Eviction is capacity management, not correctness: the evicted
  // binding rebinds transparently.
  auto Data = Packed;
  ASSERT_TRUE(D.nttForward(Q, Data.data(), 16, 4)) << D.error();
  ASSERT_TRUE(D.nttInverse(Q, Data.data(), 16, 4)) << D.error();
  EXPECT_EQ(Data, Packed);
}

TEST(FusedNtt, TableCacheChargesBytesNotEntries) {
  // Many small table sets: 96 distinct n = 64 sets at 252 bits (48
  // moduli x both rings — prime generation dominates the test's time)
  // all stay resident under the default byte cap. An entry-count cap of
  // 64 rebuilt a third of them on every pass.
  Dispatcher D(registry(), nullptr, pinned(ExecBackend::Vector, 2));
  const size_t N = 64;
  for (unsigned T = 0; T < 48; ++T) {
    Bignum Q = field::nttPrime(252, 16, 7000 + T);
    std::vector<std::uint64_t> Data(N * Dispatcher::elemWords(Q), 0);
    for (rewrite::NttRing Ring :
         {rewrite::NttRing::Cyclic, rewrite::NttRing::Negacyclic})
      ASSERT_TRUE(D.nttForward(Q, Data.data(), N, 1, Ring)) << D.error();
  }
  Dispatcher::CacheCounters C = D.cacheCounters();
  EXPECT_EQ(C.TableEntries, 96u);
  EXPECT_EQ(C.TableEvictions, 0u);

  // Few large ones: a cap below two 2^14-point table sets keeps only
  // the newer set.
  Dispatcher Big(registry(), nullptr, pinned(ExecBackend::Vector, 2));
  const size_t BigN = size_t(1) << 14;
  const Bignum Q1 = field::nttPrime(252, 16, 7000),
               Q2 = field::nttPrime(252, 16, 7001);
  std::vector<std::uint64_t> Data(BigN * Dispatcher::elemWords(Q1), 0);
  ASSERT_TRUE(Big.nttForward(Q1, Data.data(), BigN, 1)) << Big.error();
  const size_t OneSet = Big.cacheCounters().TableBytes;
  Big.setCacheCaps(/*MaxBoundPlans=*/128, /*MaxTableBytes=*/OneSet * 3 / 2);
  ASSERT_TRUE(Big.nttForward(Q2, Data.data(), BigN, 1)) << Big.error();
  C = Big.cacheCounters();
  EXPECT_EQ(C.TableEntries, 1u);
  EXPECT_EQ(C.TableEvictions, 1u);
  EXPECT_EQ(C.TableBytes, OneSet) << "the Q2 set should have replaced Q1's";
}

//===----------------------------------------------------------------------===//
// Negacyclic ring (x^n + 1): ψ edge folds through the fused pipeline
//===----------------------------------------------------------------------===//

TEST(FusedNtt, NegacyclicBitIdentityAcrossDepthBackendReduction) {
  // The runtime's negacyclic transform must be bit-identical to the
  // library ψ-twist reference (ntt/Negacyclic.h) — both derive ψ and ω
  // from the same per-modulus generator, so even the transform-domain
  // values match, not just ring products — across every fusion depth,
  // backend and reduction knob, including the single-group in-place
  // shape (log2(n) <= depth) and multi-group ping-pong shapes.
  SeededRng R(0xF05ED7);
  const unsigned Widths[] = {1, 2};
  const size_t Sizes[] = {8, 32};
  for (unsigned W : Widths) {
    Bignum Q = field::nttPrime(64 * W - 4, 11);
    unsigned K = Dispatcher::elemWords(Q);
    for (size_t N : Sizes) {
      auto Poly = randomElems(R, Q, N);
      auto Packed = packBatch(Poly, K);
      // Library reference forward (width-dispatched by hand: the plan is
      // a compile-time-width template).
      auto LibForward = [&](std::vector<Bignum> In) {
        std::vector<Bignum> Out;
        if (W == 1) {
          field::PrimeField<1> F(Q);
          ntt::NegacyclicPlan<1> Plan(F, N);
          std::vector<field::PrimeField<1>::Element> E;
          for (const Bignum &V : In)
            E.push_back(F.fromBignum(V));
          Plan.forward(E.data());
          for (const auto &V : E)
            Out.push_back(V.toBignum());
        } else {
          field::PrimeField<2> F(Q);
          ntt::NegacyclicPlan<2> Plan(F, N);
          std::vector<field::PrimeField<2>::Element> E;
          for (const Bignum &V : In)
            E.push_back(F.fromBignum(V));
          Plan.forward(E.data());
          for (const auto &V : E)
            Out.push_back(V.toBignum());
        }
        return Out;
      };
      std::vector<Bignum> Ref = LibForward(Poly);

      for (ExecBackend B : {ExecBackend::SimGpu, ExecBackend::Vector})
        for (unsigned Depth = 1; Depth <= 3; ++Depth)
          for (mw::Reduction Red :
               {mw::Reduction::Barrett, mw::Reduction::Montgomery}) {
            Dispatcher D(registry(), nullptr, pinned(B, Depth, Red));
            auto Data = Packed;
            ASSERT_TRUE(D.nttForward(Q, Data.data(), N, 1,
                                     rewrite::NttRing::Negacyclic))
                << D.error();
            EXPECT_EQ(unpackBatch(Data, K), Ref)
                << "w=" << W << " n=" << N << " depth=" << Depth
                << " backend=" << rewrite::execBackendName(B)
                << " red=" << mw::reductionName(Red);
            ASSERT_TRUE(D.nttInverse(Q, Data.data(), N, 1,
                                     rewrite::NttRing::Negacyclic))
                << D.error();
            EXPECT_EQ(unpackBatch(Data, K), Poly)
                << "negacyclic roundtrip, w=" << W << " n=" << N
                << " depth=" << Depth;
          }
    }
  }
}

TEST(FusedNtt, NegacyclicPolyMulMatchesLibraryAndWrapsWithSignFlip) {
  SeededRng R(0xF05ED9);
  Bignum Q = field::nttPrime(60, 8);
  const size_t N = 16;
  field::PrimeField<1> F(Q);
  ntt::NegacyclicPlan<1> Plan(F, N);
  std::vector<Bignum> A = randomElems(R, Q, N), B = randomElems(R, Q, N);

  std::vector<field::PrimeField<1>::Element> EA, EB;
  for (size_t I = 0; I < N; ++I) {
    EA.push_back(F.fromBignum(A[I]));
    EB.push_back(F.fromBignum(B[I]));
  }
  auto EC = ntt::polyMulNegacyclic(Plan, EA, EB);

  Dispatcher D(registry());
  std::vector<Bignum> C;
  ASSERT_TRUE(D.polyMul(Q, A, B, C, N, rewrite::NttRing::Negacyclic))
      << D.error();
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(C[I], EC[I].toBignum()) << "coefficient " << I;

  // The defining identity: x^(n-1) * x = x^n = -1.
  std::vector<Bignum> XPow(N, Bignum(0)), XOne(N, Bignum(0));
  XPow[N - 1] = Bignum(1);
  XOne[1] = Bignum(1);
  ASSERT_TRUE(
      D.polyMul(Q, XPow, XOne, C, N, rewrite::NttRing::Negacyclic))
      << D.error();
  EXPECT_EQ(C[0], Q - Bignum(1)) << "x^n must wrap to -1";
  for (size_t I = 1; I < N; ++I)
    EXPECT_EQ(C[I], Bignum(0));
}

TEST(FusedNtt, NegacyclicAddsZeroDispatchesAtEqualShape) {
  // The edge-fold guarantee: at equal (n, depth, batch), a negacyclic
  // polyMul issues exactly the dispatch sequence of the cyclic one — the
  // ψ twist and the untwist·n^-1 ride stage groups that already exist.
  SeededRng R(0xF05EDA);
  Bignum Q = field::nttPrime(60, 10);
  unsigned K = Dispatcher::elemWords(Q);
  const size_t N = 256, Batch = 4;
  auto Polys = randomElems(R, Q, N * Batch);
  auto A = packBatch(Polys, K), B = A;
  std::vector<std::uint64_t> C(A.size());

  for (ExecBackend BK : {ExecBackend::SimGpu, ExecBackend::Vector})
    for (unsigned Depth : {1u, 3u}) {
      Dispatcher D(registry(), nullptr, pinned(BK, Depth));
      ASSERT_TRUE(D.polyMul(Q, A.data(), B.data(), C.data(), N, Batch,
                            rewrite::NttRing::Cyclic))
          << D.error();
      auto Cyc = D.dispatchStats();
      ASSERT_TRUE(D.polyMul(Q, A.data(), B.data(), C.data(), N, Batch,
                            rewrite::NttRing::Negacyclic))
          << D.error();
      auto Neg = D.dispatchStats();
      EXPECT_EQ(Neg.StageGroups - Cyc.StageGroups, Cyc.StageGroups)
          << "negacyclic stage groups, depth " << Depth;
      EXPECT_EQ(Neg.Batches - Cyc.Batches, Cyc.Batches)
          << "negacyclic batch dispatches, depth " << Depth;
      EXPECT_EQ(Neg.Transforms - Cyc.Transforms, Cyc.Transforms);
    }
}

TEST(FusedNtt, NegacyclicTunerDecisionsAreRingKeyedAndPersist) {
  namespace fs = std::filesystem;
  std::string Path =
      (fs::temp_directory_path() / "moma-tune-ring.json").string();
  std::remove(Path.c_str());
  Bignum Q = field::nttPrime(60, 10);
  rewrite::PlanOptions NegBase;
  NegBase.Ring = rewrite::NttRing::Negacyclic;

  Autotuner T(registry(), quickNttTune());
  const TuneDecision *Cyc = T.chooseNtt(Q, {}, 64, 2);
  ASSERT_NE(Cyc, nullptr) << T.error();
  const TuneDecision *Neg = T.chooseNtt(Q, NegBase, 64, 2);
  ASSERT_NE(Neg, nullptr) << T.error();
  EXPECT_EQ(T.stats().Tuned, 2u)
      << "the ring must key its own decision, not reuse the cyclic one";
  EXPECT_EQ(Neg->Opts.Ring, rewrite::NttRing::Negacyclic)
      << "candidates must carry the base ring through canonicalization";
  ASSERT_TRUE(T.save(Path));

  Autotuner T2(registry(), quickNttTune());
  ASSERT_TRUE(T2.load(Path)) << T2.error();
  const TuneDecision *Again = T2.chooseNtt(Q, NegBase, 64, 2);
  ASSERT_NE(Again, nullptr) << T2.error();
  EXPECT_TRUE(Again->FromCache);
  EXPECT_EQ(T2.stats().Tuned, 0u);
  EXPECT_EQ(Again->Opts.Ring, rewrite::NttRing::Negacyclic)
      << "ring lost in the JSON round-trip";
  std::remove(Path.c_str());
}

//===- tests/runtime/RuntimeTest.cpp - plan cache / tuner / dispatcher ---------===//
//
// Unit coverage for the batched-dispatch runtime: PlanKey canonicalization,
// KernelRegistry caching behavior, Dispatcher batch semantics against the
// Bignum oracle and the ntt:: engine, and Autotuner decision persistence.
//
//===----------------------------------------------------------------------===//

#include "../TestUtil.h"

#include "field/PrimeField.h"
#include "field/PrimeGen.h"
#include "ntt/Ntt.h"
#include "ntt/ReferenceDft.h"
#include "runtime/Autotuner.h"
#include "runtime/Backend.h"
#include "runtime/Dispatcher.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

using namespace moma;
using namespace moma::runtime;
using namespace moma::testutil;
using mw::Bignum;

namespace {

/// Shared registry: plans compiled by one test are cache hits for the next.
KernelRegistry &registry() {
  static KernelRegistry Reg;
  return Reg;
}

Bignum testModulus(unsigned Bits) { return field::nttPrime(Bits, 16); }

std::vector<Bignum> randomElems(Rng &R, const Bignum &Q, size_t N) {
  std::vector<Bignum> Out;
  for (size_t I = 0; I < N; ++I)
    Out.push_back(Bignum::random(R, Q));
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// PlanKey
//===----------------------------------------------------------------------===//

TEST(PlanKey, CanonicalContainerIsSmallestPow2WordFit) {
  EXPECT_EQ(PlanKey::canonicalContainerBits(60, 64), 64u);
  EXPECT_EQ(PlanKey::canonicalContainerBits(61, 64), 128u);
  EXPECT_EQ(PlanKey::canonicalContainerBits(124, 64), 128u);
  EXPECT_EQ(PlanKey::canonicalContainerBits(125, 64), 256u);
  EXPECT_EQ(PlanKey::canonicalContainerBits(380, 64), 512u);
  EXPECT_EQ(PlanKey::canonicalContainerBits(753, 64), 1024u);
}

TEST(PlanKey, ForModulusDerivesWidthsFromTheModulus) {
  Bignum Q = testModulus(124);
  PlanKey K = PlanKey::forModulus(KernelOp::MulMod, Q);
  EXPECT_EQ(K.ModBits, 124u);
  EXPECT_EQ(K.ContainerBits, 128u);
  EXPECT_EQ(K.problemStr(), "mulmod/c128/m124/w64");
  EXPECT_EQ(K.str(), "mulmod/c128/m124/w64/barrett/schoolbook/prune/"
                     "noschedule/vec");
}

TEST(PlanKey, NonMultiplyingOpsFoldTheVariantKnobs) {
  Bignum Q = testModulus(124);
  rewrite::PlanOptions Mont;
  Mont.Red = mw::Reduction::Montgomery;
  Mont.MulAlg = mw::MulAlgorithm::Karatsuba;
  PlanKey A = PlanKey::forModulus(KernelOp::AddMod, Q, Mont);
  PlanKey B = PlanKey::forModulus(KernelOp::AddMod, Q);
  EXPECT_EQ(A.str(), B.str()) << "addmod has no multiply: one cache entry";
  PlanKey M = PlanKey::forModulus(KernelOp::MulMod, Q, Mont);
  EXPECT_NE(M.str(), PlanKey::forModulus(KernelOp::MulMod, Q).str());
}

//===----------------------------------------------------------------------===//
// KernelRegistry
//===----------------------------------------------------------------------===//

TEST(KernelRegistry, SecondRequestIsACacheHit) {
  PlanKey Key = PlanKey::forModulus(KernelOp::MulMod, testModulus(124));
  auto P1 = registry().get(Key);
  ASSERT_NE(P1, nullptr) << registry().error();
  KernelRegistry::Stats Before = registry().stats();
  auto P2 = registry().get(Key);
  ASSERT_NE(P2, nullptr);
  EXPECT_EQ(P1.get(), P2.get());
  EXPECT_EQ(registry().stats().Hits, Before.Hits + 1);
  EXPECT_EQ(registry().stats().Builds, Before.Builds);
}

TEST(KernelRegistry, PortLayoutMatchesTheKernelShape) {
  PlanKey Key = PlanKey::forModulus(KernelOp::Butterfly, testModulus(124));
  auto P = registry().get(Key);
  ASSERT_NE(P, nullptr) << registry().error();
  EXPECT_EQ(P->NumOutputs, 2u);     // xo, yo
  EXPECT_EQ(P->NumDataInputs, 4u);  // x, y, w, wq (Shoup companion)
  EXPECT_EQ(P->ElemWords, 2u);      // 124-bit modulus
  ASSERT_EQ(P->AuxWords.size(), 1u); // q
  EXPECT_EQ(P->AuxWords[0], 2u);
  rewrite::PlanOptions Mont;
  Mont.Red = mw::Reduction::Montgomery;
  // The butterfly multiplies by Shoup's method under either reduction
  // knob: a Montgomery key folds onto the same cached plan.
  auto PM = registry().get(PlanKey::forModulus(KernelOp::Butterfly,
                                               testModulus(124), Mont));
  ASSERT_NE(PM, nullptr) << registry().error();
  EXPECT_EQ(PM.get(), P.get());
  auto PMM = registry().get(PlanKey::forModulus(KernelOp::MulMod,
                                                testModulus(124), Mont));
  ASSERT_NE(PMM, nullptr) << registry().error();
  ASSERT_EQ(PMM->AuxWords.size(), 3u) // q, qinv, r2: mulmod stays
      << "plain-domain (double REDC)"; // domain-free on both ends
}

TEST(KernelRegistry, RejectsNon64BitWords) {
  PlanKey Key = PlanKey::forModulus(KernelOp::MulMod, testModulus(124));
  Key.Opts.TargetWordBits = 32;
  EXPECT_EQ(registry().get(Key), nullptr);
  EXPECT_NE(registry().error().find("64-bit"), std::string::npos);
}

TEST(KernelRegistry, RunBatchValidatesShapes) {
  PlanKey Key = PlanKey::forModulus(KernelOp::MulMod, testModulus(124));
  auto P = registry().get(Key);
  ASSERT_NE(P, nullptr) << registry().error();
  BatchArgs Bad; // no pointers at all
  std::string Err;
  EXPECT_FALSE(registry().backendFor(Key).runBatch(*P, Bad, 1, 1, &Err));
  EXPECT_NE(Err.find("shape mismatch"), std::string::npos) << Err;

  // The interp backend walks its own element loop and names the port
  // array that is missing.
  rewrite::PlanOptions Interp;
  Interp.Backend = rewrite::ExecBackend::Interp;
  PlanKey IKey = PlanKey::forModulus(KernelOp::MulMod, testModulus(124),
                                     Interp);
  auto PI = registry().get(IKey);
  ASSERT_NE(PI, nullptr) << registry().error();
  Err.clear();
  EXPECT_FALSE(registry().backendFor(IKey).runBatch(*PI, Bad, 1, 1, &Err));
  EXPECT_NE(Err.find("output arrays"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Dispatcher: batched BLAS vs the Bignum oracle
//===----------------------------------------------------------------------===//

TEST(Dispatcher, BatchedBlasMatchesOracle) {
  Dispatcher D(registry());
  Bignum Q = testModulus(124);
  SeededRng R(0x12D1);
  const size_t N = 97; // deliberately not a round number
  unsigned K = Dispatcher::elemWords(Q);
  std::vector<Bignum> A = randomElems(R, Q, N), B = randomElems(R, Q, N);
  auto AW = packBatch(A, K), BW = packBatch(B, K);
  std::vector<std::uint64_t> CW(N * K);

  ASSERT_TRUE(D.vadd(Q, AW.data(), BW.data(), CW.data(), N)) << D.error();
  auto C = unpackBatch(CW, K);
  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(C[I], A[I].addMod(B[I], Q)) << "vadd element " << I;

  ASSERT_TRUE(D.vsub(Q, AW.data(), BW.data(), CW.data(), N)) << D.error();
  C = unpackBatch(CW, K);
  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(C[I], A[I].subMod(B[I], Q)) << "vsub element " << I;

  ASSERT_TRUE(D.vmul(Q, AW.data(), BW.data(), CW.data(), N)) << D.error();
  C = unpackBatch(CW, K);
  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(C[I], A[I].mulMod(B[I], Q)) << "vmul element " << I;
}

TEST(Dispatcher, AxpyBroadcastsTheScalarAndRunsInPlace) {
  Dispatcher D(registry());
  Bignum Q = testModulus(124);
  SeededRng R(0x12D2);
  const size_t N = 41;
  unsigned K = Dispatcher::elemWords(Q);
  Bignum A = Bignum::random(R, Q);
  std::vector<Bignum> X = randomElems(R, Q, N), Y = randomElems(R, Q, N);
  auto AW = packWordsMsbFirst(A, K);
  auto XW = packBatch(X, K);
  auto YW = packBatch(Y, K);
  ASSERT_TRUE(D.axpy(Q, AW.data(), XW.data(), YW.data(), N)) << D.error();
  auto YOut = unpackBatch(YW, K);
  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(YOut[I], A.mulMod(X[I], Q).addMod(Y[I], Q)) << "element " << I;
}

TEST(Dispatcher, MontgomeryBasePlanAgreesWithBarrett) {
  rewrite::PlanOptions Mont;
  Mont.Red = mw::Reduction::Montgomery;
  Dispatcher DBar(registry());
  Dispatcher DMont(registry(), nullptr, Mont);
  Bignum Q = testModulus(252);
  SeededRng R(0x12D3);
  const size_t N = 29;
  unsigned K = Dispatcher::elemWords(Q);
  auto A = randomElems(R, Q, N), B = randomElems(R, Q, N);
  auto AW = packBatch(A, K), BW = packBatch(B, K);
  std::vector<std::uint64_t> C1(N * K), C2(N * K);
  ASSERT_TRUE(DBar.vmul(Q, AW.data(), BW.data(), C1.data(), N))
      << DBar.error();
  ASSERT_TRUE(DMont.vmul(Q, AW.data(), BW.data(), C2.data(), N))
      << DMont.error();
  EXPECT_EQ(DMont.lastPlanOptions().Red, mw::Reduction::Montgomery);
  EXPECT_EQ(C1, C2) << "both reductions compute the plain-domain product";
}

TEST(Dispatcher, RejectsEvenModulusWithErrorInsteadOfAborting) {
  Dispatcher D(registry());
  Bignum Even = Bignum::powerOfTwo(100) + Bignum(2);
  std::vector<std::uint64_t> Buf(2 * 2, 0);
  EXPECT_FALSE(D.vmul(Even, Buf.data(), Buf.data(), Buf.data(), 2));
  EXPECT_NE(D.error().find("odd"), std::string::npos) << D.error();
}

TEST(Dispatcher, NonMultiplyingOpsBindOnceUnderAnyBasePlan) {
  // vadd folds the reduction knob away (PlanKey canonicalization); the
  // per-modulus binding cache must still hit when the dispatcher's base
  // plan carries non-default knobs.
  rewrite::PlanOptions Mont;
  Mont.Red = mw::Reduction::Montgomery;
  Dispatcher D(registry(), nullptr, Mont);
  Bignum Q = testModulus(124);
  SeededRng R(0x12D8);
  const size_t N = 8;
  unsigned K = Dispatcher::elemWords(Q);
  auto A = randomElems(R, Q, N), B = randomElems(R, Q, N);
  auto AW = packBatch(A, K), BW = packBatch(B, K);
  std::vector<std::uint64_t> CW(N * K);
  ASSERT_TRUE(D.vadd(Q, AW.data(), BW.data(), CW.data(), N)) << D.error();
  KernelRegistry::Stats After = registry().stats();
  ASSERT_TRUE(D.vadd(Q, AW.data(), BW.data(), CW.data(), N)) << D.error();
  EXPECT_EQ(registry().stats().Hits, After.Hits)
      << "second call must come from the dispatcher's bound-plan cache";
  EXPECT_EQ(registry().stats().Builds, After.Builds);
  auto C = unpackBatch(CW, K);
  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(C[I], A[I].addMod(B[I], Q));
}

//===----------------------------------------------------------------------===//
// Dispatcher: batched NTT engine
//===----------------------------------------------------------------------===//

TEST(Dispatcher, BatchedNttMatchesTheEngine) {
  Dispatcher D(registry());
  auto F = field::PrimeField<2>::evaluationField(16);
  const Bignum &Q = F.modulusBig();
  const size_t N = 64, Batch = 3;
  unsigned K = Dispatcher::elemWords(Q);
  SeededRng R(0x12D4);

  std::vector<Bignum> Polys = randomElems(R, Q, N * Batch);
  auto Data = packBatch(Polys, K);
  ASSERT_TRUE(D.nttForward(Q, Data.data(), N, Batch)) << D.error();
  auto Got = unpackBatch(Data, K);

  for (size_t B = 0; B < Batch; ++B) {
    std::vector<field::PrimeField<2>::Element> X;
    for (size_t I = 0; I < N; ++I)
      X.push_back(F.fromBignum(Polys[B * N + I]));
    ntt::NttPlan<2> Plan(F, N);
    Plan.forward(X.data());
    for (size_t I = 0; I < N; ++I)
      ASSERT_EQ(Got[B * N + I], X[I].toBignum())
          << "batch " << B << " index " << I;
  }
}

TEST(Dispatcher, InverseUndoesForward) {
  Dispatcher D(registry());
  Bignum Q = testModulus(124);
  const size_t N = 128, Batch = 2;
  unsigned K = Dispatcher::elemWords(Q);
  SeededRng R(0x12D5);
  std::vector<Bignum> Polys = randomElems(R, Q, N * Batch);
  auto Data = packBatch(Polys, K);
  auto Orig = Data;
  ASSERT_TRUE(D.nttForward(Q, Data.data(), N, Batch)) << D.error();
  EXPECT_NE(Data, Orig);
  ASSERT_TRUE(D.nttInverse(Q, Data.data(), N, Batch)) << D.error();
  EXPECT_EQ(Data, Orig);
}

TEST(Dispatcher, BatchedPolyMulMatchesReference) {
  Dispatcher D(registry());
  Bignum Q = testModulus(124);
  const size_t N = 32, Terms = 16, Batch = 4;
  unsigned K = Dispatcher::elemWords(Q);
  SeededRng R(0x12D6);

  std::vector<Bignum> A, B;
  std::vector<std::uint64_t> AW, BW;
  for (size_t P = 0; P < Batch; ++P) {
    auto PA = randomElems(R, Q, Terms), PB = randomElems(R, Q, Terms);
    PA.resize(N, Bignum(0));
    PB.resize(N, Bignum(0));
    auto WA = packBatch(PA, K), WB = packBatch(PB, K);
    AW.insert(AW.end(), WA.begin(), WA.end());
    BW.insert(BW.end(), WB.begin(), WB.end());
    A.insert(A.end(), PA.begin(), PA.end());
    B.insert(B.end(), PB.begin(), PB.end());
  }
  std::vector<std::uint64_t> CW(Batch * N * K);
  ASSERT_TRUE(D.polyMul(Q, AW.data(), BW.data(), CW.data(), N, Batch))
      << D.error();
  auto C = unpackBatch(CW, K);
  for (size_t P = 0; P < Batch; ++P) {
    std::vector<Bignum> PA(A.begin() + P * N, A.begin() + P * N + Terms);
    std::vector<Bignum> PB(B.begin() + P * N, B.begin() + P * N + Terms);
    auto Ref = ntt::referencePolyMul(PA, PB, Q); // deg < n: no wraparound
    for (size_t I = 0; I < Ref.size(); ++I)
      ASSERT_EQ(C[P * N + I], Ref[I]) << "poly " << P << " coeff " << I;
  }
}

TEST(Dispatcher, RejectsBadNttShapes) {
  Dispatcher D(registry());
  Bignum Q = testModulus(124);
  std::vector<std::uint64_t> Data(6 * 2);
  EXPECT_FALSE(D.nttForward(Q, Data.data(), 6, 1));
  EXPECT_NE(D.error().find("power of two"), std::string::npos);
  // 2-adicity exhausted: nttPrime(124, 16) supports at most 2^16.
  EXPECT_FALSE(D.nttForward(Q, Data.data(), size_t(1) << 20, 0));
  EXPECT_NE(D.error().find("2-adicity"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Autotuner
//===----------------------------------------------------------------------===//

namespace {

AutotunerOptions quickTune() {
  AutotunerOptions O;
  O.CalibrationElems = 32;
  O.Repeats = 1;
  return O;
}

} // namespace

TEST(Autotuner, TunesOnceThenReuses) {
  Autotuner T(registry(), quickTune());
  Bignum Q = testModulus(124);
  const TuneDecision *D1 = T.choose(KernelOp::MulMod, Q);
  ASSERT_NE(D1, nullptr) << T.error();
  EXPECT_EQ(T.stats().Tuned, 1u);
  EXPECT_GT(T.stats().Candidates, 1u) << "swept multiple variants";
  EXPECT_GT(D1->NsPerElem, 0.0);
  const TuneDecision *D2 = T.choose(KernelOp::MulMod, Q);
  EXPECT_EQ(D1, D2);
  EXPECT_EQ(T.stats().Tuned, 1u);
  EXPECT_EQ(T.stats().Reused, 1u);
}

TEST(Autotuner, DecisionsSurviveSaveAndLoad) {
  namespace fs = std::filesystem;
  std::string Path =
      (fs::temp_directory_path() / "moma-tune-test.json").string();
  std::remove(Path.c_str());

  // Mulmod sweeps both reductions, so the reduction field round-trips.
  Bignum Q = testModulus(252);
  Autotuner T1(registry(), quickTune());
  const TuneDecision *D1 = T1.choose(KernelOp::MulMod, Q);
  ASSERT_NE(D1, nullptr) << T1.error();
  rewrite::PlanOptions Won = D1->Opts;
  ASSERT_TRUE(T1.save(Path));

  Autotuner T2(registry(), quickTune());
  ASSERT_TRUE(T2.load(Path)) << T2.error();
  const TuneDecision *D2 = T2.choose(KernelOp::MulMod, Q);
  ASSERT_NE(D2, nullptr) << T2.error();
  EXPECT_TRUE(D2->FromCache) << "persisted decision must not be re-timed";
  EXPECT_EQ(T2.stats().Tuned, 0u);
  EXPECT_TRUE(D2->Opts == Won) << "loaded " << D2->Opts.str() << ", tuned "
                               << Won.str();
  std::remove(Path.c_str());
}

TEST(Autotuner, ButterflyTunesOnlyAsATransform) {
  Autotuner T(registry(), quickTune());
  EXPECT_EQ(T.choose(KernelOp::Butterfly, testModulus(124)), nullptr);
  EXPECT_NE(T.error().find("chooseNtt"), std::string::npos) << T.error();
  EXPECT_EQ(T.stats().Candidates, 0u);
}

TEST(Autotuner, CachePathOptionLoadsAtConstruction) {
  namespace fs = std::filesystem;
  std::string Path =
      (fs::temp_directory_path() / "moma-tune-ctor.json").string();
  std::remove(Path.c_str());
  Bignum Q = testModulus(60);

  AutotunerOptions O = quickTune();
  O.CachePath = Path;
  {
    Autotuner T(registry(), O);
    ASSERT_NE(T.choose(KernelOp::MulMod, Q), nullptr) << T.error();
    EXPECT_EQ(T.stats().Tuned, 1u);
  }
  Autotuner T2(registry(), O); // loads the file written by the tune above
  const TuneDecision *D = T2.choose(KernelOp::MulMod, Q);
  ASSERT_NE(D, nullptr) << T2.error();
  EXPECT_TRUE(D->FromCache);
  EXPECT_EQ(T2.stats().Tuned, 0u);
  std::remove(Path.c_str());
}

TEST(Autotuner, SeparateDecisionsForConflictingBasePlans) {
  // With the reduction dimension pinned, a Montgomery-base and a
  // Barrett-base caller must not share a decision entry.
  AutotunerOptions O = quickTune();
  O.TuneReduction = false;
  Autotuner T(registry(), O);
  Bignum Q = testModulus(124);
  rewrite::PlanOptions Mont;
  Mont.Red = mw::Reduction::Montgomery;
  const TuneDecision *DM = T.choose(KernelOp::MulMod, Q, Mont);
  ASSERT_NE(DM, nullptr) << T.error();
  EXPECT_EQ(DM->Opts.Red, mw::Reduction::Montgomery);
  const TuneDecision *DB = T.choose(KernelOp::MulMod, Q);
  ASSERT_NE(DB, nullptr) << T.error();
  EXPECT_EQ(DB->Opts.Red, mw::Reduction::Barrett)
      << "Barrett-base caller must not inherit the Montgomery decision";
  EXPECT_EQ(T.numDecisions(), 2u);
}

TEST(Autotuner, LoadRejectsGarbage) {
  namespace fs = std::filesystem;
  std::string Path =
      (fs::temp_directory_path() / "moma-tune-garbage.json").string();
  {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    ASSERT_NE(F, nullptr);
    std::fputs("this is not json {", F);
    std::fclose(F);
  }
  Autotuner T(registry(), quickTune());
  EXPECT_FALSE(T.load(Path));
  EXPECT_NE(T.error().find("JSON"), std::string::npos);
  std::remove(Path.c_str());
}

TEST(Autotuner, LoadRejectsOlderCacheVersions) {
  // A well-formed cache from an older format is a cold start, not a
  // partial load with defaulted fields.
  namespace fs = std::filesystem;
  std::string Path =
      (fs::temp_directory_path() / "moma-tune-v4.json").string();
  {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    ASSERT_NE(F, nullptr);
    std::fputs("{\"version\": 4, \"entries\": [{\"problem\": "
               "\"mulmod/c128/m124/n1\", \"word_bits\": 64, "
               "\"reduction\": \"barrett\", \"mulalg\": \"schoolbook\", "
               "\"prune\": true, \"schedule\": false, \"backend\": "
               "\"simgpu\", \"block_dim\": 256, \"fuse_depth\": 1, "
               "\"ring\": \"cyclic\", \"ns_per_elem\": 12.5}]}",
               F);
    std::fclose(F);
  }
  Autotuner T(registry(), quickTune());
  EXPECT_FALSE(T.load(Path));
  EXPECT_NE(T.error().find("version"), std::string::npos) << T.error();
  EXPECT_EQ(T.numDecisions(), 0u);
  std::remove(Path.c_str());
}

TEST(Autotuner, LoadSkipsBackendsItDoesNotRun) {
  // A decision naming a backend this build does not run (serial, say,
  // from a cache written while that backend existed) is skipped, so its
  // problem re-tunes on demand; the file's other entries still load.
  namespace fs = std::filesystem;
  std::string Path =
      (fs::temp_directory_path() / "moma-tune-serial.json").string();
  std::remove(Path.c_str());
  Bignum Q = testModulus(124);
  {
    Autotuner T(registry(), quickTune());
    ASSERT_NE(T.choose(KernelOp::MulMod, Q), nullptr) << T.error();
    ASSERT_NE(T.choose(KernelOp::AddMod, Q), nullptr) << T.error();
    ASSERT_TRUE(T.save(Path));
  }
  // One entry per line: the mulmod decision now names serial, the addmod
  // one vector.
  std::string Text;
  {
    std::ifstream In(Path);
    const std::string Field = "\"backend\": \"";
    for (std::string Line; std::getline(In, Line); Text += Line + "\n") {
      size_t At = Line.find(Field);
      if (At == std::string::npos)
        continue;
      size_t From = At + Field.size(), To = Line.find('"', From);
      bool Mul = Line.find("\"problem\": \"mulmod/") != std::string::npos;
      Line.replace(From, To - From, Mul ? "serial" : "vector");
    }
  }
  std::ofstream(Path) << Text;

  Autotuner T2(registry(), quickTune());
  ASSERT_TRUE(T2.load(Path)) << T2.error();
  EXPECT_EQ(T2.numDecisions(), 1u) << "the serial entry must be skipped";
  const TuneDecision *Add = T2.choose(KernelOp::AddMod, Q);
  ASSERT_NE(Add, nullptr) << T2.error();
  EXPECT_TRUE(Add->FromCache);
  EXPECT_EQ(Add->Opts.Backend, rewrite::ExecBackend::Vector);
  EXPECT_EQ(T2.stats().Tuned, 0u);
  const TuneDecision *Mul = T2.choose(KernelOp::MulMod, Q);
  ASSERT_NE(Mul, nullptr) << T2.error();
  EXPECT_FALSE(Mul->FromCache) << "the serial problem must re-tune";
  EXPECT_EQ(T2.stats().Tuned, 1u);
  std::remove(Path.c_str());
}

TEST(Autotuner, DispatcherUsesTheTunedVariant) {
  Autotuner T(registry(), quickTune());
  Dispatcher D(registry(), &T);
  Bignum Q = testModulus(124);
  SeededRng R(0x12D7);
  const size_t N = 16;
  unsigned K = Dispatcher::elemWords(Q);
  auto A = randomElems(R, Q, N), B = randomElems(R, Q, N);
  auto AW = packBatch(A, K), BW = packBatch(B, K);
  std::vector<std::uint64_t> CW(N * K);
  ASSERT_TRUE(D.vmul(Q, AW.data(), BW.data(), CW.data(), N)) << D.error();
  const TuneDecision *Dec = T.choose(KernelOp::MulMod, Q);
  ASSERT_NE(Dec, nullptr);
  EXPECT_TRUE(D.lastPlanOptions() == Dec->Opts);
  auto C = unpackBatch(CW, K);
  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(C[I], A[I].mulMod(B[I], Q));
}

//===- tests/runtime/FaultInjectionTest.cpp - chaos suite for the runtime ---===//
//
// Deterministic fault injection (support/FaultInjection.h) driven through
// every runtime site, and the degradation ladder that absorbs the damage:
// bounded retry with exponential backoff in the KernelRegistry, negative
// caching of terminally-failed keys, the interpreter fallback backend
// (bit-identical to JIT on every op class), and background promotion back
// to compiled code once the fault heals.
//
// Every test arms sites through the process-wide registry, so the suite
// always clears it on entry and exit (FaultGuard). Registries use
// memory-only JIT caches: a disk-cached .so would bypass an injected
// compile failure entirely.
//
//===----------------------------------------------------------------------===//

#include "../TestUtil.h"

#include "field/PrimeGen.h"
#include "runtime/Autotuner.h"
#include "runtime/Dispatcher.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <thread>
#include <unistd.h>

using namespace moma;
using namespace moma::runtime;
using namespace moma::testutil;
using moma::support::FaultInjection;
using moma::support::FaultPolicy;
using mw::Bignum;

namespace {

/// Arms nothing and clears everything, on both ends of every test: the
/// fault registry is process-wide state.
struct FaultGuard {
  FaultGuard() { FaultInjection::instance().clear(); }
  ~FaultGuard() { FaultInjection::instance().clear(); }
};

Bignum q60() { return field::nttPrime(60, 16); }
Bignum q124() { return field::nttPrime(124, 16); }

/// A throwaway cache directory with UseDiskCache off: every cold load is
/// a real compile, so injected compile faults actually fire.
class FreshCacheDir {
public:
  explicit FreshCacheDir(const std::string &Name)
      : Path(::testing::TempDir() + "/fault_" + Name + "_" +
             std::to_string(::getpid())) {
    std::filesystem::remove_all(Path);
  }
  ~FreshCacheDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
  jit::HostJitOptions options() const {
    jit::HostJitOptions Opts;
    Opts.CacheDir = Path;
    Opts.UseDiskCache = false;
    return Opts;
  }
  const std::string Path;
};

/// Retry policy with microscopic backoff so retry-heavy tests stay fast.
KernelRegistry::RetryPolicy fastRetry(unsigned MaxAttempts = 3) {
  KernelRegistry::RetryPolicy P;
  P.MaxAttempts = MaxAttempts;
  P.InitialBackoffUs = 50;
  P.BackoffMultiplier = 2;
  P.MaxBackoffUs = 400;
  return P;
}

std::vector<std::uint64_t> randomWords(Rng &R, const Bignum &Q, size_t N) {
  std::vector<Bignum> E;
  for (size_t I = 0; I < N; ++I)
    E.push_back(Bignum::random(R, Q));
  return packBatch(E, Dispatcher::elemWords(Q));
}

void runThreads(int N, const std::function<void(int)> &Fn) {
  std::atomic<int> Ready{0};
  std::vector<std::thread> T;
  for (int I = 0; I < N; ++I)
    T.emplace_back([&, I] {
      Ready.fetch_add(1);
      while (Ready.load() < N)
        std::this_thread::yield();
      Fn(I);
    });
  for (auto &Th : T)
    Th.join();
}

} // namespace

//===----------------------------------------------------------------------===//
// The framework itself: policies, counters, determinism
//===----------------------------------------------------------------------===//

TEST(FaultInjection, FailNTimesThenHeals) {
  FaultGuard G;
  FaultInjection &FI = FaultInjection::instance();
  FI.configure("test.site", FaultPolicy::failTimes(2));
  EXPECT_TRUE(support::faultShouldFail("test.site"));
  EXPECT_TRUE(support::faultShouldFail("test.site"));
  EXPECT_FALSE(support::faultShouldFail("test.site"));
  EXPECT_FALSE(support::faultShouldFail("test.site"));
  FaultInjection::SiteCounters C = FI.counters("test.site");
  EXPECT_EQ(C.Hits, 4u);
  EXPECT_EQ(C.Triggers, 2u);
  // An unarmed site is never counted and never fails.
  EXPECT_FALSE(support::faultShouldFail("test.other"));
  EXPECT_EQ(FI.counters("test.other").Hits, 0u);
}

TEST(FaultInjection, SpecGrammarRoundTrips) {
  FaultGuard G;
  FaultInjection &FI = FaultInjection::instance();
  std::string Err;
  ASSERT_TRUE(FI.configureFromSpec(
      "a.one=fail:1;b.two=prob:1.0:seed:7;c.three=delay:100+fail:1", &Err))
      << Err;
  EXPECT_TRUE(support::faultShouldFail("a.one"));
  EXPECT_FALSE(support::faultShouldFail("a.one"));
  EXPECT_TRUE(support::faultShouldFail("b.two")); // P = 1: every draw fails
  EXPECT_TRUE(support::faultShouldFail("c.three"));
  EXPECT_FALSE(support::faultShouldFail("c.three"));

  EXPECT_FALSE(FI.configureFromSpec("nonsense", &Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(FI.configureFromSpec("x=frob:3", &Err));
}

TEST(FaultInjection, ProbabilisticDrawsAreSeedDeterministic) {
  FaultGuard G;
  FaultInjection &FI = FaultInjection::instance();
  auto Sequence = [&] {
    FI.clear();
    FI.configure("prob.site", FaultPolicy::failProb(0.5, 0x5eed));
    std::vector<bool> S;
    for (int I = 0; I < 64; ++I)
      S.push_back(support::faultShouldFail("prob.site"));
    return S;
  };
  std::vector<bool> First = Sequence(), Second = Sequence();
  EXPECT_EQ(First, Second) << "same seed must replay the same failures";
  size_t Fails = 0;
  for (bool B : First)
    Fails += B;
  EXPECT_GT(Fails, 16u); // loose: P=0.5 over 64 draws
  EXPECT_LT(Fails, 48u);
}

TEST(FaultInjection, DelayPolicySleeps) {
  FaultGuard G;
  FaultInjection::instance().configure("slow.site",
                                       FaultPolicy::delayUs(20000));
  const auto T0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(support::faultShouldFail("slow.site")); // delay-only
  const auto Elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - T0);
  EXPECT_GE(Elapsed.count(), 15000) << "injected delay did not sleep";
}

TEST(FaultInjection, ClearDisarmsEverything) {
  FaultGuard G;
  FaultInjection &FI = FaultInjection::instance();
  FI.configure("gone.site", FaultPolicy::failAlways());
  EXPECT_TRUE(FI.anyConfigured());
  EXPECT_TRUE(support::faultShouldFail("gone.site"));
  FI.clear();
  EXPECT_FALSE(support::faultShouldFail("gone.site"));
  EXPECT_EQ(FI.counters("gone.site").Hits, 0u)
      << "clear() must zero the counters too";
}

//===----------------------------------------------------------------------===//
// The interpreter backend: bit-identical to JIT on every op class
//===----------------------------------------------------------------------===//

TEST(InterpBackend, BlasMatchesJitBothReductionsBothWidths) {
  FaultGuard G;
  SeededRng R(0x1b7e);
  FreshCacheDir Dir("interpblas");
  KernelRegistry Reg(Dir.options());
  const size_t N = 24;
  for (mw::Reduction Red : {mw::Reduction::Barrett,
                            mw::Reduction::Montgomery}) {
    for (const Bignum &Q : {q60(), q124()}) {
      const unsigned K = Dispatcher::elemWords(Q);
      rewrite::PlanOptions Jit;
      Jit.Red = Red;
      rewrite::PlanOptions Interp = Jit;
      Interp.Backend = rewrite::ExecBackend::Interp;
      Dispatcher DJ(Reg, nullptr, Jit), DI(Reg, nullptr, Interp);

      std::vector<std::uint64_t> A = randomWords(R, Q, N),
                                 B = randomWords(R, Q, N), Want(N * K),
                                 Got(N * K);
      ASSERT_TRUE(DJ.vadd(Q, A.data(), B.data(), Want.data(), N))
          << DJ.error();
      ASSERT_TRUE(DI.vadd(Q, A.data(), B.data(), Got.data(), N))
          << DI.error();
      EXPECT_EQ(Got, Want) << "vadd diverges";
      ASSERT_TRUE(DJ.vsub(Q, A.data(), B.data(), Want.data(), N));
      ASSERT_TRUE(DI.vsub(Q, A.data(), B.data(), Got.data(), N))
          << DI.error();
      EXPECT_EQ(Got, Want) << "vsub diverges";
      ASSERT_TRUE(DJ.vmul(Q, A.data(), B.data(), Want.data(), N));
      ASSERT_TRUE(DI.vmul(Q, A.data(), B.data(), Got.data(), N))
          << DI.error();
      EXPECT_EQ(Got, Want) << "vmul diverges";

      std::vector<std::uint64_t> S =
          packWordsMsbFirst(Bignum::random(R, Q), K);
      std::vector<std::uint64_t> YJ = B, YI = B;
      ASSERT_TRUE(DJ.axpy(Q, S.data(), A.data(), YJ.data(), N));
      ASSERT_TRUE(DI.axpy(Q, S.data(), A.data(), YI.data(), N))
          << DI.error();
      EXPECT_EQ(YI, YJ) << "axpy diverges";
      EXPECT_EQ(DI.lastPlanOptions().Backend, rewrite::ExecBackend::Interp);
    }
  }
}

TEST(InterpBackend, NttAndPolyMulMatchJitBothRings) {
  FaultGuard G;
  SeededRng R(0x1b7f);
  FreshCacheDir Dir("interpntt");
  KernelRegistry Reg(Dir.options());
  const Bignum Q = q60();
  const unsigned K = Dispatcher::elemWords(Q);
  rewrite::PlanOptions Jit; // FuseDepth 1; fused depths ride FuseDepth > 1
  rewrite::PlanOptions Interp = Jit;
  Interp.Backend = rewrite::ExecBackend::Interp;
  Interp.FuseDepth = 2; // exercise the fused stage-group host mirror
  Dispatcher DJ(Reg, nullptr, Jit), DI(Reg, nullptr, Interp);

  // n = 16 at depth 2 is two edge groups; n = 64 adds an in-place middle
  // group, which the staged walker runs like every other group.
  struct Shape {
    size_t N, Batch;
  };
  for (Shape S : {Shape{16, 3}, Shape{64, 2}}) {
    const size_t N = S.N, Batch = S.Batch;
    for (rewrite::NttRing Ring : {rewrite::NttRing::Cyclic,
                                  rewrite::NttRing::Negacyclic}) {
      std::vector<std::uint64_t> Data = randomWords(R, Q, N * Batch);
      std::vector<std::uint64_t> Want = Data, Got = Data;
      ASSERT_TRUE(DJ.nttForward(Q, Want.data(), N, Batch, Ring))
          << DJ.error();
      ASSERT_TRUE(DI.nttForward(Q, Got.data(), N, Batch, Ring))
          << DI.error();
      EXPECT_EQ(Got, Want) << "forward transform diverges";
      ASSERT_TRUE(DJ.nttInverse(Q, Want.data(), N, Batch, Ring));
      ASSERT_TRUE(DI.nttInverse(Q, Got.data(), N, Batch, Ring))
          << DI.error();
      EXPECT_EQ(Got, Want) << "inverse transform diverges";
      EXPECT_EQ(Got, Data) << "round trip lost the input";

      std::vector<std::uint64_t> A = randomWords(R, Q, N * Batch),
                                 B = randomWords(R, Q, N * Batch),
                                 CW(N * Batch * K), CI(N * Batch * K);
      ASSERT_TRUE(DJ.polyMul(Q, A.data(), B.data(), CW.data(), N, Batch,
                             Ring));
      ASSERT_TRUE(
          DI.polyMul(Q, A.data(), B.data(), CI.data(), N, Batch, Ring))
          << DI.error();
      EXPECT_EQ(CI, CW) << "polyMul diverges on ring "
                        << rewrite::nttRingName(Ring) << ", n = " << N;
    }
  }
}

TEST(InterpBackend, RnsMatchesJit) {
  FaultGuard G;
  SeededRng R(0x1b80);
  FreshCacheDir Dir("interprns");
  KernelRegistry Reg(Dir.options());
  std::string Err;
  RnsContext Ctx;
  ASSERT_TRUE(RnsContext::create(3, Ctx, &Err)) << Err;
  const size_t N = 8;
  const size_t Row = N * Ctx.wideWords();
  rewrite::PlanOptions Interp;
  Interp.Backend = rewrite::ExecBackend::Interp;
  Dispatcher DJ(Reg), DI(Reg, nullptr, Interp);

  std::vector<Bignum> EA, EB;
  for (size_t I = 0; I < N; ++I) {
    EA.push_back(Bignum::random(R, Ctx.modulus()));
    EB.push_back(Bignum::random(R, Ctx.modulus()));
  }
  std::vector<std::uint64_t> A = packBatch(EA, Ctx.wideWords()),
                             B = packBatch(EB, Ctx.wideWords()), Want(Row),
                             Got(Row);
  // Element-wise ops run fromWide -> tensor op -> toWide.
  auto Elementwise = [&](Dispatcher &D, bool Mul,
                         std::vector<std::uint64_t> &Out) {
    RnsTensor TA(Ctx, N, 1), TB(Ctx, N, 1), TC(Ctx, N, 1);
    return D.fromWide(A.data(), TA) && D.fromWide(B.data(), TB) &&
           (Mul ? D.rnsVMul(TA, TB, TC) : D.rnsVAdd(TA, TB, TC)) &&
           D.toWide(TC, Out.data());
  };
  ASSERT_TRUE(Elementwise(DJ, /*Mul=*/true, Want)) << DJ.error();
  ASSERT_TRUE(Elementwise(DI, /*Mul=*/true, Got)) << DI.error();
  EXPECT_EQ(Got, Want) << "rnsVMul diverges";
  ASSERT_TRUE(Elementwise(DJ, /*Mul=*/false, Want)) << DJ.error();
  ASSERT_TRUE(Elementwise(DI, /*Mul=*/false, Got)) << DI.error();
  EXPECT_EQ(Got, Want) << "rnsVAdd diverges";
  ASSERT_TRUE(DJ.rnsPolyMul(Ctx, A.data(), B.data(), Want.data(), N, 1));
  ASSERT_TRUE(DI.rnsPolyMul(Ctx, A.data(), B.data(), Got.data(), N, 1))
      << DI.error();
  EXPECT_EQ(Got, Want) << "rnsPolyMul diverges";
}

//===----------------------------------------------------------------------===//
// Site-by-site: transient faults retry, persistent faults exhaust
//===----------------------------------------------------------------------===//

TEST(FaultSites, JitCompileTransientRecoversWithExactRetryArithmetic) {
  FaultGuard G;
  FreshCacheDir Dir("jitcompile_t");
  KernelRegistry Reg(Dir.options());
  Reg.setRetryPolicy(fastRetry(3));
  FaultInjection::instance().configure("jit.compile",
                                       FaultPolicy::failTimes(2));
  auto P = Reg.get(PlanKey::forModulus(KernelOp::MulMod, q60()));
  ASSERT_NE(P, nullptr) << Reg.error();
  KernelRegistry::Stats S = Reg.stats();
  EXPECT_EQ(S.Attempts, 3u); // two faulted builds + the success
  EXPECT_EQ(S.Retries, 2u);
  EXPECT_EQ(S.Builds, 1u);
  EXPECT_EQ(S.FailedBuilds, 0u);
  EXPECT_EQ(FaultInjection::instance().counters("jit.compile").Triggers, 2u);
  EXPECT_FALSE(Reg.degraded());
}

TEST(FaultSites, JitCompilePersistentExhaustsRetriesAndDegrades) {
  FaultGuard G;
  FreshCacheDir Dir("jitcompile_p");
  KernelRegistry Reg(Dir.options());
  Reg.setRetryPolicy(fastRetry(3));
  FaultInjection::instance().configure("jit.compile",
                                       FaultPolicy::failAlways());
  auto P = Reg.get(PlanKey::forModulus(KernelOp::MulMod, q60()));
  EXPECT_EQ(P, nullptr);
  EXPECT_NE(Reg.error().find("jit.compile"), std::string::npos)
      << Reg.error();
  KernelRegistry::Stats S = Reg.stats();
  EXPECT_EQ(S.Attempts, 3u);
  EXPECT_EQ(S.Retries, 2u);
  EXPECT_EQ(S.FailedBuilds, 1u);
  EXPECT_TRUE(Reg.degraded());
  EXPECT_EQ(Reg.degradedKeys().size(), 1u);
}

TEST(FaultSites, JitDlopenFaultIsTransient) {
  FaultGuard G;
  FreshCacheDir Dir("dlopen_t");
  KernelRegistry Reg(Dir.options());
  Reg.setRetryPolicy(fastRetry(3));
  FaultInjection::instance().configure("jit.dlopen",
                                       FaultPolicy::failTimes(1));
  auto P = Reg.get(PlanKey::forModulus(KernelOp::AddMod, q60()));
  ASSERT_NE(P, nullptr) << Reg.error();
  EXPECT_EQ(Reg.stats().Retries, 1u);
  EXPECT_EQ(FaultInjection::instance().counters("jit.dlopen").Triggers, 1u);
}

TEST(FaultSites, RegistryBuildTransientAndPersistent) {
  FaultGuard G;
  FreshCacheDir Dir("regbuild");
  KernelRegistry Reg(Dir.options());
  Reg.setRetryPolicy(fastRetry(2));
  Reg.setNegativeTtlUs(0); // determinism: no fast-fail window
  FaultInjection &FI = FaultInjection::instance();

  FI.configure("registry.build", FaultPolicy::failTimes(1));
  auto P = Reg.get(PlanKey::forModulus(KernelOp::MulMod, q60()));
  ASSERT_NE(P, nullptr) << Reg.error();
  EXPECT_EQ(Reg.stats().Retries, 1u);

  FI.configure("registry.build", FaultPolicy::failAlways());
  auto P2 = Reg.get(PlanKey::forModulus(KernelOp::AddMod, q60()));
  EXPECT_EQ(P2, nullptr);
  EXPECT_NE(Reg.error().find("registry.build"), std::string::npos)
      << Reg.error();
  EXPECT_EQ(Reg.stats().FailedBuilds, 1u);

  // Heal: the same key builds on re-request and the degraded flag drops.
  FI.clear("registry.build");
  auto P3 = Reg.get(PlanKey::forModulus(KernelOp::AddMod, q60()));
  ASSERT_NE(P3, nullptr) << Reg.error();
  EXPECT_FALSE(Reg.degraded());
}

TEST(FaultSites, AutotunerTimingFaultDegradesToBasePlan) {
  FaultGuard G;
  FreshCacheDir Dir("tunefault");
  KernelRegistry Reg(Dir.options());
  AutotunerOptions TO;
  TO.CalibrationElems = 16;
  TO.MaxCalibrationElems = 16;
  TO.Repeats = 1;
  TO.TuneBackend = false;
  TO.TunePrune = false;
  TO.TuneSchedule = false;
  Autotuner Tuner(Reg, TO);
  FaultInjection::instance().configure("autotuner.time",
                                       FaultPolicy::failAlways());
  SeededRng R(0x7a3e);
  const Bignum Q = q60();
  const size_t N = 8;
  const unsigned K = Dispatcher::elemWords(Q);
  Dispatcher D(Reg, &Tuner);
  std::vector<std::uint64_t> A = randomWords(R, Q, N),
                             B = randomWords(R, Q, N), C(N * K);
  // Every candidate timing is poisoned, so the sweep fails — and the
  // ladder serves the base plan instead of failing the request.
  ASSERT_TRUE(D.vmul(Q, A.data(), B.data(), C.data(), N)) << D.error();
  EXPECT_GE(D.degradeCounters().TunerFallbacks, 1u);
  EXPECT_GT(FaultInjection::instance().counters("autotuner.time").Triggers,
            0u);

  // Reference through a clean dispatcher: the degraded path still
  // computes the right numbers.
  Dispatcher Ref(Reg);
  std::vector<std::uint64_t> Want(N * K);
  ASSERT_TRUE(Ref.vmul(Q, A.data(), B.data(), Want.data(), N));
  EXPECT_EQ(C, Want);
}

TEST(FaultSites, SimLaunchFaultFailsGracefullyThenHeals) {
  FaultGuard G;
  FreshCacheDir Dir("simlaunch");
  KernelRegistry Reg(Dir.options());
  SeededRng R(0x51f0);
  const Bignum Q = q60();
  const size_t N = 32;
  const unsigned K = Dispatcher::elemWords(Q);
  rewrite::PlanOptions Opts;
  Opts.Backend = rewrite::ExecBackend::SimGpu;
  Dispatcher D(Reg, nullptr, Opts);
  std::vector<std::uint64_t> A = randomWords(R, Q, N),
                             B = randomWords(R, Q, N), C(N * K);
  // Warm the plan first: the injected refusal must surface at launch, not
  // during the build.
  ASSERT_TRUE(D.vmul(Q, A.data(), B.data(), C.data(), N)) << D.error();

  FaultInjection::instance().configure("sim.launch",
                                       FaultPolicy::failTimes(1));
  EXPECT_FALSE(D.vmul(Q, A.data(), B.data(), C.data(), N));
  EXPECT_NE(D.error().find("sim.launch"), std::string::npos) << D.error();

  // One-shot fault: the next launch heals and matches the vector answer.
  ASSERT_TRUE(D.vmul(Q, A.data(), B.data(), C.data(), N)) << D.error();
  Dispatcher DV(Reg);
  std::vector<std::uint64_t> Want(N * K);
  ASSERT_TRUE(DV.vmul(Q, A.data(), B.data(), Want.data(), N));
  EXPECT_EQ(C, Want);
}

//===----------------------------------------------------------------------===//
// The ladder end to end: negative cache, fallback, stampede, promotion
//===----------------------------------------------------------------------===//

TEST(DegradationLadder, NegativeCacheFastFailsInsideTtl) {
  FaultGuard G;
  FreshCacheDir Dir("negcache");
  KernelRegistry Reg(Dir.options());
  Reg.setRetryPolicy(fastRetry(2));
  Reg.setNegativeTtlUs(30u * 1000 * 1000); // far beyond the test's runtime
  FaultInjection::instance().configure("jit.compile",
                                       FaultPolicy::failAlways());
  const PlanKey Key = PlanKey::forModulus(KernelOp::MulMod, q60());
  EXPECT_EQ(Reg.get(Key), nullptr);
  KernelRegistry::Stats S1 = Reg.stats();
  EXPECT_EQ(S1.Attempts, 2u);
  EXPECT_EQ(S1.NegativeHits, 0u);

  // Inside the TTL the key fast-fails: no new build attempts, the cached
  // diagnostics replayed.
  EXPECT_EQ(Reg.get(Key), nullptr);
  EXPECT_FALSE(Reg.error().empty());
  KernelRegistry::Stats S2 = Reg.stats();
  EXPECT_EQ(S2.Attempts, 2u) << "negative cache failed to stop a re-build";
  EXPECT_EQ(S2.NegativeHits, 1u);
  EXPECT_EQ(FaultInjection::instance().counters("jit.compile").Triggers, 2u)
      << "the compiler was poked again despite the negative entry";
}

TEST(DegradationLadder, StampedeObservesOneRetrySequence) {
  FaultGuard G;
  FreshCacheDir Dir("stampede");
  KernelRegistry Reg(Dir.options());
  Reg.setRetryPolicy(fastRetry(3));
  FaultInjection::instance().configure("jit.compile",
                                       FaultPolicy::failTimes(2));
  const PlanKey Key = PlanKey::forModulus(KernelOp::MulMod, q60());
  const int Threads = 8;
  std::vector<std::shared_ptr<const CompiledPlan>> Got(Threads);
  runThreads(Threads, [&](int I) { Got[I] = Reg.get(Key); });
  for (int I = 0; I < Threads; ++I) {
    ASSERT_NE(Got[I], nullptr) << Reg.error();
    EXPECT_EQ(Got[I].get(), Got[0].get());
  }
  // Eight stampeding threads share ONE flight, so the retry arithmetic is
  // exactly a single leader's: 3 attempts, 2 retries, 1 built plan, 2
  // fault triggers — not 8x any of it.
  KernelRegistry::Stats S = Reg.stats();
  EXPECT_EQ(S.Builds, 1u);
  EXPECT_EQ(S.Attempts, 3u);
  EXPECT_EQ(S.Retries, 2u);
  EXPECT_EQ(FaultInjection::instance().counters("jit.compile").Triggers, 2u);
}

TEST(DegradationLadder, PersistentFaultFallsBackToInterpBitIdentical) {
  FaultGuard G;
  SeededRng R(0xfa11);
  const Bignum Q = q60();
  const unsigned K = Dispatcher::elemWords(Q);
  const size_t VecN = 16, PolyN = 8;

  // Baseline through a healthy registry.
  FreshCacheDir DirA("ladder_ok");
  KernelRegistry RegA(DirA.options());
  Dispatcher Ref(RegA);
  std::vector<std::uint64_t> A = randomWords(R, Q, VecN),
                             B = randomWords(R, Q, VecN), WantV(VecN * K);
  std::vector<std::uint64_t> PA = randomWords(R, Q, PolyN),
                             PB = randomWords(R, Q, PolyN),
                             WantC(PolyN * K), WantN(PolyN * K);
  ASSERT_TRUE(Ref.vmul(Q, A.data(), B.data(), WantV.data(), VecN));
  ASSERT_TRUE(Ref.polyMul(Q, PA.data(), PB.data(), WantC.data(), PolyN, 1,
                          rewrite::NttRing::Cyclic));
  ASSERT_TRUE(Ref.polyMul(Q, PA.data(), PB.data(), WantN.data(), PolyN, 1,
                          rewrite::NttRing::Negacyclic));

  // Same requests against a registry whose compiler never works again.
  FreshCacheDir DirB("ladder_bad");
  KernelRegistry RegB(DirB.options());
  RegB.setRetryPolicy(fastRetry(2));
  FaultInjection::instance().configure("jit.compile",
                                       FaultPolicy::failAlways());
  Dispatcher D(RegB);
  std::vector<std::uint64_t> GotV(VecN * K), GotC(PolyN * K),
      GotN(PolyN * K);
  ASSERT_TRUE(D.vmul(Q, A.data(), B.data(), GotV.data(), VecN))
      << D.error();
  EXPECT_EQ(D.lastPlanOptions().Backend, rewrite::ExecBackend::Interp)
      << "request was not served by the fallback backend";
  ASSERT_TRUE(D.polyMul(Q, PA.data(), PB.data(), GotC.data(), PolyN, 1,
                        rewrite::NttRing::Cyclic))
      << D.error();
  ASSERT_TRUE(D.polyMul(Q, PA.data(), PB.data(), GotN.data(), PolyN, 1,
                        rewrite::NttRing::Negacyclic))
      << D.error();
  EXPECT_EQ(GotV, WantV) << "vmul diverges under degradation";
  EXPECT_EQ(GotC, WantC) << "cyclic polyMul diverges under degradation";
  EXPECT_EQ(GotN, WantN) << "negacyclic polyMul diverges under degradation";

  Dispatcher::DegradeCounters DC = D.degradeCounters();
  EXPECT_GE(DC.FallbackBinds, 2u); // mulmod + butterfly at least
  EXPECT_GE(DC.FallbackDispatches, DC.FallbackBinds);
  EXPECT_EQ(DC.Promotions, 0u);
  EXPECT_TRUE(RegB.degraded());
  EXPECT_GT(RegB.stats().FailedBuilds, 0u);
}

TEST(DegradationLadder, HealedFaultPromotesBackToJit) {
  FaultGuard G;
  SeededRng R(0x9e41);
  FreshCacheDir Dir("promote");
  KernelRegistry Reg(Dir.options());
  Reg.setRetryPolicy(fastRetry(2));
  Reg.setNegativeTtlUs(0); // promotion probes immediately, deterministic
  // Exactly one get()'s worth of failures: after the first request
  // degrades, the site has healed on its own.
  FaultInjection::instance().configure("jit.compile",
                                       FaultPolicy::failTimes(2));

  const Bignum Q = q60();
  const unsigned K = Dispatcher::elemWords(Q);
  const size_t N = 16;
  Dispatcher D(Reg);
  std::vector<std::uint64_t> A = randomWords(R, Q, N),
                             B = randomWords(R, Q, N), C(N * K);
  ASSERT_TRUE(D.vmul(Q, A.data(), B.data(), C.data(), N)) << D.error();
  EXPECT_EQ(D.lastPlanOptions().Backend, rewrite::ExecBackend::Interp);
  EXPECT_EQ(D.degradeCounters().FallbackBinds, 1u);

  // Dispatch until the background probe rebuilds the plan and the binding
  // snaps back to compiled code.
  bool Promoted = false;
  for (int I = 0; I < 200 && !Promoted; ++I) {
    ASSERT_TRUE(D.vmul(Q, A.data(), B.data(), C.data(), N)) << D.error();
    Promoted = D.degradeCounters().Promotions > 0;
    if (!Promoted)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(Promoted) << "binding never promoted after the fault healed";
  EXPECT_NE(D.lastPlanOptions().Backend, rewrite::ExecBackend::Interp);
  EXPECT_FALSE(Reg.degraded());
  EXPECT_GT(Reg.stats().Probes, 0u);

  // And the promoted binding still computes the same numbers.
  std::vector<std::uint64_t> Want(N * K);
  Dispatcher Ref(Reg);
  ASSERT_TRUE(Ref.vmul(Q, A.data(), B.data(), Want.data(), N));
  ASSERT_TRUE(D.vmul(Q, A.data(), B.data(), C.data(), N));
  EXPECT_EQ(C, Want);
}

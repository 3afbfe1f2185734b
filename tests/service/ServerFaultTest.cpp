//===- tests/service/ServerFaultTest.cpp - serving-layer chaos suite --------===//
//
// The degradation ladder as the serving layer sees it: typed error codes
// on every rejection path, request deadlines that expire queued work
// promptly without ever tearing an in-flight batch, the whole Dispatcher
// surface served bit-identically through the interpreter fallback when
// the JIT compiler is persistently broken, health() snapshots that prove
// it, and a destructor that drains cleanly while builds are faulted.
//
//===----------------------------------------------------------------------===//

#include "../TestUtil.h"
#include "ParkedWorker.h"

#include "field/PrimeGen.h"
#include "runtime/Dispatcher.h"
#include "service/Server.h"
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
using moma::service::ErrorCode;
using moma::service::Reply;
using moma::service::ServerOptions;
using moma::support::FaultInjection;
using moma::support::FaultPolicy;
using mw::Bignum;

namespace {

struct FaultGuard {
  FaultGuard() { FaultInjection::instance().clear(); }
  ~FaultGuard() { FaultInjection::instance().clear(); }
};

Bignum q60() { return field::nttPrime(60, 16); }
Bignum q124() { return field::nttPrime(124, 16); }

class FreshCacheDir {
public:
  explicit FreshCacheDir(const std::string &Name)
      : Path(::testing::TempDir() + "/srvfault_" + Name + "_" +
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

KernelRegistry::RetryPolicy fastRetry(unsigned MaxAttempts = 2) {
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
// Typed errors
//===----------------------------------------------------------------------===//

TEST(ServerFault, ErrorCodeNamesAreStable) {
  EXPECT_STREQ(service::errorCodeName(ErrorCode::Ok), "ok");
  EXPECT_STREQ(service::errorCodeName(ErrorCode::QueueFull), "queue-full");
  EXPECT_STREQ(service::errorCodeName(ErrorCode::ShuttingDown),
               "shutting-down");
  EXPECT_STREQ(service::errorCodeName(ErrorCode::DeadlineExceeded),
               "deadline-exceeded");
  EXPECT_STREQ(service::errorCodeName(ErrorCode::DispatchFailed),
               "dispatch-failed");
  EXPECT_STREQ(service::errorCodeName(ErrorCode::InvalidRequest),
               "invalid-request");
}

TEST(ServerFault, DispatchFaultYieldsTypedReplyThenHeals) {
  FaultGuard G;
  SeededRng R(0xd15b);
  FreshCacheDir Dir("dispatch");
  KernelRegistry Reg(Dir.options());
  const Bignum Q = q60();
  const size_t N = 8;
  const unsigned K = Dispatcher::elemWords(Q);
  std::vector<std::uint64_t> A = randomWords(R, Q, N),
                             B = randomWords(R, Q, N), C(N * K);

  ServerOptions O;
  O.Workers = 1;
  service::Server Srv(Reg, O);

  FaultInjection::instance().configure("server.dispatch",
                                       FaultPolicy::failTimes(1));
  Reply Bad = Srv.vmul(Q, A.data(), B.data(), C.data(), N).get();
  EXPECT_FALSE(Bad.Ok);
  EXPECT_EQ(Bad.Code, ErrorCode::DispatchFailed);
  EXPECT_NE(Bad.Error.find("server.dispatch"), std::string::npos)
      << Bad.Error;

  // One-shot fault: the next submission dispatches and matches serial.
  Reply Good = Srv.vmul(Q, A.data(), B.data(), C.data(), N).get();
  ASSERT_TRUE(Good.Ok) << Good.Error;
  EXPECT_EQ(Good.Code, ErrorCode::Ok);
  Dispatcher Ref(Reg);
  std::vector<std::uint64_t> Want(N * K);
  ASSERT_TRUE(Ref.vmul(Q, A.data(), B.data(), Want.data(), N));
  EXPECT_EQ(C, Want);
}

TEST(ServerFault, QueueFullRejectionCarriesTypedCode) {
  FaultGuard G;
  SeededRng R(0x9f11);
  FreshCacheDir Dir("qfull");
  KernelRegistry Reg(Dir.options());
  const Bignum Q = q60();
  const size_t N = 8;
  const unsigned K = Dispatcher::elemWords(Q);
  // Warm the plan so queued work drains fast once the worker unparks.
  {
    Dispatcher Warm(Reg);
    std::vector<std::uint64_t> A = randomWords(R, Q, N),
                               B = randomWords(R, Q, N), C(N * K);
    ASSERT_TRUE(Warm.vadd(Q, A.data(), B.data(), C.data(), N))
        << Warm.error();
  }

  std::vector<std::uint64_t> PA = randomWords(R, Q, N),
                             PB = randomWords(R, Q, N), PC(N * K);
  const int Flood = 6;
  std::vector<std::vector<std::uint64_t>> VC(
      Flood, std::vector<std::uint64_t>(N * K));
  std::vector<std::future<Reply>> F;
  {
    ServerOptions O;
    O.Workers = 1;
    O.MaxBatch = 2;
    O.QueueCap = 3;
    service::Server Srv(Reg, O);
    // The polyMul parks the lone worker; the flood meets an empty queue.
    ParkedWorker Park;
    F.push_back(Srv.polyMul(Q, PA.data(), PB.data(), PC.data(), N));
    Park.wait();
    for (int I = 0; I < Flood; ++I)
      F.push_back(Srv.vadd(Q, PA.data(), PB.data(), VC[I].data(), N));
    Park.release();
  }
  size_t Full = 0;
  for (auto &Fut : F) {
    Reply Rep = Fut.get();
    if (!Rep.Ok) {
      EXPECT_EQ(Rep.Code, ErrorCode::QueueFull) << Rep.Error;
      ++Full;
    } else {
      EXPECT_EQ(Rep.Code, ErrorCode::Ok);
    }
  }
  EXPECT_EQ(Full, 3u) << "QueueCap=3 should admit exactly 3 of the flood";
}

//===----------------------------------------------------------------------===//
// Deadlines
//===----------------------------------------------------------------------===//

TEST(ServerFault, DeadlineExpiresQueuedRequestUnderStalledCompile) {
  FaultGuard G;
  SeededRng R(0xdead);
  FreshCacheDir Dir("deadline");
  KernelRegistry Reg(Dir.options());
  const Bignum Q = q60();
  const size_t N = 8;
  const unsigned K = Dispatcher::elemWords(Q);
  std::vector<std::uint64_t> A = randomWords(R, Q, N),
                             B = randomWords(R, Q, N), C1(N * K), C2(N * K);

  // Every compile stalls 300ms (delay-only: it still succeeds). The lone
  // worker wedges on the first request's cold build; the second request
  // (different key, 30ms deadline) expires while queued behind it and
  // must be rejected promptly once the worker returns — never executed.
  FaultInjection::instance().configure("jit.compile",
                                       FaultPolicy::delayUs(300000));
  ServerOptions O;
  O.Workers = 1;
  service::Server Srv(Reg, O);
  std::future<Reply> F1 = Srv.vadd(Q, A.data(), B.data(), C1.data(), N);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::future<Reply> F2 = Srv.vmul(Q, A.data(), B.data(), C2.data(), N,
                                   /*DeadlineUs=*/30000);
  Srv.drain();

  Reply R1 = F1.get();
  ASSERT_TRUE(R1.Ok) << R1.Error; // the stalled batch itself still lands
  Reply R2 = F2.get();
  EXPECT_FALSE(R2.Ok);
  EXPECT_EQ(R2.Code, ErrorCode::DeadlineExceeded) << R2.Error;
  EXPECT_NE(R2.Error.find("deadline"), std::string::npos) << R2.Error;
  EXPECT_EQ(Srv.stats().DeadlineExpired, 1u);
  EXPECT_EQ(Srv.health().DeadlineExpired, 1u);
}

TEST(ServerFault, DefaultDeadlineAppliesAndBatchesAreNeverTorn) {
  FaultGuard G;
  SeededRng R(0xbeef);
  FreshCacheDir Dir("defdeadline");
  KernelRegistry Reg(Dir.options());
  const Bignum Q = q60();
  const size_t N = 8;
  const unsigned K = Dispatcher::elemWords(Q);

  // Warm the vadd plan so the in-flight batch only pays the injected
  // dispatch stall, not a compile.
  {
    Dispatcher Warm(Reg);
    std::vector<std::uint64_t> A = randomWords(R, Q, N),
                               B = randomWords(R, Q, N), C(N * K);
    ASSERT_TRUE(Warm.vadd(Q, A.data(), B.data(), C.data(), N))
        << Warm.error();
    ASSERT_TRUE(Warm.vmul(Q, A.data(), B.data(), C.data(), N))
        << Warm.error();
  }

  std::vector<std::uint64_t> A = randomWords(R, Q, N),
                             B = randomWords(R, Q, N), C1(N * K), C2(N * K);
  // Server-wide default deadline of 40ms; the dispatch site stalls 150ms.
  // The first request is taken into a batch before its deadline passes,
  // stalls in flight well past it, and must still be served (batches are
  // never torn). The second queues behind the stall and expires.
  FaultInjection::instance().configure("server.dispatch",
                                       FaultPolicy::delayUs(150000));
  ServerOptions O;
  O.Workers = 1;
  O.DefaultDeadlineUs = 40000;
  service::Server Srv(Reg, O);
  std::future<Reply> F1 = Srv.vadd(Q, A.data(), B.data(), C1.data(), N);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::future<Reply> F2 = Srv.vmul(Q, A.data(), B.data(), C2.data(), N);
  Srv.drain();

  Reply R1 = F1.get();
  ASSERT_TRUE(R1.Ok) << R1.Error;
  Reply R2 = F2.get();
  EXPECT_FALSE(R2.Ok);
  EXPECT_EQ(R2.Code, ErrorCode::DeadlineExceeded) << R2.Error;
  EXPECT_EQ(Srv.stats().DeadlineExpired, 1u);
}

//===----------------------------------------------------------------------===//
// The whole Dispatcher surface on the interpreter fallback
//===----------------------------------------------------------------------===//

TEST(ServerFault, MixedClientsBitIdenticalOnInterpFallback) {
  FaultGuard G;
  SeededRng R(0x4c11);
  const Bignum Q60 = q60(), Q124 = q124();
  const size_t VecN = 16, PolyN = 8;
  const int Clients = 4, PerClient = 12;

  // Baseline through a healthy registry (JIT plans).
  FreshCacheDir DirA("mixed_ok");
  KernelRegistry RegA(DirA.options());
  Dispatcher Ref(RegA);
  std::string Err;
  RnsContext Ctx;
  ASSERT_TRUE(RnsContext::create(2, Ctx, &Err)) << Err;
  // Every staged request kind: 0 vadd q60, 1 vmul q60, 2 vmul q124,
  // 3 pm cyc, 4 pm neg, 5 nttForward, 6 nttInverse (in place),
  // 7 rnsPolyMul.
  const int Kinds = 8;
  struct Item {
    int Kind;
    std::vector<std::uint64_t> A, B, C, Want;
  };
  std::vector<std::vector<Item>> Work(Clients);
  for (int T = 0; T < Clients; ++T)
    for (int I = 0; I < PerClient; ++I) {
      Item It;
      It.Kind = (T + I) % Kinds;
      const Bignum &Q =
          It.Kind == 2 ? Q124 : It.Kind == 7 ? Ctx.modulus() : Q60;
      const size_t N = It.Kind >= 3 ? PolyN : VecN;
      It.A = randomWords(R, Q, N);
      It.B = randomWords(R, Q, N);
      // The transforms run in place on C, so C starts as the input.
      It.C = It.Kind == 5 || It.Kind == 6
                 ? It.A
                 : std::vector<std::uint64_t>(It.A.size());
      It.Want = It.C;
      bool Ok = false;
      switch (It.Kind) {
      case 0:
        Ok = Ref.vadd(Q, It.A.data(), It.B.data(), It.Want.data(), N);
        break;
      case 1:
      case 2:
        Ok = Ref.vmul(Q, It.A.data(), It.B.data(), It.Want.data(), N);
        break;
      case 3:
        Ok = Ref.polyMul(Q, It.A.data(), It.B.data(), It.Want.data(), N, 1,
                         rewrite::NttRing::Cyclic);
        break;
      case 4:
        Ok = Ref.polyMul(Q, It.A.data(), It.B.data(), It.Want.data(), N, 1,
                         rewrite::NttRing::Negacyclic);
        break;
      case 5:
        Ok = Ref.nttForward(Q, It.Want.data(), N, 1);
        break;
      case 6:
        Ok = Ref.nttInverse(Q, It.Want.data(), N, 1);
        break;
      default:
        Ok = Ref.rnsPolyMul(Ctx, It.A.data(), It.B.data(), It.Want.data(),
                            N, 1);
        break;
      }
      ASSERT_TRUE(Ok) << Ref.error();
      Work[T].push_back(std::move(It));
    }

  // The same mixed workload against a server whose JIT never compiles:
  // every plan degrades to the interpreter rung, every reply is Ok, and
  // every output is bit-identical to the compiled baseline.
  FreshCacheDir DirB("mixed_bad");
  KernelRegistry RegB(DirB.options());
  RegB.setRetryPolicy(fastRetry(2));
  FaultInjection::instance().configure("jit.compile",
                                       FaultPolicy::failAlways());
  ServerOptions O;
  O.Workers = 2;
  O.MaxBatch = 16;
  service::Server Srv(RegB, O);
  std::atomic<int> Failures{0};
  runThreads(Clients, [&](int T) {
    std::vector<std::future<Reply>> F;
    for (Item &It : Work[T]) {
      const Bignum &Q = It.Kind == 2 ? Q124 : Q60;
      switch (It.Kind) {
      case 0:
        F.push_back(Srv.vadd(Q, It.A.data(), It.B.data(), It.C.data(),
                             VecN));
        break;
      case 1:
      case 2:
        F.push_back(Srv.vmul(Q, It.A.data(), It.B.data(), It.C.data(),
                             VecN));
        break;
      case 3:
        F.push_back(Srv.polyMul(Q, It.A.data(), It.B.data(), It.C.data(),
                                PolyN, rewrite::NttRing::Cyclic));
        break;
      case 4:
        F.push_back(Srv.polyMul(Q, It.A.data(), It.B.data(), It.C.data(),
                                PolyN, rewrite::NttRing::Negacyclic));
        break;
      case 5:
        F.push_back(Srv.nttForward(Q, It.C.data(), PolyN));
        break;
      case 6:
        F.push_back(Srv.nttInverse(Q, It.C.data(), PolyN));
        break;
      default:
        F.push_back(Srv.rnsPolyMul(Ctx, It.A.data(), It.B.data(),
                                   It.C.data(), PolyN));
        break;
      }
    }
    for (auto &Fut : F)
      if (!Fut.get().Ok)
        Failures.fetch_add(1);
  });

  EXPECT_EQ(Failures.load(), 0)
      << "degraded serving dropped requests instead of falling back";
  for (int T = 0; T < Clients; ++T)
    for (int I = 0; I < PerClient; ++I)
      EXPECT_EQ(Work[T][I].C, Work[T][I].Want)
          << "client " << T << " item " << I << " kind " << Work[T][I].Kind
          << " diverges from the compiled baseline";

  // The health snapshot proves the traffic really took the ladder.
  service::Server::Health H = Srv.health();
  EXPECT_TRUE(H.Degraded);
  EXPECT_GT(H.FallbackBinds, 0u);
  EXPECT_GE(H.FallbackDispatches, H.FallbackBinds);
  EXPECT_GT(H.FailedBuilds, 0u);
  EXPECT_GT(H.Retries, 0u);
  EXPECT_EQ(H.Promotions, 0u) << "nothing should promote while faulted";
  EXPECT_EQ(H.DeadlineExpired, 0u);
  EXPECT_EQ(H.QueueDepth, 0u);
}

TEST(ServerFault, HealthyServerReportsCleanHealth) {
  FaultGuard G;
  SeededRng R(0x6ea1);
  FreshCacheDir Dir("health");
  KernelRegistry Reg(Dir.options());
  const Bignum Q = q60();
  const size_t N = 8;
  const unsigned K = Dispatcher::elemWords(Q);
  std::vector<std::uint64_t> A = randomWords(R, Q, N),
                             B = randomWords(R, Q, N), C(N * K);
  ServerOptions O;
  O.Workers = 1;
  service::Server Srv(Reg, O);
  Reply Rep = Srv.vadd(Q, A.data(), B.data(), C.data(), N).get();
  ASSERT_TRUE(Rep.Ok) << Rep.Error;
  service::Server::Health H = Srv.health();
  EXPECT_FALSE(H.Degraded);
  EXPECT_EQ(H.FallbackBinds, 0u);
  EXPECT_EQ(H.FallbackDispatches, 0u);
  EXPECT_EQ(H.FailedBuilds, 0u);
  EXPECT_EQ(H.Rejected, 0u);
  EXPECT_EQ(H.DeadlineExpired, 0u);
  EXPECT_EQ(H.QueueDepth, 0u);
}

//===----------------------------------------------------------------------===//
// Shutdown under fault
//===----------------------------------------------------------------------===//

TEST(ServerFault, DestructorDrainsWithFaultedBuildsInFlight) {
  FaultGuard G;
  SeededRng R(0x5d0f);
  FreshCacheDir Dir("drain");
  KernelRegistry Reg(Dir.options());
  Reg.setRetryPolicy(fastRetry(2));
  const Bignum Q = q60();
  const size_t N = 8;
  const unsigned K = Dispatcher::elemWords(Q);
  const int Reqs = 10;
  std::vector<std::uint64_t> A = randomWords(R, Q, N),
                             B = randomWords(R, Q, N);
  std::vector<std::vector<std::uint64_t>> C(
      Reqs, std::vector<std::uint64_t>(N * K));

  // Builds stall (injected delay) and half of them fail outright; the
  // destructor must still flush every queued request and join without
  // hanging — every future resolves, served or typed-failed.
  std::string Err;
  ASSERT_TRUE(FaultInjection::instance().configureFromSpec(
      "jit.compile=delay:20000+prob:0.5:seed:77", &Err))
      << Err;
  std::vector<std::future<Reply>> F;
  {
    ServerOptions O;
    O.Workers = 2;
    service::Server Srv(Reg, O);
    for (int I = 0; I < Reqs; ++I)
      F.push_back(I % 2 == 0
                      ? Srv.vadd(Q, A.data(), B.data(), C[I].data(), N)
                      : Srv.vmul(Q, A.data(), B.data(), C[I].data(), N));
  } // destructor: flush + join, with builds faulting underneath

  for (int I = 0; I < Reqs; ++I) {
    ASSERT_EQ(F[I].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "destructor returned before request " << I << " resolved";
    Reply Rep = F[I].get();
    if (!Rep.Ok) {
      // Any failure must be typed: a dispatch failure (the build faulted
      // past its retries) — never a torn or abandoned promise.
      EXPECT_EQ(Rep.Code, ErrorCode::DispatchFailed) << Rep.Error;
      EXPECT_FALSE(Rep.Error.empty());
    }
  }
}

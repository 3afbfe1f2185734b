//===- tests/service/ServerTest.cpp - serving layer + MT regressions ---------===//
//
// Coverage for the concurrent serving layer (service/Server.h) and the
// thread-safety/resource-leak bugfix sweep underneath it: request
// coalescing is bit-identical to serial dispatch, cold caches
// single-flight (one compile / one plan build / one tuning sweep no
// matter how many threads race), LRU caps evict without invalidating
// held entries, failed JIT compiles leave no temp files behind, and
// missing dlsym symbols surface their dlerror text.
//
//===----------------------------------------------------------------------===//

#include "../TestUtil.h"
#include "ParkedWorker.h"

#include "field/PrimeGen.h"
#include "runtime/Backend.h"
#include "runtime/Dispatcher.h"
#include "service/Server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <unistd.h>

using namespace moma;
using namespace moma::runtime;
using namespace moma::testutil;
using moma::service::Reply;
using moma::service::ServerOptions;
using mw::Bignum;

namespace {

/// Shared registry: plans compiled by one test are cache hits for the
/// next. The single-flight / eviction tests that count builds use private
/// registries over fresh cache directories instead.
KernelRegistry &registry() {
  static KernelRegistry Reg;
  return Reg;
}

Bignum q60() { return field::nttPrime(60, 16); }
Bignum q124() { return field::nttPrime(124, 16); }

/// N random elements below Q, packed into the flat batch layout.
std::vector<std::uint64_t> randomWords(Rng &R, const Bignum &Q, size_t N) {
  std::vector<Bignum> E;
  for (size_t I = 0; I < N; ++I)
    E.push_back(Bignum::random(R, Q));
  return packBatch(E, Dispatcher::elemWords(Q));
}

/// A throwaway cache directory so compile/build counters are
/// deterministic regardless of what earlier runs left on disk.
class FreshCacheDir {
public:
  explicit FreshCacheDir(const std::string &Name)
      : Path(::testing::TempDir() + "/service_" + Name + "_" +
             std::to_string(::getpid())) {
    std::filesystem::remove_all(Path);
  }
  ~FreshCacheDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
  /// Memory-only options: UseDiskCache off makes every cold load a real
  /// compile, so Compiles/Builds counters measure single-flighting.
  jit::HostJitOptions options(bool UseDiskCache = false) const {
    jit::HostJitOptions Opts;
    Opts.CacheDir = Path;
    Opts.UseDiskCache = UseDiskCache;
    return Opts;
  }
  const std::string Path;
};

/// Runs \p Fn on \p N threads, released together after the last one
/// arrives — the race-window maximizer for the single-flight tests.
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

const char *AddSource = "extern \"C\" long moma_jit_add(long A, long B) {"
                        " return A + B; }\n";
const char *MulSource = "extern \"C\" long moma_jit_mul(long A, long B) {"
                        " return A * B; }\n";

} // namespace

//===----------------------------------------------------------------------===//
// Server: coalescing correctness
//===----------------------------------------------------------------------===//

TEST(Server, BurstCoalescesAndMatchesSerial) {
  SeededRng R(0x5e31);
  const Bignum Q = q60();
  const size_t N = 8, Reqs = 32;
  const unsigned K = Dispatcher::elemWords(Q);

  // Serial reference through the same registry (also warms the plans, so
  // the server's dispatches never straddle a JIT compile).
  Dispatcher Serial(registry());
  std::vector<std::vector<std::uint64_t>> A, B, C(Reqs), Want(Reqs);
  for (size_t I = 0; I < Reqs; ++I) {
    A.push_back(randomWords(R, Q, N));
    B.push_back(randomWords(R, Q, N));
    C[I].resize(N * K);
    Want[I].resize(N * K);
    ASSERT_TRUE(
        Serial.polyMul(Q, A[I].data(), B[I].data(), Want[I].data(), N, 1))
        << Serial.error();
  }

  ServerOptions O;
  O.Workers = 1;
  O.MaxBatch = 64;
  service::Server Srv(registry(), O);
  std::vector<std::future<Reply>> F;
  // Request 0 parks the lone worker in its dispatch; the rest of the
  // burst queues behind it and coalesces into one batch.
  submitBehindParkedWorker(Reqs, [&](size_t I) {
    F.push_back(Srv.polyMul(Q, A[I].data(), B[I].data(), C[I].data(), N));
  });
  Srv.drain();

  for (size_t I = 0; I < Reqs; ++I) {
    ASSERT_EQ(F[I].wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "drain() returned before request " << I << " was replied";
    Reply Rep = F[I].get();
    ASSERT_TRUE(Rep.Ok) << Rep.Error;
    EXPECT_EQ(C[I], Want[I]) << "request " << I
                             << " diverges from serial dispatch";
  }
  service::Server::Stats St = Srv.stats();
  EXPECT_EQ(St.Requests, Reqs);
  EXPECT_EQ(St.Rejected, 0u);
  EXPECT_EQ(St.Dispatches, 2u) << "the queued burst was not one batch";
  EXPECT_EQ(St.MaxBatchSize, Reqs - 1);
  EXPECT_EQ(St.Coalesced, Reqs - 1);
}

TEST(Server, RaggedElementwiseBurstConcatenates) {
  // Element-wise requests coalesce on the modulus alone: requests of
  // different lengths are concatenated into one flat dispatch and
  // scattered back by offset.
  SeededRng R(0x7a66);
  const Bignum Q = q124();
  const std::vector<size_t> Lens = {16, 1, 7, 33, 2, 64};
  const size_t Reqs = Lens.size();
  const unsigned K = Dispatcher::elemWords(Q);

  Dispatcher Serial(registry());
  std::vector<std::vector<std::uint64_t>> A, B, C(Reqs), Want(Reqs);
  for (size_t I = 0; I < Reqs; ++I) {
    A.push_back(randomWords(R, Q, Lens[I]));
    B.push_back(randomWords(R, Q, Lens[I]));
    C[I].resize(Lens[I] * K);
    Want[I].resize(Lens[I] * K);
    ASSERT_TRUE(Serial.vmul(Q, A[I].data(), B[I].data(), Want[I].data(),
                            Lens[I]))
        << Serial.error();
  }

  ServerOptions O;
  O.Workers = 1;
  O.MaxBatch = 64;
  service::Server Srv(registry(), O);
  std::vector<std::future<Reply>> F;
  submitBehindParkedWorker(Reqs, [&](size_t I) {
    F.push_back(
        Srv.vmul(Q, A[I].data(), B[I].data(), C[I].data(), Lens[I]));
  });
  Srv.drain();

  for (size_t I = 0; I < Reqs; ++I) {
    Reply Rep = F[I].get();
    ASSERT_TRUE(Rep.Ok) << Rep.Error;
    EXPECT_EQ(C[I], Want[I]) << "request " << I << " (length " << Lens[I]
                             << ") diverges from serial dispatch";
  }
  service::Server::Stats St = Srv.stats();
  EXPECT_EQ(St.Dispatches, 2u) << "the ragged burst was not one batch";
  EXPECT_EQ(St.MaxBatchSize, Reqs - 1);
}

TEST(Server, MixedConcurrentClientsMatchSerial) {
  SeededRng R(0xc0a1);
  const Bignum Q60 = q60(), Q124 = q124();
  const size_t VecN = 16, PolyN = 8;
  const int Clients = 4, PerClient = 40;

  // One workload item: inputs, server output slot, serial expectation.
  struct Item {
    int Kind; // 0 vadd q60, 1 vmul q60, 2 vmul q124, 3 pm cyc, 4 pm neg
    std::vector<std::uint64_t> A, B, C, Want;
  };
  Dispatcher Serial(registry());
  std::vector<std::vector<Item>> Work(Clients);
  for (int T = 0; T < Clients; ++T)
    for (int I = 0; I < PerClient; ++I) {
      Item It;
      It.Kind = (T + I) % 5;
      const Bignum &Q = It.Kind == 2 ? Q124 : Q60;
      const size_t N = It.Kind >= 3 ? PolyN : VecN;
      It.A = randomWords(R, Q, N);
      It.B = randomWords(R, Q, N);
      It.C.resize(It.A.size());
      It.Want.resize(It.A.size());
      bool Ok = false;
      switch (It.Kind) {
      case 0:
        Ok = Serial.vadd(Q, It.A.data(), It.B.data(), It.Want.data(), N);
        break;
      case 1:
      case 2:
        Ok = Serial.vmul(Q, It.A.data(), It.B.data(), It.Want.data(), N);
        break;
      case 3:
        Ok = Serial.polyMul(Q, It.A.data(), It.B.data(), It.Want.data(), N,
                            1, rewrite::NttRing::Cyclic);
        break;
      default:
        Ok = Serial.polyMul(Q, It.A.data(), It.B.data(), It.Want.data(), N,
                            1, rewrite::NttRing::Negacyclic);
        break;
      }
      ASSERT_TRUE(Ok) << Serial.error();
      Work[T].push_back(std::move(It));
    }

  ServerOptions O;
  O.Workers = 3;
  O.MaxBatch = 32;
  service::Server Srv(registry(), O);
  std::atomic<int> Failures{0};
  runThreads(Clients, [&](int T) {
    std::vector<std::future<Reply>> F;
    for (Item &It : Work[T])
      switch (It.Kind) {
      case 0:
        F.push_back(
            Srv.vadd(Q60, It.A.data(), It.B.data(), It.C.data(), VecN));
        break;
      case 1:
        F.push_back(
            Srv.vmul(Q60, It.A.data(), It.B.data(), It.C.data(), VecN));
        break;
      case 2:
        F.push_back(
            Srv.vmul(Q124, It.A.data(), It.B.data(), It.C.data(), VecN));
        break;
      case 3:
        F.push_back(Srv.polyMul(Q60, It.A.data(), It.B.data(), It.C.data(),
                                PolyN, rewrite::NttRing::Cyclic));
        break;
      default:
        F.push_back(Srv.polyMul(Q60, It.A.data(), It.B.data(), It.C.data(),
                                PolyN, rewrite::NttRing::Negacyclic));
        break;
      }
    for (auto &Fut : F)
      if (!Fut.get().Ok)
        Failures.fetch_add(1);
  });

  EXPECT_EQ(Failures.load(), 0);
  for (int T = 0; T < Clients; ++T)
    for (int I = 0; I < PerClient; ++I)
      EXPECT_EQ(Work[T][I].C, Work[T][I].Want)
          << "client " << T << " item " << I << " kind " << Work[T][I].Kind;
  service::Server::Stats St = Srv.stats();
  EXPECT_EQ(St.Requests, static_cast<std::uint64_t>(Clients * PerClient));
  EXPECT_EQ(St.Rejected, 0u);
}

TEST(Server, NttRoundTripCoalesced) {
  SeededRng R(0x17f0);
  const Bignum Q = q60();
  const size_t N = 16, Reqs = 8;

  Dispatcher Serial(registry());
  std::vector<std::vector<std::uint64_t>> Data(Reqs), Orig(Reqs),
      Want(Reqs);
  for (size_t I = 0; I < Reqs; ++I) {
    Data[I] = randomWords(R, Q, N);
    Orig[I] = Data[I];
    Want[I] = Data[I];
    ASSERT_TRUE(Serial.nttForward(Q, Want[I].data(), N, 1))
        << Serial.error();
  }

  ServerOptions O;
  O.Workers = 1;
  O.MaxBatch = 16;
  service::Server Srv(registry(), O);

  // Each direction: transform 0 parks the worker, the other Reqs - 1
  // queue behind it and run as one batched transform.
  auto RunParked = [&](bool Forward) {
    std::vector<std::future<Reply>> F;
    submitBehindParkedWorker(Reqs, [&](size_t I) {
      F.push_back(Forward ? Srv.nttForward(Q, Data[I].data(), N)
                          : Srv.nttInverse(Q, Data[I].data(), N));
    });
    for (auto &Fut : F) {
      Reply Rep = Fut.get();
      ASSERT_TRUE(Rep.Ok) << Rep.Error;
    }
  };

  RunParked(/*Forward=*/true);
  for (size_t I = 0; I < Reqs; ++I)
    EXPECT_EQ(Data[I], Want[I]) << "forward transform " << I;
  RunParked(/*Forward=*/false);
  for (size_t I = 0; I < Reqs; ++I)
    EXPECT_EQ(Data[I], Orig[I]) << "round trip " << I;
  Srv.drain(); // stats land just after the replies
  service::Server::Stats St = Srv.stats();
  EXPECT_EQ(St.Dispatches, 4u);
  EXPECT_EQ(St.MaxBatchSize, Reqs - 1);
}

TEST(Server, RnsPolyMulCoalescedMatchesSerial) {
  SeededRng R(0xa5a5);
  std::string Err;
  RnsContext Ctx;
  ASSERT_TRUE(RnsContext::create(3, Ctx, &Err)) << Err;
  const size_t N = 8, Reqs = 6;
  const size_t Row = N * Ctx.wideWords();

  Dispatcher Serial(registry());
  std::vector<std::vector<std::uint64_t>> A, B, C(Reqs), Want(Reqs);
  for (size_t I = 0; I < Reqs; ++I) {
    std::vector<Bignum> EA, EB;
    for (size_t P = 0; P < N; ++P) {
      EA.push_back(Bignum::random(R, Ctx.modulus()));
      EB.push_back(Bignum::random(R, Ctx.modulus()));
    }
    A.push_back(packBatch(EA, Ctx.wideWords()));
    B.push_back(packBatch(EB, Ctx.wideWords()));
    C[I].resize(Row);
    Want[I].resize(Row);
    ASSERT_TRUE(Serial.rnsPolyMul(Ctx, A[I].data(), B[I].data(),
                                  Want[I].data(), N, 1))
        << Serial.error();
  }

  ServerOptions O;
  O.Workers = 1;
  O.MaxBatch = 8;
  service::Server Srv(registry(), O);
  std::vector<std::future<Reply>> F;
  submitBehindParkedWorker(Reqs, [&](size_t I) {
    F.push_back(Srv.rnsPolyMul(Ctx, A[I].data(), B[I].data(), C[I].data(),
                               N));
  });
  for (auto &Fut : F) {
    Reply Rep = Fut.get();
    ASSERT_TRUE(Rep.Ok) << Rep.Error;
  }
  for (size_t I = 0; I < Reqs; ++I)
    EXPECT_EQ(C[I], Want[I]) << "wide product " << I;
  Srv.drain(); // stats land just after the replies
  EXPECT_EQ(Srv.stats().Dispatches, 2u);
  EXPECT_EQ(Srv.stats().MaxBatchSize, Reqs - 1);
}

TEST(Server, QueueCapRejectsAndDestructorFlushes) {
  SeededRng R(0x7e57);
  const Bignum Q = q60();
  const size_t PolyN = 8, VecN = 16;
  const unsigned K = Dispatcher::elemWords(Q);

  Dispatcher Serial(registry());
  std::vector<std::uint64_t> PA = randomWords(R, Q, PolyN),
                             PB = randomWords(R, Q, PolyN),
                             PC(PolyN * K), PWant(PolyN * K);
  ASSERT_TRUE(Serial.polyMul(Q, PA.data(), PB.data(), PWant.data(), PolyN, 1))
      << Serial.error();
  std::vector<std::uint64_t> VA = randomWords(R, Q, VecN),
                             VB = randomWords(R, Q, VecN), VWant(VecN * K);
  ASSERT_TRUE(Serial.vadd(Q, VA.data(), VB.data(), VWant.data(), VecN))
      << Serial.error();

  const int Flood = 6;
  std::vector<std::vector<std::uint64_t>> VC(Flood,
                                             std::vector<std::uint64_t>(
                                                 VecN * K));
  std::vector<std::future<Reply>> F;
  std::uint64_t Rejected = 0;
  {
    ServerOptions O;
    O.Workers = 1;
    O.MaxBatch = 2;
    O.QueueCap = 4;
    service::Server Srv(registry(), O);
    // The polyMul parks the lone worker in its dispatch, so the queue is
    // empty when the flood arrives: exactly QueueCap of it is admitted.
    ParkedWorker Park;
    F.push_back(Srv.polyMul(Q, PA.data(), PB.data(), PC.data(), PolyN));
    Park.wait();
    for (int I = 0; I < Flood; ++I)
      F.push_back(Srv.vadd(Q, VA.data(), VB.data(), VC[I].data(), VecN));
    Rejected = Srv.stats().Rejected;
    EXPECT_EQ(Rejected, static_cast<std::uint64_t>(Flood) - O.QueueCap);
    Park.release();
  } // destructor: waits out the parked dispatch, flushes the queue, joins

  // Every future resolved at destruction: the polyMul and the admitted
  // vadds successfully, the over-cap submissions with a rejection reply.
  ASSERT_EQ(F[0].wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  Reply Head = F[0].get();
  ASSERT_TRUE(Head.Ok) << Head.Error;
  EXPECT_EQ(PC, PWant);
  std::uint64_t Served = 0, Refused = 0;
  for (int I = 0; I < Flood; ++I) {
    ASSERT_EQ(F[I + 1].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    Reply Rep = F[I + 1].get();
    if (Rep.Ok) {
      ++Served;
      EXPECT_EQ(VC[I], VWant) << "flood item " << I;
    } else {
      ++Refused;
      EXPECT_NE(Rep.Error.find("rejected"), std::string::npos) << Rep.Error;
    }
  }
  EXPECT_EQ(Refused, Rejected);
  EXPECT_EQ(Served + Refused, static_cast<std::uint64_t>(Flood));
}

TEST(Server, IdleWorkerServesWhileAnotherIsParked) {
  SeededRng R(0x1d1e);
  FreshCacheDir Dir("idle");
  KernelRegistry Reg(Dir.options());
  const Bignum Q = q60();
  const size_t N = 8;
  const unsigned K = Dispatcher::elemWords(Q);
  std::vector<std::uint64_t> A = randomWords(R, Q, N),
                             B = randomWords(R, Q, N), Cold(N * K),
                             Warm(N * K), Want(N * K);
  Dispatcher Serial(Reg);
  ASSERT_TRUE(Serial.vadd(Q, A.data(), B.data(), Want.data(), N))
      << Serial.error(); // the vadd plan is warm; vmul stays cold

  ServerOptions O;
  O.Workers = 2;
  service::Server Srv(Reg, O);
  ParkedWorker Park(/*DelayUs=*/300000, "jit.compile");
  std::future<Reply> FCold = Srv.vmul(Q, A.data(), B.data(), Cold.data(), N);
  Park.wait();
  Park.release();

  // One worker is stalled in the cold compile; the other must serve the
  // warm request now, not after the stall.
  std::future<Reply> FWarm = Srv.vadd(Q, A.data(), B.data(), Warm.data(), N);
  Reply RWarm = FWarm.get();
  ASSERT_TRUE(RWarm.Ok) << RWarm.Error;
  EXPECT_EQ(Warm, Want);
  EXPECT_NE(FCold.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "the warm request waited for the parked worker";
  Reply RCold = FCold.get();
  ASSERT_TRUE(RCold.Ok) << RCold.Error;
  EXPECT_LT(RWarm.Done, RCold.Done);
}

//===----------------------------------------------------------------------===//
// KernelRegistry under concurrency
//===----------------------------------------------------------------------===//

TEST(KernelRegistryMT, ColdKeySingleFlightsOntoOneBuild) {
  FreshCacheDir Dir("regsf");
  KernelRegistry Reg(Dir.options());
  const PlanKey Key = PlanKey::forModulus(KernelOp::MulMod, q60());
  const int Threads = 8;
  std::vector<std::shared_ptr<const CompiledPlan>> Got(Threads);
  runThreads(Threads, [&](int I) { Got[I] = Reg.get(Key); });
  for (int I = 0; I < Threads; ++I) {
    ASSERT_NE(Got[I], nullptr) << Reg.error();
    EXPECT_EQ(Got[I].get(), Got[0].get()) << "thread " << I;
  }
  EXPECT_EQ(Reg.stats().Builds, 1u)
      << "racing threads each ran the build pipeline";
  EXPECT_EQ(Reg.jit().stats().Compiles, 1u)
      << "racing threads each invoked the host compiler";
}

TEST(KernelRegistryMT, ManyKeysManyThreads) {
  FreshCacheDir Dir("regmany");
  KernelRegistry Reg(Dir.options());
  const std::vector<PlanKey> Keys = {
      PlanKey::forModulus(KernelOp::MulMod, q60()),
      PlanKey::forModulus(KernelOp::AddMod, q60()),
      PlanKey::forModulus(KernelOp::MulMod, q124()),
      PlanKey::forModulus(KernelOp::Butterfly, q60()),
  };
  std::atomic<int> Failures{0};
  runThreads(4, [&](int T) {
    for (int Round = 0; Round < 3; ++Round)
      for (size_t I = 0; I < Keys.size(); ++I)
        if (!Reg.get(Keys[(T + I) % Keys.size()]))
          Failures.fetch_add(1);
  });
  EXPECT_EQ(Failures.load(), 0);
  EXPECT_EQ(Reg.stats().Builds, Keys.size())
      << "distinct keys built more than once each";
}

TEST(KernelRegistry, LruEvictionKeepsHeldPlansCallable) {
  FreshCacheDir Dir("regevict");
  KernelRegistry Reg(Dir.options());
  Reg.setCacheCap(1);
  const Bignum Q = q60();
  auto PA = Reg.get(PlanKey::forModulus(KernelOp::MulMod, Q));
  ASSERT_NE(PA, nullptr) << Reg.error();
  auto PB = Reg.get(PlanKey::forModulus(KernelOp::AddMod, Q));
  ASSERT_NE(PB, nullptr) << Reg.error();
  EXPECT_EQ(Reg.size(), 1u);
  EXPECT_EQ(Reg.stats().Evictions, 1u);

  // The evicted plan is forgotten by the cache, not invalidated: the held
  // shared_ptr still dispatches.
  const unsigned K = PA->ElemWords;
  const Bignum A(3), B(5);
  std::vector<std::uint64_t> AW = packWordsMsbFirst(A, K),
                             BW = packWordsMsbFirst(B, K), CW(K);
  PlanAux Aux = makePlanAux(*PA, Q);
  BatchArgs Args;
  Args.Outs = {CW.data()};
  Args.Ins = {AW.data(), BW.data()};
  Args.Aux = Aux.ptrs();
  std::string Err;
  ASSERT_TRUE(SerialBackend().runBatch(*PA, Args, 1, /*Rows=*/1, &Err))
      << Err;
  EXPECT_EQ(unpackWordsMsbFirst(CW.data(), K), Bignum(15));

  // Re-requesting the evicted key rebuilds (memory-only cache).
  auto PA2 = Reg.get(PlanKey::forModulus(KernelOp::MulMod, Q));
  ASSERT_NE(PA2, nullptr) << Reg.error();
  EXPECT_EQ(Reg.stats().Builds, 3u);
}

//===----------------------------------------------------------------------===//
// HostJit under concurrency, eviction, and failure
//===----------------------------------------------------------------------===//

TEST(HostJitMT, ConcurrentLoadCompilesOnce) {
  FreshCacheDir Dir("jitsf");
  jit::HostJit Jit(Dir.options());
  const int Threads = 8;
  std::vector<std::shared_ptr<jit::JitModule>> Got(Threads);
  runThreads(Threads, [&](int I) { Got[I] = Jit.load(AddSource); });
  for (int I = 0; I < Threads; ++I) {
    ASSERT_NE(Got[I], nullptr) << Jit.error();
    EXPECT_EQ(Got[I].get(), Got[0].get()) << "thread " << I;
  }
  EXPECT_EQ(Jit.stats().Compiles, 1u);
  EXPECT_EQ(Jit.stats().MemoryHits, static_cast<std::uint64_t>(Threads - 1));
}

TEST(HostJit, LruEvictionKeepsHeldModulesCallable) {
  FreshCacheDir Dir("jitevict");
  jit::HostJit Jit(Dir.options());
  Jit.setCacheCap(1);
  auto M1 = Jit.load(AddSource);
  ASSERT_NE(M1, nullptr) << Jit.error();
  auto M2 = Jit.load(MulSource);
  ASSERT_NE(M2, nullptr) << Jit.error();
  EXPECT_EQ(Jit.cacheSize(), 1u);
  EXPECT_EQ(Jit.stats().Evictions, 1u);

  // Evicted-but-held module still resolves and runs.
  auto Add = M1->symbolAs<long (*)(long, long)>("moma_jit_add");
  ASSERT_NE(Add, nullptr);
  EXPECT_EQ(Add(19, 23), 42);

  // Memory-only cache: the evicted source compiles again on re-request.
  auto M3 = Jit.load(AddSource);
  ASSERT_NE(M3, nullptr) << Jit.error();
  EXPECT_EQ(Jit.stats().Compiles, 3u);
}

TEST(HostJit, FailedCompileLeavesNoTempFiles) {
  FreshCacheDir Dir("jitleak");
  jit::HostJit Jit(Dir.options());
  EXPECT_EQ(Jit.load("this is not C++ at all\n"), nullptr);
  EXPECT_FALSE(Jit.error().empty());
  // The failure path must clean its .tmp staging files — the historical
  // leak filled cache directories with orphaned temps.
  size_t TempFiles = 0, AnyFiles = 0;
  if (std::filesystem::exists(Dir.Path))
    for (const auto &E : std::filesystem::directory_iterator(Dir.Path)) {
      ++AnyFiles;
      if (E.path().filename().string().find(".tmp") != std::string::npos)
        ++TempFiles;
    }
  EXPECT_EQ(TempFiles, 0u);
  EXPECT_EQ(AnyFiles, 0u) << "failed compile left artifacts behind";
}

TEST(HostJit, MissingSymbolSurfacesDlerror) {
  FreshCacheDir Dir("jitsym");
  jit::HostJit Jit(Dir.options());
  auto M = Jit.load(AddSource);
  ASSERT_NE(M, nullptr) << Jit.error();
  std::string DlErr;
  EXPECT_EQ(M->symbol("moma_jit_no_such_symbol", &DlErr), nullptr);
  EXPECT_FALSE(DlErr.empty()) << "dlerror text lost";
  std::string DlOk = "stale";
  EXPECT_NE(M->symbol("moma_jit_add", &DlOk), nullptr);
  EXPECT_TRUE(DlOk.empty()) << DlOk;
}

//===----------------------------------------------------------------------===//
// Autotuner under concurrency
//===----------------------------------------------------------------------===//

TEST(AutotunerMT, ColdProblemSingleFlightsOntoOneSweep) {
  FreshCacheDir Dir("tunesf");
  KernelRegistry Reg(Dir.options());
  AutotunerOptions TO;
  TO.CalibrationElems = 16;
  TO.MaxCalibrationElems = 16;
  TO.Repeats = 1;
  TO.TuneBackend = false; // keep the sweep to two fast serial candidates
  TO.TunePrune = false;
  TO.TuneSchedule = false;
  Autotuner Tuner(Reg, TO);
  const Bignum Q = q60();
  const int Threads = 8;
  std::vector<const TuneDecision *> Got(Threads, nullptr);
  runThreads(Threads, [&](int I) {
    Got[I] = Tuner.choose(KernelOp::MulMod, Q, rewrite::PlanOptions(), 64);
  });
  for (int I = 0; I < Threads; ++I) {
    ASSERT_NE(Got[I], nullptr) << Tuner.error();
    EXPECT_EQ(Got[I], Got[0]) << "decision pointer diverged on thread " << I;
  }
  Autotuner::Stats St = Tuner.stats();
  EXPECT_EQ(St.Tuned, 1u) << "racing threads each ran the timing sweep";
  EXPECT_EQ(St.Reused, static_cast<unsigned>(Threads - 1));
}

//===----------------------------------------------------------------------===//
// sim::Device launch serialization
//===----------------------------------------------------------------------===//

TEST(SimDeviceMT, ConcurrentParallelForsSerializeCorrectly) {
  sim::Device Dev;
  const int Threads = 4;
  const std::uint64_t N = 1024;
  std::vector<std::uint64_t> Out(Threads * N, 0);
  runThreads(Threads, [&](int T) {
    for (int Round = 0; Round < 8; ++Round)
      Dev.parallelFor(N, [&, T](std::uint64_t I) { Out[T * N + I] += I; });
  });
  for (int T = 0; T < Threads; ++T)
    for (std::uint64_t I = 0; I < N; ++I)
      ASSERT_EQ(Out[T * N + I], 8 * I) << "slot " << T << "/" << I;
}

TEST(SimDeviceMT, ConcurrentLaunchesCoverEveryCoordinate) {
  sim::Device Dev;
  const int Threads = 4;
  std::atomic<std::uint64_t> Count{0};
  sim::LaunchConfig Cfg;
  Cfg.GridX = 4;
  Cfg.GridY = 2;
  Cfg.BlockDim = 32;
  runThreads(Threads, [&](int) {
    Dev.launch(Cfg, [&](const sim::LaunchCoord &, sim::SharedMem &) {
      Count.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(Count.load(),
            static_cast<std::uint64_t>(Threads) * 4 * 2 * 32);
}

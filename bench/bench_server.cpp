//===- bench/bench_server.cpp - serving-layer throughput and latency ---------===//
//
// The serving-layer claims of service/Server.h, measured two ways:
//
//   1. BURST — a same-key burst queued behind a busy worker (parked in
//      its first dispatch by an injected stall) executes as exactly one
//      batched dispatch, bit-identical to serial dispatch, and beats the
//      one-request-per-dispatch configuration (MaxBatch=1) in
//      wall-clock: the per-dispatch fixed costs (plan binding, key
//      canonicalization, backend launch) amortize over the coalesced
//      batch. On a single-core substrate the win is amortization, not
//      parallelism — the honest analogue of the GPU's batched-launch
//      economics.
//
//   2. OPEN LOOP — client threads submitting polynomial products at a
//      fixed inter-arrival rate; the bench reports sustained req/s and
//      p50/p99 request latency (submit -> Reply.Done) with the default
//      work-conserving coalescer.
//
// `--smoke` shrinks the load to a seconds-scale wiring check (the CI
// gate); `--json <path>` writes the flat metric document the
// perf-trajectory artifact trends. Determinism discipline for
// tools/bench_compare.py: only genuinely reproducible values use the
// exact-match `_count`/`_ok` suffixes; timings use `_ns` (ratio-gated)
// and rates/ratios use presence-only names.
//
// Standalone on purpose: links only the moma library (no
// google-benchmark), so the serving-layer gate runs on every builder,
// including those without libbenchmark where the figure benches are
// skipped.
//
//===----------------------------------------------------------------------===//

#include "field/PrimeGen.h"
#include "runtime/Dispatcher.h"
#include "service/Server.h"
#include "support/FaultInjection.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

using namespace moma;
using namespace moma::runtime;
using moma::service::Reply;
using moma::service::Server;
using moma::service::ServerOptions;
using mw::Bignum;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Recorded metrics, written as the same flat JSON document the
/// Harness.h-based benches emit (bench_compare.py consumes both).
std::vector<std::pair<std::string, double>> Metrics;

void recordMetric(const std::string &Name, double Value) {
  Metrics.emplace_back(Name, Value);
}

bool writeJsonReport(const std::string &Path, const std::string &BenchName) {
  if (Path.empty())
    return true;
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "{\n  \"bench\": \"" << BenchName << "\",\n  \"unix_time\": "
      << static_cast<long long>(std::time(nullptr))
      << ",\n  \"metrics\": {";
  bool First = true;
  for (const auto &M : Metrics) {
    Out << (First ? "" : ",") << "\n    \"" << M.first
        << "\": " << formatv("%.3f", M.second);
    First = false;
  }
  Out << "\n  }\n}\n";
  return static_cast<bool>(Out);
}

/// Nearest-rank percentile over an unsorted sample (sorts in place).
double percentileNs(std::vector<double> &Ns, double Q) {
  if (Ns.empty())
    return -1;
  std::sort(Ns.begin(), Ns.end());
  size_t Idx = static_cast<size_t>(Q * (Ns.size() - 1) + 0.5);
  return Ns[std::min(Idx, Ns.size() - 1)];
}

std::vector<std::uint64_t> randomWords(Rng &R, const Bignum &Q, size_t N) {
  std::vector<Bignum> E;
  for (size_t I = 0; I < N; ++I)
    E.push_back(Bignum::random(R, Q));
  return packBatch(E, Dispatcher::elemWords(Q));
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  std::string JsonPath;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = true;
    else if (std::strcmp(argv[I], "--json") == 0 && I + 1 < argc)
      JsonPath = argv[++I];
  }

  const Bignum Q = field::nttPrime(60, 16);
  const size_t NPoints = 16;
  const unsigned K = Dispatcher::elemWords(Q);
  const size_t Row = NPoints * K;
  bool AllOk = true;

  std::printf("serving layer: coalesced polyMul dispatch, n = %zu, q = %u "
              "bits%s\n",
              NPoints, Q.bitWidth(), Smoke ? " (smoke)" : "");

  // One shared registry for the whole bench: the serial reference warms
  // every plan, so server measurements never straddle a JIT compile.
  KernelRegistry Reg;
  Rng R(0x5e2f);

  //===--------------------------------------------------------------------===//
  // Phase 1: same-key burst, coalesced vs one-request-per-dispatch.
  //===--------------------------------------------------------------------===//

  const size_t BurstReqs = Smoke ? 48 : 256;
  std::vector<std::vector<std::uint64_t>> BA, BB, BC(BurstReqs),
      BWant(BurstReqs);
  {
    Dispatcher Serial(Reg);
    for (size_t I = 0; I < BurstReqs; ++I) {
      BA.push_back(randomWords(R, Q, NPoints));
      BB.push_back(randomWords(R, Q, NPoints));
      BC[I].resize(Row);
      BWant[I].resize(Row);
      if (!Serial.polyMul(Q, BA[I].data(), BB[I].data(), BWant[I].data(),
                          NPoints, 1)) {
        std::fprintf(stderr, "serial reference failed: %s\n",
                     Serial.error().c_str());
        return 1;
      }
    }
  }

  // Runs the burst through one server configuration. Request 0 parks the
  // lone worker inside its dispatch (a stall injected at the
  // server.dispatch fault site) while the rest of the burst queues behind
  // it, so every configuration serves the same queued burst. Returns the
  // wall seconds from the unpark to the last reply (negative on any
  // failed or bit-diverging reply).
  support::FaultInjection &FI = support::FaultInjection::instance();
  auto RunBurst = [&](const ServerOptions &O, Server::Stats &StOut) {
    for (auto &C : BC)
      std::fill(C.begin(), C.end(), 0);
    Server Srv(Reg, O);
    std::vector<std::future<Reply>> F;
    auto Submit = [&](size_t I) {
      F.push_back(
          Srv.polyMul(Q, BA[I].data(), BB[I].data(), BC[I].data(), NPoints));
    };
    const std::uint64_t HitsBefore = FI.counters("server.dispatch").Hits;
    FI.configure("server.dispatch", support::FaultPolicy::delayUs(100000));
    Submit(0);
    while (FI.counters("server.dispatch").Hits == HitsBefore)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    for (size_t I = 1; I < BurstReqs; ++I)
      Submit(I);
    FI.clear("server.dispatch");
    Srv.drain();
    StOut = Srv.stats();
    // The worker stamps every reply: the parked request's stamp marks the
    // unpark, the latest stamp the end of the burst.
    Clock::time_point Unparked, Last;
    for (size_t I = 0; I < BurstReqs; ++I) {
      Reply Rep = F[I].get();
      if (!Rep.Ok || BC[I] != BWant[I]) {
        std::fprintf(stderr, "burst request %zu: %s\n", I,
                     Rep.Ok ? "result diverges from serial dispatch"
                            : Rep.Error.c_str());
        return -1.0;
      }
      if (I == 0)
        Unparked = Last = Rep.Done;
      Last = std::max(Last, Rep.Done);
    }
    return std::chrono::duration<double>(Last - Unparked).count();
  };

  ServerOptions Coal;
  Coal.Workers = 1;
  Coal.MaxBatch = BurstReqs;
  ServerOptions PerReq;
  PerReq.Workers = 1;
  PerReq.MaxBatch = 1; // one request per dispatch: the no-coalescing model

  Server::Stats CoalSt, BaseSt;
  double CoalWall = RunBurst(Coal, CoalSt);
  double BaseWall = RunBurst(PerReq, BaseSt);
  bool BurstOk = CoalWall > 0 && BaseWall > 0;
  // The parked request alone, then the queued rest as one batch.
  bool CoalescedOk = BurstOk && CoalSt.Dispatches == 2 &&
                     CoalSt.MaxBatchSize == BurstReqs - 1;
  AllOk = AllOk && BurstOk && CoalescedOk;

  recordMetric("server/burst/requests_count", static_cast<double>(BurstReqs));
  recordMetric("server/burst/results_ok", BurstOk ? 1 : 0);
  recordMetric("server/burst/coalesced_ok", CoalescedOk ? 1 : 0);
  // MaxBatch=1 serves exactly one request per dispatch — deterministic.
  recordMetric("server/burst/perreq_dispatches_count",
               static_cast<double>(BaseSt.Dispatches));
  recordMetric("server/burst/coal_wall_ns", CoalWall * 1e9);
  recordMetric("server/burst/perreq_wall_ns", BaseWall * 1e9);
  double Speedup = BurstOk ? BaseWall / CoalWall : 0;
  recordMetric("server/burst/coalesce_speedup", Speedup);
  std::printf("burst: %zu requests  coalesced %llu dispatches (max batch "
              "%llu)  %.2f ms   per-request %llu dispatches  %.2f ms   "
              "speedup %.2fx\n",
              BurstReqs,
              static_cast<unsigned long long>(CoalSt.Dispatches),
              static_cast<unsigned long long>(CoalSt.MaxBatchSize),
              CoalWall * 1e3,
              static_cast<unsigned long long>(BaseSt.Dispatches),
              BaseWall * 1e3, Speedup);

  //===--------------------------------------------------------------------===//
  // Phase 2: open-loop load — fixed inter-arrival clients, latency
  // percentiles and sustained completion rate under coalescing.
  //===--------------------------------------------------------------------===//

  const int Clients = Smoke ? 2 : 4;
  const int PerClient = Smoke ? 25 : 200;
  const auto InterArrival = std::chrono::microseconds(Smoke ? 200 : 100);
  const size_t OpenReqs = static_cast<size_t>(Clients) * PerClient;

  // Per-client fixed inputs with a serial reference; per-request output
  // buffers so every reply is bit-checked.
  std::vector<std::vector<std::uint64_t>> OA(Clients), OB(Clients),
      OWant(Clients);
  std::vector<std::vector<std::vector<std::uint64_t>>> OC(Clients);
  {
    Dispatcher Serial(Reg);
    for (int T = 0; T < Clients; ++T) {
      OA[T] = randomWords(R, Q, NPoints);
      OB[T] = randomWords(R, Q, NPoints);
      OWant[T].resize(Row);
      if (!Serial.polyMul(Q, OA[T].data(), OB[T].data(), OWant[T].data(),
                          NPoints, 1)) {
        std::fprintf(stderr, "serial reference failed: %s\n",
                     Serial.error().c_str());
        return 1;
      }
      OC[T].assign(PerClient, std::vector<std::uint64_t>(Row));
    }
  }

  ServerOptions Open;
  Open.Workers = 2;
  Open.MaxBatch = 128;
  std::vector<double> LatencyNs(OpenReqs);
  std::vector<char> OpenOk(OpenReqs, 0);
  Clock::time_point LastDone;
  double OpenWall = 0;
  // Hard wall-clock budget for the whole open-loop phase. An open-loop
  // bench with a wedged worker (stalled compile, deadlocked dispatch)
  // otherwise hangs the CI gate forever on future::get(); clients wait
  // with a deadline instead, and on expiry the process exits without
  // running the Server destructor (which would block on the same wedge).
  const auto HardBudget = std::chrono::seconds(Smoke ? 30 : 120);
  std::atomic<bool> TimedOut{false};
  {
    Server Srv(Reg, Open);
    std::vector<std::thread> Threads;
    auto Start = Clock::now();
    const auto HardDeadline = Start + HardBudget;
    for (int T = 0; T < Clients; ++T)
      Threads.emplace_back([&, T] {
        std::vector<std::future<Reply>> F;
        std::vector<Clock::time_point> Submitted;
        for (int I = 0; I < PerClient; ++I) {
          Submitted.push_back(Clock::now());
          F.push_back(Srv.polyMul(Q, OA[T].data(), OB[T].data(),
                                  OC[T][I].data(), NPoints));
          std::this_thread::sleep_until(Start + (I + 1) * InterArrival);
        }
        for (int I = 0; I < PerClient; ++I) {
          if (F[I].wait_until(HardDeadline) != std::future_status::ready) {
            TimedOut.store(true);
            return; // abandon the remaining futures: the server is wedged
          }
          Reply Rep = F[I].get();
          size_t Slot = static_cast<size_t>(T) * PerClient + I;
          LatencyNs[Slot] =
              std::chrono::duration<double, std::nano>(Rep.Done -
                                                       Submitted[I])
                  .count();
          OpenOk[Slot] = Rep.Ok && OC[T][I] == OWant[T];
        }
      });
    for (auto &Th : Threads)
      Th.join();
    if (TimedOut.load()) {
      std::fprintf(stderr,
                   "bench_server: open loop exceeded the %llds hard "
                   "wall-clock budget; exiting without server teardown\n",
                   static_cast<long long>(HardBudget.count()));
      std::_Exit(1); // the destructor would block on the same wedge
    }
    Srv.drain();
    OpenWall = secondsSince(Start);
    Server::Stats St = Srv.stats();
    bool Served = St.Requests == OpenReqs && St.Rejected == 0;
    size_t OkCount = 0;
    for (char Ok : OpenOk)
      OkCount += Ok ? 1 : 0;
    bool ResultsOk = Served && OkCount == OpenReqs;
    AllOk = AllOk && ResultsOk;

    double P50 = percentileNs(LatencyNs, 0.50);
    double P99 = percentileNs(LatencyNs, 0.99);
    double ReqsPerSec = OpenWall > 0 ? OpenReqs / OpenWall : 0;
    recordMetric("server/open/requests_count",
                 static_cast<double>(OpenReqs));
    recordMetric("server/open/results_ok", ResultsOk ? 1 : 0);
    recordMetric("server/open/p50_ns", P50);
    recordMetric("server/open/p99_ns", P99);
    recordMetric("server/open/reqs_per_sec", ReqsPerSec);
    recordMetric("server/open/dispatches_per_req",
                 St.Dispatches > 0
                     ? static_cast<double>(St.Requests) / St.Dispatches
                     : 0);
    std::printf("open loop: %zu requests over %d clients  %.0f req/s  "
                "p50 %.0f us  p99 %.0f us  %.2f requests/dispatch\n",
                OpenReqs, Clients, ReqsPerSec, P50 / 1e3, P99 / 1e3,
                St.Dispatches > 0
                    ? static_cast<double>(St.Requests) / St.Dispatches
                    : 0.0);
  }
  (void)LastDone;

  if (!writeJsonReport(JsonPath, "bench_server")) {
    std::fprintf(stderr, "cannot write %s\n", JsonPath.c_str());
    return 1;
  }
  std::printf("serving layer: %s\n", AllOk ? "OK" : "FAILED");
  return AllOk ? 0 : 1;
}

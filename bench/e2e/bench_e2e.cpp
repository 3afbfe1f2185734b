//===- bench/e2e/bench_e2e.cpp - end-to-end benchmark entry point --------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
//
// One run of one workload (see README.md):
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--json <out>] [--trace-dir <dir>]
//
// $MOMA_JIT_CACHE_DIR must name an empty directory; every set-up compiles
// into its own fresh subdirectory, and no tuner cache file is used. The
// seed only generates inputs.
//
// Untraced (--trace 0), the run sets up three times from cold and
// reports the median as setup_s, then measures and reports the end-to-end
// metrics. Traced (--trace 1), it sets up once, measures half the time
// without and half with spans (their difference is trace.overhead_frac),
// runs the per-layer probes, writes the spans to <trace-dir>/<workload>
// .jsonl and prints a self-time table. Either way every output is checked
// against the oracles outside the timed regions, and the last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. The exit code is 0 only when every result was correct.
//
//===----------------------------------------------------------------------===//

#include "Probes.h"
#include "Workload.h"

#include "support/Format.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

using namespace moma;
using namespace moma::e2e;
namespace fs = std::filesystem;

namespace {

struct MetricSpec {
  const char *Name, *Unit;
};

/// What a user of the system sees; every workload reports each of them.
const MetricSpec EndToEnd[] = {
    {"setup_s", "s"},       {"peak_rss_mb", "MB"},
    {"p50_ms", "ms"},       {"req_per_cpu_s", "req/cpu-s"},
};

/// One layer each, measured from outside. A layer the workload never
/// calls reports zero.
const MetricSpec PerLayer[] = {
    {"autotuner.tune_s", "s"},
    {"autotuner.problems", "count"},
    {"autotuner.candidates", "count"},
    {"autotuner.midrun_tunes", "count"},
    {"rewrite.lower_ms", "ms"},
    {"rewrite.stmts", "count"},
    {"rewrite.muls", "count"},
    {"codegen.emit_ms", "ms"},
    {"codegen.source_kb", "KB"},
    {"jit.compile_s", "s"},
    {"jit.compiles", "count"},
    {"jit.disk_hits", "count"},
    {"registry.build_s", "s"},
    {"registry.builds", "count"},
    {"registry.hit_ratio", "ratio"},
    {"kernel.ns_per_elem", "ns"},
    {"kernel.mul_ceiling_frac", "ratio"},
    {"kernel.bw_ceiling_frac", "ratio"},
    {"ntt.fwd_ms", "ms"},
    {"ntt.butterfly_ns", "ns"},
    {"dispatcher.transforms_per_req", "count"},
    {"dispatcher.stage_groups_per_req", "count"},
    {"dispatcher.call_us", "us"},
    {"dispatcher.bind_us", "us"},
    {"dispatcher.bound_evictions", "count"},
    {"dispatcher.replay_us_per_req", "us"},
    {"rns.from_wide_us", "us"},
    {"rns.to_wide_us", "us"},
    {"rns.flat_polymul_us", "us"},
    {"rns.resident_polymul_us", "us"},
    {"fhe.ctmul_ms", "ms"},
    {"fhe.ctmul_transforms", "count"},
    {"service.reqs_per_dispatch", "count"},
    {"service.max_batch", "count"},
    {"service.queue_depth_max", "count"},
    {"service.submit_us", "us"},
    {"service.rejected", "count"},
    {"service.deadline_expired", "count"},
    {"service.wait_ms", "ms"},
    {"service.p99_ms", "ms"},
    {"host.copy_gbps", "GB/s"},
    {"host.mul64_gops", "Gop/s"},
    {"loadgen.lag_p99_ms", "ms"},
    {"loadgen.sent", "count"},
    {"loadgen.completed", "count"},
    {"trace.overhead_frac", "ratio"},
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload "
               "blas-wide|ntt-zkp|fhe-serve|tenant-churn --seed <n> "
               "--seconds <s> --trace 0|1 [--json <out>] [--trace-dir <dir>]\n",
               Msg);
  std::exit(2);
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "blas-wide")
    return makeBlasWide();
  if (Name == "ntt-zkp")
    return makeNttZkp();
  if (Name == "fhe-serve")
    return makeFheServe();
  if (Name == "tenant-churn")
    return makeTenantChurn();
  return nullptr;
}

std::string metricsJson(const MetricMap &M) {
  std::string Out = "{";
  for (const auto &E : M)
    Out += formatv("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                   Out.size() > 1 ? ", " : "", E.first.c_str(),
                   E.second.Value, E.second.Unit.c_str());
  return Out + "}";
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S)
    Out += C == '"' || C == '\\' ? std::string("\\") + C : std::string(1, C);
  return Out + "\"";
}

} // namespace

int main(int argc, char **argv) {
  if (argc == 2 && std::strcmp(argv[1], "--ceiling-probe") == 0)
    return ceilingProbeMain();

  std::string Name, JsonPath, TraceDir = "trace";
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Traced = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      usage(("missing value for " + A).c_str());
    const char *V = argv[++I];
    if (A == "--workload")
      Name = V;
    else if (A == "--seed")
      Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      Seconds = std::strtod(V, nullptr);
    else if (A == "--trace")
      Traced = std::strcmp(V, "0") != 0;
    else if (A == "--json")
      JsonPath = V;
    else if (A == "--trace-dir")
      TraceDir = V;
    else
      usage(("unknown argument " + A).c_str());
  }
  std::unique_ptr<Workload> W = makeWorkload(Name);
  if (!W)
    usage("unknown or missing --workload");
  if (!(Seconds > 0 && Seconds <= 600))
    usage("--seconds must be in (0, 600]");
  const char *Root = std::getenv("MOMA_JIT_CACHE_DIR");
  if (!Root || !*Root)
    usage("MOMA_JIT_CACHE_DIR must name an empty directory");

  Trace Tr;
  Trace *T = Traced ? &Tr : nullptr;
  const std::uint32_t RunId = Tr.reserve();
  const double RunStart = nowS();
  std::printf("== bench_e2e %s seed=%llu seconds=%g trace=%d\n", W->name(),
              static_cast<unsigned long long>(Seed), Seconds, Traced ? 1 : 0);
  {
    Scoped G(T, "workload.generate", RunId);
    W->generate(Seed);
  }

  // Cold set-ups, each over a fresh JIT cache directory.
  const int Setups = Traced ? 1 : 3;
  std::vector<double> SetupWall;
  SetupStats Last;
  for (int K = 0; K < Setups; ++K) {
    std::string Dir = formatv("%s/setup%d", Root, K);
    fs::create_directories(Dir);
    std::string Err;
    bool Ok;
    {
      Scoped S(T, "setup", RunId);
      Ok = W->setup(Dir, T, S.id(), Last, Err);
    }
    if (!Ok) {
      std::fprintf(stderr, "bench_e2e: %s set-up failed: %s\n", W->name(),
                   Err.c_str());
      return 1;
    }
    std::printf("setup %d: %.3f s  (%u tuner problems, %u candidates timed, "
                "%u compiles, %u disk hits, %u registry builds)\n",
                K + 1, Last.WallS, Last.Problems, Last.Candidates,
                Last.JitCompiles, Last.JitDiskHits, Last.RegistryBuilds);
    SetupWall.push_back(Last.WallS);
    if (K + 1 < Setups) {
      W->teardown();
      fs::remove_all(Dir);
    }
  }
  std::printf("tuner picks:\n");
  for (const Pick &P : W->picks())
    std::printf("  %-44s -> %s  (%.3f ns/elem)\n", P.Problem.c_str(),
                P.Key.Opts.str().c_str(), P.NsPerElem);

  Ledger L;
  MetricMap M;
  if (Traced)
    for (const MetricSpec &S : PerLayer)
      M[S.Name] = {0, S.Unit};
  const std::uint64_t Tuned0 = W->tunedSoFar();
  if (!Traced) {
    W->measure(Seconds, nullptr, 0, L, M);
  } else {
    // Same phase twice, spans off then on: the difference in median
    // latency is what recording spans costs.
    MetricMap Plain;
    W->measure(Seconds / 2, nullptr, 0, L, Plain);
    Scoped S(T, "phase.measure", RunId);
    W->measure(Seconds / 2, T, S.id(), L, M);
    M["trace.overhead_frac"].Value =
        M["p50_ms"].Value / Plain["p50_ms"].Value - 1;
  }
  const std::uint64_t Midrun = W->tunedSoFar() - Tuned0;
  if (Midrun)
    std::printf("warning: %llu autotuner problems were tuned during the "
                "measured phase; the set-up missed them\n",
                static_cast<unsigned long long>(Midrun));
  {
    Scoped S(T, "verify", RunId);
    W->verify(T, S.id(), L);
  }

  if (!Traced) {
    M["setup_s"] = {median(SetupWall), "s"};
    M["peak_rss_mb"] = {peakRssMb(), "MB"};
  } else {
    StackView SV = W->stack();
    runtime::KernelRegistry::Stats RS = SV.Reg->stats();
    M["autotuner.tune_s"].Value = Last.TuneBusyS;
    M["autotuner.problems"].Value = Last.Problems;
    M["autotuner.candidates"].Value = Last.Candidates;
    M["autotuner.midrun_tunes"].Value = double(Midrun);
    M["jit.disk_hits"].Value = Last.JitDiskHits;
    M["registry.hit_ratio"].Value =
        RS.Hits + RS.Builds ? double(RS.Hits) / (RS.Hits + RS.Builds) : 0;

    Scoped P(T, "probes", RunId);
    HostCeiling H;
    std::string Err;
    double C0 = nowS();
    if (!probeCeiling(argv[0], H, Err)) {
      std::fprintf(stderr, "bench_e2e: %s\n", Err.c_str());
      return 1;
    }
    Tr.record("host.ceiling_probe", C0, nowS(), P.id());
    std::printf("host: copy %.2f GB/s over two %.0f MiB arrays (LLC %.0f "
                "MiB); %.2f G independent 64x64->128 multiplies/s\n",
                H.CopyGbps, H.ArrayMiB, H.LlcMiB, H.Mul64Gops);
    M["host.copy_gbps"].Value = H.CopyGbps;
    M["host.mul64_gops"].Value = H.Mul64Gops;
    probeCompilePath(W->picks(), std::string(Root) + "/replay", T, P.id(), M);
    probeKernels(SV, W->kernelCases(), H, T, P.id(), M);
    probeNtt(SV, *W, T, P.id(), M);
    probeDispatcher(SV, *W, L, T, P.id(), M);
    W->probeLayers(T, P.id(), M);
    if (W->serves())
      M["service.wait_ms"].Value = M["p50_ms"].Value -
                                   M["dispatcher.replay_us_per_req"].Value /
                                       1e3;
  }
  W->teardown();
  for (const fs::directory_entry &E : fs::directory_iterator(Root))
    fs::remove_all(E.path());

  if (Traced) {
    Tr.recordAs(RunId, "run", RunStart, nowS());
    fs::create_directories(TraceDir);
    std::string Path = TraceDir + "/" + W->name() + ".jsonl";
    if (!Tr.writeJsonl(Path))
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", Path.c_str());
    std::printf("spans written to %s\nself time by span:\n%s", Path.c_str(),
                Tr.selfTimeTable().c_str());
  }

  // Exactly the benchmark's metric set for this kind of run.
  MetricMap Out;
  const MetricSpec *Begin =
      Traced ? std::begin(PerLayer) : std::begin(EndToEnd);
  const MetricSpec *End = Traced ? std::end(PerLayer) : std::end(EndToEnd);
  for (const MetricSpec *S = Begin; S != End; ++S) {
    auto It = M.find(S->Name);
    Out[S->Name] = {It == M.end() ? 0 : It->second.Value, S->Unit};
    std::printf("  %-34s %14.6g %s\n", S->Name, Out[S->Name].Value, S->Unit);
  }
  const bool Correct = L.Failed == 0;
  for (const std::string &E : L.Errors)
    std::printf("FAILED: %s\n", E.c_str());
  std::printf("%s: %llu attempted, %llu failed\n", Correct ? "OK" : "WRONG",
              static_cast<unsigned long long>(L.Attempted),
              static_cast<unsigned long long>(L.Failed));

  if (!JsonPath.empty()) {
    std::ofstream J(JsonPath);
    J << "{\"workload\": \"" << W->name() << "\", \"seed\": " << Seed
      << ", \"trace\": " << (Traced ? 1 : 0)
      << ", \"correct\": " << (Correct ? "true" : "false")
      << ", \"attempted\": " << L.Attempted << ", \"failed\": " << L.Failed
      << ", \"metrics\": " << metricsJson(Out) << ", \"tuner_picks\": [";
    bool First = true;
    for (const Pick &P : W->picks()) {
      J << (First ? "" : ", ")
        << jsonString(P.Problem + " -> " + P.Key.Opts.str());
      First = false;
    }
    J << "]}\n";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(L.Attempted),
              static_cast<unsigned long long>(L.Failed),
              metricsJson(Out).c_str());
  return Correct ? 0 : 1;
}

//===- bench/bench_runtime_batch.cpp - backends + plan cache on batches --------===//
//
// The headline claims of the batched-dispatch runtime (src/runtime/):
//
//   1. BACKENDS — the sim-GPU backend (grid-shaped §5.1 kernels over the
//      thread-pool substrate) and the vector backend (one batch loop
//      compiled at -O3 [-march=native]) agree bit for bit on a batch of
//      polynomial products and on a wide BLAS batch, and the autotuner
//      picks between them from a cold cache (backend choice and block
//      dim are tuning axes — picking vector for at least one wide-batch
//      BLAS shape);
//   2. PLAN CACHE — a production server amortizes JIT cost across
//      requests: a warm plan cache beats per-call emit+compile by orders
//      of magnitude;
//   3. PERSISTENCE — autotune decisions (including backend fields) reload
//      from JSON without re-timing.
//
//   4. STAGE FUSION — the fused NTT pipeline turns a batched transform's
//      log2(n) stage dispatches into ceil(log2(n)/FuseDepth); on at
//      least one size bucket a fused depth > 1 beats depth 1 in
//      wall-clock, and the autotuner picks it from a cold cache.
//
// The workload is a batch of cyclic polynomial products, run three ways
// (vector-pinned, sim-GPU-pinned, autotuned) plus the cold per-call
// model, followed by a batched-forward-NTT fusion sweep.
//
// `--smoke` runs a tiny wiring check (vector == sim-GPU bit-for-bit,
// tune-cache round-trip) with no performance assertions — the CI step
// that catches backend regressions without timing flakiness.
// `--json <path>` additionally writes the measured metrics as a flat
// JSON document (the CI perf-trajectory artifact).
//
// Not google-benchmark based: the cold path costs ~1 s per iteration, so
// manual chrono timing over explicit sample counts is the honest tool.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "field/PrimeGen.h"
#include "kernels/ScalarKernels.h"
#include "ntt/ReferenceDft.h"
#include "rewrite/PassManager.h"
#include "rewrite/Stats.h"
#include "runtime/Autotuner.h"
#include "runtime/Dispatcher.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <chrono>
#include <cstring>
#include <filesystem>

using namespace moma;
using namespace moma::bench;
using namespace moma::runtime;
using mw::Bignum;
using rewrite::ExecBackend;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

rewrite::PlanOptions pinned(ExecBackend B) {
  rewrite::PlanOptions O;
  O.Backend = B;
  return O;
}

/// One timed full-batch polyMul through \p D (plans pre-compiled by an
/// untimed single-product warmup). Returns seconds, negative on failure.
double timedPolyMul(Dispatcher &D, const Bignum &Q,
                    const std::uint64_t *A, const std::uint64_t *B,
                    std::uint64_t *C, size_t N, size_t Batch) {
  if (!D.polyMul(Q, A, B, C, N, 1)) // warm the binding cache
    return -1;
  auto T0 = std::chrono::steady_clock::now();
  if (!D.polyMul(Q, A, B, C, N, Batch))
    return -1;
  return secondsSince(T0);
}

} // namespace

int main(int argc, char **argv) {
  namespace fs = std::filesystem;
  bool Smoke = false;
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = true;
  std::string JsonPath = jsonPathFromArgs(argc, argv);

  const Bignum Q = field::nttPrime(124, 16);
  const size_t N = Smoke ? 16 : 64; // coefficients per polynomial
  const size_t Batch = Smoke ? 8
                       : fastMode() ? 100
                                    : envUnsigned("MOMA_BENCH_POLYS", 1000);
  const size_t ColdSamples = fastMode() || Smoke ? 1 : 4;
  const unsigned K = Dispatcher::elemWords(Q);

  deviceSection(Smoke ? "Runtime backend smoke check (tiny sizes, wiring "
                        "only)"
                      : "Runtime: execution backends and the plan cache on "
                        "batched dispatch");
  reportf("workload: %zu cyclic polynomial products, n = %zu, q = %u bits "
          "(%u-word elements)\n",
          Batch, N, Q.bitWidth(), K);
  flushReport();

  // Shared random batch.
  Rng R(0xBA7C4);
  std::vector<Bignum> A, B;
  for (size_t I = 0; I < Batch * N; ++I) {
    A.push_back(Bignum::random(R, Q));
    B.push_back(Bignum::random(R, Q));
  }
  std::vector<std::uint64_t> AW = packBatch(A, K), BW = packBatch(B, K),
                             CW(Batch * N * K);

  KernelRegistry Reg;

  // -- 1) Backend comparison on the full batch ---------------------------
  Dispatcher DVector(Reg, nullptr, pinned(ExecBackend::Vector));
  Dispatcher DSimGpu(Reg, nullptr, pinned(ExecBackend::SimGpu));

  std::vector<std::uint64_t> CVector(CW.size());
  double VectorSec = timedPolyMul(DVector, Q, AW.data(), BW.data(),
                                  CVector.data(), N, Batch);
  if (VectorSec < 0) {
    reportf("vector dispatch failed: %s\n", DVector.error().c_str());
    return 1;
  }
  double SimGpuSec = timedPolyMul(DSimGpu, Q, AW.data(), BW.data(),
                                  CW.data(), N, Batch);
  if (SimGpuSec < 0) {
    reportf("sim-GPU dispatch failed: %s\n", DSimGpu.error().c_str());
    return 1;
  }
  bool BackendsAgree = CW == CVector;

  // Correctness spot check against the O(n^2) reference on one entry:
  // the cyclic product folds full[i + n] back onto coefficient i.
  {
    std::vector<Bignum> PA(A.begin(), A.begin() + N),
        PB(B.begin(), B.begin() + N);
    auto Full = ntt::referencePolyMul(PA, PB, Q);
    auto C = unpackBatch(CW, K);
    for (size_t I = 0; I < N; ++I) {
      Bignum Want = Full[I];
      if (I + N < Full.size())
        Want = Want.addMod(Full[I + N], Q);
      if (C[I] != Want) {
        reportf("MISMATCH against reference at coefficient %zu\n", I);
        flushReport();
        return 1;
      }
    }
  }

  // -- 1b) SIMD vector backend on a wide BLAS batch ----------------------
  // Element-wise modmul over a flat batch: the shape the vector backend
  // exists for, one element loop at -O3 [-march=native], checked bit for
  // bit against the sim-GPU grid.
  const size_t VecElems = Smoke ? 4096 : 262144;
  double VmulVectorSec = 0;
  bool VectorAgrees = false;
  {
    Rng RV(0x5EC7);
    std::vector<Bignum> VA, VB;
    for (size_t I = 0; I < VecElems; ++I) {
      VA.push_back(Bignum::random(RV, Q));
      VB.push_back(Bignum::random(RV, Q));
    }
    auto VAW = packBatch(VA, K), VBW = packBatch(VB, K);
    std::vector<std::uint64_t> VG(VecElems * K), VV(VecElems * K);
    if (!DSimGpu.vmul(Q, VAW.data(), VBW.data(), VG.data(), VecElems)) {
      reportf("sim-GPU vmul failed: %s\n", DSimGpu.error().c_str());
      return 1;
    }
    // Warm the plan (compile + binding) outside the timed region.
    if (!DVector.vmul(Q, VAW.data(), VBW.data(), VV.data(), 1)) {
      reportf("vector warmup failed: %s\n", DVector.error().c_str());
      return 1;
    }
    const unsigned VecRepeats = Smoke ? 2 : 3;
    double VecBest = 1e30;
    for (unsigned Rep = 0; Rep < VecRepeats; ++Rep) {
      auto T0 = std::chrono::steady_clock::now();
      if (!DVector.vmul(Q, VAW.data(), VBW.data(), VV.data(), VecElems)) {
        reportf("vector vmul failed: %s\n", DVector.error().c_str());
        return 1;
      }
      VecBest = std::min(VecBest, secondsSince(T0));
    }
    VmulVectorSec = VecBest;
    VectorAgrees = VG == VV;
  }

  // Does a cold autotuner pick the vector backend for at least one
  // wide-batch BLAS shape? Swept over shapes because the sim-GPU pool
  // is a legitimate winner on the largest buckets of multiply-heavy
  // ops — the vector loop's home turf is the small-to-mid buckets and
  // the memory-bound ops.
  bool PickedVector = false;
  std::string VectorPickShape = "none";
  {
    AutotunerOptions VTO;
    VTO.CalibrationElems = 256;
    VTO.MaxCalibrationElems = Smoke ? 1024 : 4096;
    VTO.Repeats = Smoke ? 2 : 3;
    if (Smoke)
      VTO.BlockDims = {128};
    Autotuner VecTuner(Reg, VTO);
    struct BlasShape {
      KernelOp Op;
      const char *Name;
      size_t Elems;
    };
    const BlasShape Shapes[] = {{KernelOp::MulMod, "vmul", 1024},
                                {KernelOp::MulMod, "vmul", 16384},
                                {KernelOp::AddMod, "vadd", 16384},
                                {KernelOp::Axpy, "axpy", 4096}};
    for (const BlasShape &S : Shapes) {
      const TuneDecision *VD = VecTuner.choose(S.Op, Q, {}, S.Elems);
      if (VD && VD->Opts.Backend == ExecBackend::Vector) {
        PickedVector = true;
        VectorPickShape = formatv("%s x %zu: %s", S.Name, S.Elems,
                                  VD->Opts.str().c_str());
        break;
      }
    }
  }

  // -- 2) Autotuned path from a cold cache + warm plan cache -------------
  std::string TunePath =
      (fs::temp_directory_path() / "moma-bench-tune.json").string();
  std::remove(TunePath.c_str());

  AutotunerOptions TO;
  TO.CachePath = TunePath;
  if (Smoke) { // keep the sweep tiny: wiring, not measurement
    TO.CalibrationElems = 32;
    TO.MaxCalibrationElems = 64;
    TO.Repeats = 1;
    TO.BlockDims = {128};
  }
  Autotuner Tuner(Reg, TO);
  Dispatcher D(Reg, &Tuner);

  // First request pays tuning + compilation; that is the amortized cost.
  auto TWarmup = std::chrono::steady_clock::now();
  if (!D.polyMul(Q, AW.data(), BW.data(), CW.data(), N, Batch)) {
    reportf("autotuned dispatch failed: %s\n", D.error().c_str());
    return 1;
  }
  double WarmupSec = secondsSince(TWarmup);
  bool TunedAgrees = CW == CVector;

  auto TWarm = std::chrono::steady_clock::now();
  if (!D.polyMul(Q, AW.data(), BW.data(), CW.data(), N, Batch)) {
    reportf("autotuned dispatch failed: %s\n", D.error().c_str());
    return 1;
  }
  double WarmSec = secondsSince(TWarm);

  // What did the tuner pick for the batch-sized problems?
  const TuneDecision *MulDec =
      Tuner.choose(KernelOp::MulMod, Q, {}, N * Batch);
  const TuneDecision *BflyDec = Tuner.chooseNtt(Q, {}, N, Batch);

  // -- 3) Cold path: fresh registry per polynomial, compiler every time --
  std::string ColdDir =
      (fs::temp_directory_path() / "moma-bench-coldjit").string();
  double ColdSec = 0;
  for (size_t S = 0; S < ColdSamples; ++S) {
    std::error_code EC;
    fs::remove_all(ColdDir, EC);
    jit::HostJitOptions JO;
    JO.CacheDir = ColdDir;
    JO.UseDiskCache = false; // every load invokes the host compiler
    KernelRegistry ColdReg(JO);
    Dispatcher ColdD(ColdReg); // no tuner: one variant, fewest compiles
    auto T0 = std::chrono::steady_clock::now();
    if (!ColdD.polyMul(Q, AW.data(), BW.data(), CW.data(), N, 1)) {
      reportf("cold dispatch failed: %s\n", ColdD.error().c_str());
      return 1;
    }
    ColdSec += secondsSince(T0);
  }
  {
    std::error_code EC;
    fs::remove_all(ColdDir, EC);
  }
  double ColdPerPoly = ColdSec / double(ColdSamples);
  double ColdProjected = ColdPerPoly * double(Batch);

  // -- 4) Stage fusion: batched forward NTTs, depth sweep vs the tuner --
  struct FuseRow {
    size_t NttN;
    size_t NttBatch;
    double Sec[3]; // pinned sim-GPU depth 1..3
    unsigned TunedDepth;
  };
  std::vector<FuseRow> FuseRows;
  bool FusionWins = false, TunerPicksFusion = false;
  {
    const std::vector<size_t> NttSizes =
        Smoke ? std::vector<size_t>{16}
              : std::vector<size_t>{64, 256, 1024};
    // Fixed element budget per timing so every size sees the same work.
    const size_t ElemBudget = Smoke ? 1024 : fastMode() ? 32768 : 262144;
    Rng RN(0xF05E);
    AutotunerOptions FTO; // cold every run: fusion choice is re-measured
    if (Smoke) {
      FTO.CalibrationElems = 32;
      FTO.MaxCalibrationElems = 64;
      FTO.Repeats = 1;
      FTO.BlockDims = {128};
    }
    Autotuner FuseTuner(Reg, FTO);
    for (size_t NttN : NttSizes) {
      FuseRow Row;
      Row.NttN = NttN;
      Row.NttBatch = std::max<size_t>(1, ElemBudget / NttN);
      std::vector<Bignum> Polys;
      for (size_t I = 0; I < NttN * Row.NttBatch; ++I)
        Polys.push_back(Bignum::random(RN, Q));
      auto Packed = packBatch(Polys, K);
      for (unsigned Depth = 1; Depth <= 3; ++Depth) {
        rewrite::PlanOptions PO = pinned(ExecBackend::SimGpu);
        PO.FuseDepth = Depth;
        Dispatcher DF(Reg, nullptr, PO);
        auto Warm = Packed; // first call pays plan/table binding
        if (!DF.nttForward(Q, Warm.data(), NttN, 1)) {
          reportf("fused dispatch failed: %s\n", DF.error().c_str());
          return 1;
        }
        // Min over repeats: these timings feed the fusion verdicts (and
        // the exit code), so one scheduler hiccup must not decide them.
        const unsigned FuseRepeats = Smoke ? 1 : 3;
        double BestSec = 1e30;
        for (unsigned Rep = 0; Rep < FuseRepeats; ++Rep) {
          auto Data = Packed;
          auto T0 = std::chrono::steady_clock::now();
          if (!DF.nttForward(Q, Data.data(), NttN, Row.NttBatch)) {
            reportf("fused dispatch failed: %s\n", DF.error().c_str());
            return 1;
          }
          BestSec = std::min(BestSec, secondsSince(T0));
        }
        Row.Sec[Depth - 1] = BestSec;
        recordMetric(formatv("ntt/n%zu/simgpu/f%u_ns", NttN, Depth),
                     Row.Sec[Depth - 1] * 1e9);
      }
      const TuneDecision *FD =
          FuseTuner.chooseNtt(Q, {}, NttN, Row.NttBatch);
      Row.TunedDepth = FD ? FD->Opts.FuseDepth : 0;
      recordMetric(formatv("ntt/n%zu/tuned_depth", NttN),
                   double(Row.TunedDepth));
      double Best23 = std::min(Row.Sec[1], Row.Sec[2]);
      if (Best23 < Row.Sec[0]) {
        FusionWins = true;
        if (Row.TunedDepth > 1)
          TunerPicksFusion = true;
      }
      FuseRows.push_back(Row);
    }
  }

  banner("Results");
  TextTable T({"path", "backend", "per poly", "full batch",
               "what it includes"});
  T.addRow({"pinned vector", "vector",
            formatNanos(VectorSec * 1e9 / double(Batch)),
            formatNanos(VectorSec * 1e9), "dispatch only (plans cached)"});
  T.addRow({"pinned sim-GPU", "simgpu",
            formatNanos(SimGpuSec * 1e9 / double(Batch)),
            formatNanos(SimGpuSec * 1e9), "dispatch only (plans cached)"});
  T.addRow({"pinned vector (vmul)", "vector",
            formatNanos(VmulVectorSec * 1e9 / double(VecElems)),
            formatNanos(VmulVectorSec * 1e9),
            formatv("per elem over %zu-elem BLAS batch", VecElems)});
  T.addRow({"autotuned warm",
            MulDec ? rewrite::execBackendName(MulDec->Opts.Backend) : "?",
            formatNanos(WarmSec * 1e9 / double(Batch)),
            formatNanos(WarmSec * 1e9), "dispatch only (tuned variants)"});
  T.addRow({"autotuned warm-up", "-", "-", formatNanos(WarmupSec * 1e9),
            formatv("autotune %u candidates + JIT + first batch",
                    Tuner.stats().Candidates)});
  T.addRow({"per-call emit+compile", "vector", formatNanos(ColdPerPoly * 1e9),
            formatNanos(ColdProjected * 1e9),
            formatv("measured on %zu samples, projected", ColdSamples)});
  report(T.render());
  reportf("plan cache: %u plans built, %u cache hits; host compiler "
          "invoked %u times for the warm paths\n",
          Reg.stats().Builds, Reg.stats().Hits, Reg.jit().stats().Compiles);
  if (MulDec && BflyDec)
    reportf("tuned variants: mulmod %s, ntt butterfly %s\n",
            MulDec->Opts.str().c_str(), BflyDec->Opts.str().c_str());
  recordMetric("polymul/vector_batch_ns", VectorSec * 1e9);
  recordMetric("polymul/simgpu_batch_ns", SimGpuSec * 1e9);
  recordMetric("polymul/tuned_warm_ns", WarmSec * 1e9);
  recordMetric("polymul/tuned_warmup_ns", WarmupSec * 1e9);
  recordMetric("polymul/cold_per_poly_ns", ColdPerPoly * 1e9);
  reportf("vector BLAS: vmul x %zu in %s; cold tuner vector pick: %s\n",
          VecElems, formatNanos(VmulVectorSec * 1e9).c_str(),
          VectorPickShape.c_str());
  recordMetric("blas/vmul_vector_ns", VmulVectorSec * 1e9);

  banner("Fused NTT stage pipeline (batched forward transforms)");
  TextTable FT({"n", "batch", "dispatches f1/f2/f3", "depth 1", "depth 2",
                "depth 3", "tuned depth"});
  for (const FuseRow &Row : FuseRows) {
    unsigned LogN = 0;
    while ((size_t(1) << LogN) < Row.NttN)
      ++LogN;
    FT.addRow({formatv("%zu", Row.NttN), formatv("%zu", Row.NttBatch),
               formatv("%u/%u/%u", LogN, (LogN + 1) / 2, (LogN + 2) / 3),
               formatNanos(Row.Sec[0] * 1e9),
               formatNanos(Row.Sec[1] * 1e9),
               formatNanos(Row.Sec[2] * 1e9),
               Row.TunedDepth ? formatv("%u", Row.TunedDepth)
                              : std::string("?")});
  }
  report(FT.render());

  // -- Autotune persistence: a second process-equivalent reloads ---------
  Autotuner Tuner2(Reg, TO); // constructor loads TunePath
  const TuneDecision *Dec =
      Tuner2.choose(KernelOp::MulMod, Q, {}, N * Batch);
  bool Reloaded = Dec && Dec->FromCache && Tuner2.stats().Tuned == 0 &&
                  MulDec && Dec->Opts == MulDec->Opts;
  std::remove(TunePath.c_str());

  // -- Pass-pipeline effectiveness (deterministic op-count facts) --------
  // What the pruning pipeline (interval range analysis + CSE + dead-port
  // elimination around the folds) leaves of the two kernel classes it
  // shrinks most. The counts are exact properties of the rewrite system,
  // so the CI perf-trajectory gate pins them bit-for-bit (*_count
  // metrics) — a pass regression shows up as a count shift, not as
  // timing noise.
  {
    banner("Pruning pass pipeline (exact op counts)");
    auto passFacts = [&](const ir::Kernel &K, const char *Tag) {
      rewrite::LoweredKernel L = rewrite::lowerToWords(K);
      rewrite::PipelineStats S = rewrite::pruningPipeline().runLowered(L);
      rewrite::OpStats Ops = rewrite::countOps(L.K);
      auto Count = [&](const char *Metric, double V) {
        recordMetric(formatv("passes/%s_%s_count", Tag, Metric), V);
      };
      Count("stmts", Ops.Total);
      Count("mul", Ops.multiplies());
      Count("addsub", Ops.addSubs());
      unsigned Cse = S.pass("cse")->Changes;
      unsigned Range = S.pass("range")->Changes;
      unsigned Dce = S.pass("dce")->Removed;
      Count("cse_changes", Cse);
      Count("range_changes", Range);
      Count("dce_removed", Dce);
      reportf("%-10s %3u stmts %3u mul %3u addsub (cse=%u range=%u "
              "dce=%u)\n",
              Tag, Ops.Total, Ops.multiplies(), Ops.addSubs(), Cse, Range,
              Dce);
    };
    kernels::ScalarKernelSpec BSpec;
    BSpec.ContainerBits = 128;
    BSpec.ModBits = 124;
    passFacts(kernels::buildButterflyKernel(BSpec), "butterfly");
    kernels::ScalarKernelSpec RSpec;
    RSpec.ContainerBits = 256;
    RSpec.ModBits = 60;
    passFacts(kernels::buildRnsDecomposeKernel(RSpec, /*WideWords=*/4),
              "rnsdec");
    flushReport();
  }

  // Exact wiring facts for the CI perf-trajectory gate (*_ok metrics
  // must match the committed baseline bit-for-bit).
  recordMetric("smoke/backends_agree_ok", BackendsAgree ? 1.0 : 0.0);
  recordMetric("smoke/tuned_agrees_ok", TunedAgrees ? 1.0 : 0.0);
  recordMetric("smoke/tune_cache_reloads_ok", Reloaded ? 1.0 : 0.0);
  recordMetric("smoke/vector_identical_ok", VectorAgrees ? 1.0 : 0.0);
  recordMetric("smoke/tuner_picks_vector_ok", PickedVector ? 1.0 : 0.0);

  if (Smoke) {
    banner("Smoke verdicts (wiring and the cold tuner's vector pick)");
    verdict("sim-GPU backend bit-identical to vector",
            BackendsAgree ? 1.0 : 0.0, 1.0);
    verdict("vector backend bit-identical to sim-GPU (wide vmul)",
            VectorAgrees ? 1.0 : 0.0, 1.0);
    verdict("autotuned dispatch bit-identical to vector",
            TunedAgrees ? 1.0 : 0.0, 1.0);
    verdict("tune cache round-trips with backend fields",
            Reloaded ? 1.0 : 0.0, 1.0);
    verdict("cold autotuner picks vector for >= 1 wide BLAS shape",
            PickedVector ? 1.0 : 0.0, 1.0);
    flushReport();
    if (!writeJsonReport(JsonPath, "bench_runtime_batch")) {
      std::fprintf(stderr, "cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    if (!JsonPath.empty())
      std::printf("wrote %s\n", JsonPath.c_str());
    return BackendsAgree && TunedAgrees && Reloaded && VectorAgrees &&
                   PickedVector
               ? 0
               : 1;
  }

  banner("Verdicts");
  verdict("sim-GPU backend bit-identical to vector",
          BackendsAgree ? 1.0 : 0.0, 1.0);
  verdict("vector backend bit-identical to sim-GPU (wide vmul)",
          VectorAgrees ? 1.0 : 0.0, 1.0);
  verdict("cold autotuner picks vector for >= 1 wide BLAS shape",
          PickedVector ? 1.0 : 0.0, 1.0);
  verdict(formatv("%zu-poly batch: warm cache beats per-call emit+compile",
                  Batch),
          ColdProjected / WarmSec, 10.0);
  verdict("persisted autotune decisions reload without re-timing",
          Reloaded ? 1.0 : 0.0, 1.0);
  verdict("stage fusion: depth > 1 beats depth 1 on >= 1 size bucket",
          FusionWins ? 1.0 : 0.0, 1.0);
  verdict("autotuner picks a fused depth where fusion wins (cold cache)",
          TunerPicksFusion ? 1.0 : 0.0, 1.0);
  flushReport();
  if (!writeJsonReport(JsonPath, "bench_runtime_batch")) {
    std::fprintf(stderr, "cannot write %s\n", JsonPath.c_str());
    return 1;
  }
  if (!JsonPath.empty())
    std::printf("wrote %s\n", JsonPath.c_str());
  return BackendsAgree && TunedAgrees && Reloaded && VectorAgrees &&
                 PickedVector && ColdProjected / WarmSec >= 10.0 &&
                 FusionWins && TunerPicksFusion
             ? 0
             : 1;
}

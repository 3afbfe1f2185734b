//===- bench/e2e/Workload.h - workload interface and set-up -----*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What a workload of the end-to-end benchmark provides, and the set-up
/// machinery the workloads share: enumerating every autotuner problem
/// (op, width, size bucket) a workload's dispatches can reach, and
/// pre-tuning all of them so the measured phase never tunes.
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_BENCH_E2E_WORKLOAD_H
#define MOMA_BENCH_E2E_WORKLOAD_H

#include "Common.h"
#include "Trace.h"

#include "runtime/Autotuner.h"
#include "runtime/Dispatcher.h"

#include <memory>
#include <string>
#include <vector>

namespace moma {
namespace e2e {

/// One autotuner problem a workload's dispatches can reach.
struct TuneProblem {
  runtime::KernelOp Op = runtime::KernelOp::MulMod;
  mw::Bignum Q;
  size_t Hint = 0;               ///< choose(): elements per dispatch
  size_t NPoints = 0, Batch = 0; ///< chooseNtt() when NPoints != 0
  rewrite::NttRing Ring = rewrite::NttRing::Cyclic;
};

/// Adds one problem per size bucket that element-wise dispatches of
/// Unit * B elements reach, for every batch B in [MinBatch, MaxBatch]
/// (a coalescing server forms any batch up to its MaxBatch). Problems
/// already in \p Ps are not added twice.
void addElementwise(std::vector<TuneProblem> &Ps, runtime::KernelOp Op,
                    const mw::Bignum &Q, size_t Unit, size_t MinBatch,
                    size_t MaxBatch);
/// The same for batched NPoints-point transforms of B rows.
void addTransform(std::vector<TuneProblem> &Ps, const mw::Bignum &Q,
                  size_t NPoints, size_t MinBatch, size_t MaxBatch,
                  rewrite::NttRing Ring);

/// The decision the tuner pinned for one problem.
struct Pick {
  std::string Problem; ///< e.g. "mulmod/c128/m124/w64 n16384"
  runtime::PlanKey Key;
  double NsPerElem = 0;
};

/// The tuner configuration every workload uses.
runtime::AutotunerOptions benchTunerOptions();

/// The registry every set-up builds, compiling into \p JitDir.
std::unique_ptr<runtime::KernelRegistry> makeRegistry(const std::string &JitDir);

/// What one cold set-up cost.
struct SetupStats {
  double WallS = 0;
  double TuneBusyS = 0; ///< summed time inside choose()/chooseNtt()
  unsigned Problems = 0;
  unsigned Candidates = 0;
  unsigned JitCompiles = 0, JitDiskHits = 0;
  unsigned RegistryBuilds = 0;
};

/// Pins a decision in \p Tu for every problem, one "autotuner.choose"
/// span each. Fills \p Picks (in problem order) and \p BusyS, the time
/// inside the tuner's choose calls (compiles and timing); false with
/// \p Err on a problem no candidate could serve.
bool pretune(runtime::Autotuner &Tu, const rewrite::PlanOptions &Base,
             const std::vector<TuneProblem> &Ps, Trace *T,
             std::uint32_t Parent, std::vector<Pick> &Picks, double &BusyS,
             std::string &Err);

/// Copies the tuner, JIT and registry counters of a finished set-up.
void fillSetupStats(SetupStats &S, runtime::KernelRegistry &Reg,
                    runtime::Autotuner &Tu, size_t Problems);

/// An element-wise case the kernel probe times through the backend
/// directly: op, modulus, elements per dispatch, and workload buffers of
/// that many elements to run on (C is overwritten).
struct KernelCase {
  std::string Name;
  runtime::KernelOp Op;
  mw::Bignum Q;
  size_t N;
  const std::uint64_t *A, *B;
  std::uint64_t *C;
};

/// A transform shape the NTT probe times.
struct NttShape {
  mw::Bignum Q;
  size_t NPoints = 0, Batch = 0;
  rewrite::NttRing Ring = rewrite::NttRing::Cyclic;
};

/// The live stack of the last set-up, as the per-layer probes see it.
struct StackView {
  runtime::KernelRegistry *Reg = nullptr;
  runtime::Autotuner *Tuner = nullptr;
  rewrite::PlanOptions Base;
};

class Workload {
public:
  virtual ~Workload() = default;
  virtual const char *name() const = 0;
  /// True when requests go through a Server (and so can queue).
  virtual bool serves() const { return false; }

  /// Builds every input from \p Seed. Not part of setup_s.
  virtual void generate(std::uint64_t Seed) = 0;
  /// One cold set-up over the empty JIT cache directory \p JitDir: builds
  /// a new stack, pre-tunes every problem the measured phase can reach,
  /// and warms up.
  virtual bool setup(const std::string &JitDir, Trace *T,
                     std::uint32_t Parent, SetupStats &S,
                     std::string &Err) = 0;
  /// Destroys the stack, so its JIT cache directory can be removed.
  virtual void teardown() = 0;
  /// The measured phase, about \p Seconds long. Fills the latency and
  /// rate metrics, and the service and load-generator layer metrics that
  /// the traced run reports; records spans when \p T is non-null.
  virtual void measure(double Seconds, Trace *T, std::uint32_t Parent,
                       Ledger &L, MetricMap &M) = 0;
  /// Checks the outputs kept during measure() against the oracles.
  virtual void verify(Trace *T, std::uint32_t Parent, Ledger &L) = 0;
  /// Autotuner problems the workload's dispatches reach (after setup).
  virtual std::uint64_t tunedSoFar() const = 0;

  // -- Inputs to the per-layer probes (traced runs) ----------------------
  virtual StackView stack() = 0;
  virtual std::vector<KernelCase> kernelCases() = 0;
  /// The largest transform the workload runs, if any.
  virtual bool nttShape(NttShape &S) const = 0;
  /// Replays the first requests (at most \p Count) of the measured phase
  /// serially through \p D; returns the requests replayed.
  virtual size_t replay(runtime::Dispatcher &D, size_t Count,
                        Ledger &L) = 0;
  /// Workload-specific layer probes (the RNS and FHE layers).
  virtual void probeLayers(Trace *T, std::uint32_t Parent, MetricMap &M) {
    (void)T;
    (void)Parent;
    (void)M;
  }

  const std::vector<Pick> &picks() const { return Picks; }

protected:
  std::vector<Pick> Picks;
};

std::unique_ptr<Workload> makeBlasWide();
std::unique_ptr<Workload> makeNttZkp();
std::unique_ptr<Workload> makeFheServe();
std::unique_ptr<Workload> makeTenantChurn();

} // namespace e2e
} // namespace moma

#endif // MOMA_BENCH_E2E_WORKLOAD_H

//===- runtime/Autotuner.h - Per-problem variant selection -----*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Picks the fastest generated-kernel variant per problem, the way the
/// paper's per-configuration generation model implies: on the first
/// request for a (kernel, widths, batch-size class) problem the tuner
/// compiles every candidate knob combination (Barrett vs Montgomery for
/// mulmod and axpy, pruning on/off, scheduled vs unscheduled, sim-GPU
/// backend × block dim {64..1024} vs vector backend, and the fusion
/// depth for transforms), times each distinct
/// plan once over a calibration batch on this machine, and pins the
/// winner. Element-wise ops tune through choose(), butterflies only as
/// whole transforms through chooseNtt(). Decisions persist as JSON so a
/// process restart reuses them instead of re-timing.
///
/// What the tuner measures on this CPU substrate — and what it does not —
/// is recorded in DESIGN.md ("Runtime autotuning"): steady-state batched
/// throughput of the compiled scalar kernel, not GPU occupancy or memory
/// behavior.
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_RUNTIME_AUTOTUNER_H
#define MOMA_RUNTIME_AUTOTUNER_H

#include "runtime/KernelRegistry.h"
#include "support/ThreadError.h"

#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>

namespace moma {
namespace runtime {

/// Tuning configuration.
struct AutotunerOptions {
  /// Elements in the calibration batch each candidate is timed on when
  /// the caller gives no batch-size hint (also the effective bucket
  /// floor).
  unsigned CalibrationElems = 256;
  /// Upper bound on the calibration batch when a large size hint arrives
  /// (the bucket itself is unbounded only up to 16384; see choose()).
  unsigned MaxCalibrationElems = 4096;
  /// Timed repetitions per candidate; the minimum is kept.
  unsigned Repeats = 3;
  /// Dimensions to sweep. A disabled dimension keeps the base plan value.
  /// The reduction dimension only reaches mulmod and axpy plans.
  bool TuneReduction = true;
  bool TunePrune = true;
  bool TuneSchedule = true;
  /// Sweep the execution backend (sim-GPU grid vs vector) and, for the
  /// sim-GPU candidates, the block dimensions below. Off pins the base
  /// plan's backend and geometry.
  bool TuneBackend = true;
  /// Block dimensions swept for sim-GPU candidates (paper §5.1: at most
  /// 1024 threads per block). Geometry is a launch parameter of the grid
  /// ABI, so these share one compiled module per knob combination.
  std::vector<unsigned> BlockDims = {64, 128, 256, 512, 1024};
  /// When non-empty: load(CachePath) at construction and save(CachePath)
  /// after every tuning run, so decisions survive process restarts.
  std::string CachePath;
};

/// One pinned decision for a problem key.
struct TuneDecision {
  rewrite::PlanOptions Opts; ///< winning knob combination
  double NsPerElem = 0;      ///< winner's measured per-element time
  bool FromCache = false;    ///< loaded from persisted JSON, not re-timed
};

/// First-request autotuner over a KernelRegistry. Thread-safe: share one
/// tuner across threads. Concurrent choose()/chooseNtt() calls for one
/// cold problem single-flight onto one timing sweep — followers block
/// until the leader's decision lands, then serve it, so N worker threads
/// racing on a cold problem pay one sweep total. Decisions are immutable
/// once pinned, so the returned pointers stay valid for the tuner's
/// lifetime; error() is a per-calling-thread slot.
class Autotuner {
public:
  explicit Autotuner(KernelRegistry &Reg,
                     AutotunerOptions Opts = AutotunerOptions());

  /// Returns the pinned variant for (Op, |Q| bits) at the batch size
  /// class of \p SizeHint, tuning now on a first request. Decisions are
  /// per *problem size*: the hint (elements per dispatch; 0 means
  /// CalibrationElems) rounds up to a power-of-two bucket in [64, 16384],
  /// because the sim-GPU/vector crossover moves with the batch size. The
  /// calibration batch matches the bucket (capped at
  /// MaxCalibrationElems). \p Base supplies the values of knobs outside
  /// the swept dimensions (word size, multiply rule). Null when every
  /// candidate failed to compile; error() explains. \p Op is an
  /// element-wise op: a Butterfly is refused (null, with an error()
  /// naming chooseNtt), since butterflies tune as transforms.
  const TuneDecision *choose(KernelOp Op, const mw::Bignum &Q,
                             const rewrite::PlanOptions &Base =
                                 rewrite::PlanOptions(),
                             size_t SizeHint = 0);

  /// The transform-shaped companion of choose(): picks the butterfly
  /// variant for whole batched NTTs of \p NPoints points (candidates are
  /// timed on real fused stage-group walks — bit-reversal gather,
  /// in-register sub-stages, [w | wq] twiddle tables — so the FuseDepth
  /// axis is measured, not guessed). Decisions key on the
  /// butterfly problem, the transform size, and the batch-size class of
  /// (NPoints/2) * Batch butterflies per stage dispatch. \p Q must be
  /// NTT-friendly for \p NPoints (2-adicity >= log2 n); null with
  /// error() set otherwise.
  const TuneDecision *chooseNtt(const mw::Bignum &Q,
                                const rewrite::PlanOptions &Base,
                                size_t NPoints, size_t Batch);

  /// The power-of-two batch-size class \p SizeHint falls into.
  static unsigned sizeBucket(size_t SizeHint);

  /// Serializes all decisions as JSON. Returns false on I/O failure.
  bool save(const std::string &Path) const;

  /// Merges decisions from a JSON file produced by save(). Entries loaded
  /// here are served with FromCache = true and are never re-timed; an
  /// entry naming a backend this build does not run (a retired one, say)
  /// is skipped, so its problem re-tunes on demand. Returns false (with
  /// error()) on I/O or parse failure, or when the file is not a
  /// version-5 tune cache; a missing or rejected file is reported as
  /// failure but leaves the tuner usable.
  bool load(const std::string &Path);

  /// Diagnostics from the calling thread's most recent failed call;
  /// empty after success.
  const std::string &error() const { return Err.get(); }

  /// Tuning counters.
  struct Stats {
    unsigned Tuned = 0;     ///< problems tuned by timing candidates
    unsigned Reused = 0;    ///< choose() served from a pinned decision
    unsigned Candidates = 0; ///< total candidate variants timed
  };
  Stats stats() const;
  size_t numDecisions() const;

private:
  /// Decision-table key: PlanKey::problemStr() plus the size bucket plus
  /// every base knob the sweep dimensions leave pinned, so conflicting
  /// base plans never share a decision.
  std::string decisionKey(KernelOp Op, const mw::Bignum &Q,
                          const rewrite::PlanOptions &Base,
                          unsigned Bucket) const;
  /// The single-flight skeleton shared by choose() and chooseNtt():
  /// serves a pinned decision, waits out a sweep another thread is
  /// running on \p Problem, or runs \p Sweep itself with no locks held
  /// and publishes its decision. \p Sweep fills the decision and the
  /// candidates-timed count, or returns false with an error message.
  const TuneDecision *
  serveOrTune(const std::string &Problem,
              const std::function<bool(TuneDecision &, unsigned &,
                                       std::string &)> &Sweep);
  /// The timing sweeps; lock-free (the registry they drive is itself
  /// thread-safe), reporting through the out-parameters only. Each builds
  /// its calibration data and hands the candidate loop to
  /// timeCandidates().
  bool tuneProblem(KernelOp Op, const mw::Bignum &Q,
                   const rewrite::PlanOptions &Base, unsigned Bucket,
                   TuneDecision &Out, unsigned &CandsTimed,
                   std::string &Error) const;
  bool tuneNttProblem(const mw::Bignum &Q, const rewrite::PlanOptions &Base,
                      size_t NPoints, unsigned Bucket, TuneDecision &Out,
                      unsigned &CandsTimed, std::string &Error) const;
  /// One calibration pass of one candidate over a sweep's data, given
  /// the compiled plan, its backend and its aux-port pointers; false (with
  /// the error slot set) when the run fails.
  using CalibrationRun = std::function<bool(
      const CompiledPlan &, ExecutionBackend &,
      const std::vector<const std::uint64_t *> &, std::string *)>;
  /// The candidate loop both sweeps share: compiles each of \p Cands for
  /// (\p Op, \p Q), times \p Run (the minimum over Repeats) and pins the
  /// fastest by ns per element over \p Elems elements. A candidate that
  /// fails to compile or run drops out; false, with the first failure in
  /// \p Error, when every candidate did.
  bool timeCandidates(KernelOp Op, const mw::Bignum &Q,
                      const std::vector<rewrite::PlanOptions> &Cands,
                      size_t Elems, const CalibrationRun &Run,
                      TuneDecision &Out, unsigned &CandsTimed,
                      std::string &Error) const;
  /// Shared knob-grid enumeration (reduction x prune x schedule x
  /// backend/geometry [x fuse depth for transform problems]), one
  /// candidate per distinct canonical PlanKey: grid points that
  /// canonicalize onto an earlier candidate (the reduction knob of every
  /// op but mulmod and axpy) are skipped.
  std::vector<rewrite::PlanOptions> candidates(KernelOp Op,
                                               const mw::Bignum &Q,
                                               const rewrite::PlanOptions
                                                   &Base,
                                               bool SweepFuse,
                                               std::string *Err) const;
  /// save() with Mu already held.
  bool saveLocked(const std::string &Path) const;

  KernelRegistry &Reg;
  AutotunerOptions O;
  mutable std::mutex Mu; ///< guards S, Decisions, Tuning
  std::condition_variable TuneCV; ///< signaled when a sweep finishes
  Stats S;
  support::ThreadError Err;
  /// Keyed by PlanKey::problemStr(). std::map: node-based, so decision
  /// addresses handed out stay stable as the table grows.
  std::map<std::string, TuneDecision> Decisions;
  /// Problems with a sweep in flight (single-flight admission).
  std::set<std::string> Tuning;
};

} // namespace runtime
} // namespace moma

#endif // MOMA_RUNTIME_AUTOTUNER_H

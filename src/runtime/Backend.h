//===- runtime/Backend.h - Execution backends ------------------*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution layer of the runtime: a compiled plan is run through an
/// ExecutionBackend, of which there are three. Each has two entry points,
/// a batched element-wise runBatch and a fused NTT runStageGroup (the
/// paper's one-launch-per-stage cadence is FuseDepth = 1 stage groups) —
///
///  * SimGpuBackend: the paper's §5.1 grid/block mapping — the plan's
///    grid-shaped entry points (codegen/GridEmitter.h) launched block-wise
///    over a sim::Device thread pool, grid y indexing the batch;
///  * VectorBackend: the plan's batched entry points
///    (codegen/VectorEmitter.h) called on the calling thread and compiled
///    by the JIT at -O3 -march=native — one element loop per batch, and
///    fused transforms with a fixed block of batch rows in SIMD lanes;
///  * InterpBackend: no machine code at all — every element call runs the
///    plan's scalar kernel through ir::Interp. Its host walkers mirror
///    the emitted entries (the same element addressing, the same
///    stage-group geometry and butterfly order), so its results are
///    bit-identical to every JIT backend; it exists as the terminal rung
///    of the degradation ladder when the host compiler is unavailable
///    (DESIGN.md "Failure model & the degradation ladder").
///
/// Which backend a plan runs on is part of its PlanKey
/// (PlanOptions::Backend + BlockDim), so the autotuner can sweep backend
/// choice and launch geometry per problem exactly like the reduction /
/// pruning / scheduling knobs. Backends are stateless with
/// respect to plans: one backend instance serves every plan of its kind
/// (the sim-GPU backend owns the worker pool).
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_RUNTIME_BACKEND_H
#define MOMA_RUNTIME_BACKEND_H

#include "runtime/KernelRegistry.h"
#include "sim/Launch.h"

#include <string>
#include <vector>

namespace moma {
namespace runtime {

/// One fused NTT stage-group launch (the codegen/GridEmitter.h fused-ABI
/// contract): `Depth` consecutive butterfly stages starting at
/// half-distance `Len0`, each virtual thread transforming 2^Depth points
/// in registers. `Gather` (bit-reversal table, first group only) folds
/// the input permutation into the loads; `Twist` (per-element ψ powers,
/// first forward group of a negacyclic transform) folds the ring twist
/// into the same loads; `Scale` (last inverse group) folds the final
/// multiply into the stores — broadcast n^-1 when ScaleStride is 0, the
/// per-element negacyclic untwist ψ^{-e}·n^-1 when ScaleStride is the
/// table's EntryWords. All multiply-fold tables share the twiddle tables'
/// [w | wq] entry layout (runtime/NttPipeline.h), so every table is
/// stepped by the entry size. Src == Dst is only safe when every thread's
/// read set equals its write set: any group without Gather, or a
/// single-group transform (Depth == log2(n), one thread per row).
struct StageGroup {
  size_t Len0 = 1;    ///< half-distance of the group's first stage
  unsigned Depth = 1; ///< fused stages, in [1, PlanOptions::MaxFuseDepth]
  const std::uint64_t *Src = nullptr;
  std::uint64_t *Dst = nullptr;
  const std::uint32_t *Gather = nullptr; ///< NPoints-entry bit-rev table
  const std::uint64_t *Twist = nullptr;  ///< NPoints-entry ψ table
  const std::uint64_t *Scale = nullptr;  ///< scale factor(s), see above
  unsigned ScaleStride = 0; ///< 0 = broadcast, EntryWords = per element
};

/// Abstract execution substrate for compiled plans. Implementations are
/// not thread-safe with respect to one plan's buffers (callers own the
/// batch memory), but hold no per-call state of their own.
class ExecutionBackend {
public:
  virtual ~ExecutionBackend() = default;

  virtual rewrite::ExecBackend kind() const = 0;
  const char *name() const { return rewrite::execBackendName(kind()); }

  /// Batched element-wise execution of \p P over \p Rows batch rows of
  /// \p N elements each (total Rows * N elements; flat callers pass
  /// Rows = 1). Returns false on a shape/geometry mismatch with a message
  /// in \p Err when non-null.
  virtual bool runBatch(const CompiledPlan &P, const BatchArgs &Args,
                        size_t N, size_t Rows,
                        std::string *Err = nullptr) const = 0;

  /// One fused stage-group dispatch over \p Batch rows of \p NPoints
  /// elements (see StageGroup). \p Tw is the *full* stage-major twiddle
  /// table for the transform direction — each fused sub-stage of
  /// half-distance L indexes its slice at word offset (L-1)*EntryWords —
  /// and \p Aux the plan's broadcast tail. \p P must be a butterfly plan.
  virtual bool runStageGroup(const CompiledPlan &P, const StageGroup &G,
                             const std::uint64_t *Tw,
                             const std::vector<const std::uint64_t *> &Aux,
                             size_t NPoints, size_t Batch,
                             std::string *Err = nullptr) const = 0;
};

/// Grid-shaped execution on the sim-GPU substrate: launches the plan's
/// grid/fused entry points block-wise over a sim::Device pool, one block
/// per call (threads serialized inside the JIT-compiled block loop, as on
/// a time-sliced SM). Runs plans compiled for ExecBackend::SimGpu.
class SimGpuBackend final : public ExecutionBackend {
public:
  explicit SimGpuBackend(
      const sim::DeviceProfile &Profile = sim::deviceHostDefault());

  rewrite::ExecBackend kind() const override {
    return rewrite::ExecBackend::SimGpu;
  }
  const sim::Device &device() const { return Dev; }

  bool runBatch(const CompiledPlan &P, const BatchArgs &Args, size_t N,
                size_t Rows, std::string *Err = nullptr) const override;
  bool runStageGroup(const CompiledPlan &P, const StageGroup &G,
                     const std::uint64_t *Tw,
                     const std::vector<const std::uint64_t *> &Aux,
                     size_t NPoints, size_t Batch,
                     std::string *Err = nullptr) const override;

private:
  /// Geometry check shared by both entry points: the plan's block dim
  /// must fit the device (at most MaxThreadsPerBlock = 1024, §5.1).
  bool validGeometry(const CompiledPlan &P, std::string *Err) const;

  sim::Device Dev;
};

/// Batched execution on the calling thread through the vector entry
/// points: one element loop over the whole batch, and fused stage groups
/// with blocks of codegen::VectorLanes batch rows in SIMD lanes
/// (structure-of-arrays staging, carry chains in-lane). Runs plans
/// compiled for ExecBackend::Vector.
class VectorBackend final : public ExecutionBackend {
public:
  rewrite::ExecBackend kind() const override {
    return rewrite::ExecBackend::Vector;
  }
  bool runBatch(const CompiledPlan &P, const BatchArgs &Args, size_t N,
                size_t Rows, std::string *Err = nullptr) const override;
  bool runStageGroup(const CompiledPlan &P, const StageGroup &G,
                     const std::uint64_t *Tw,
                     const std::vector<const std::uint64_t *> &Aux,
                     size_t NPoints, size_t Batch,
                     std::string *Err = nullptr) const override;
};

/// Interpreter execution on the calling thread: each element call unpacks
/// the port words into Bignums, runs the plan's scalar kernel through
/// ir::interpret, and packs the results back. Orders of magnitude slower
/// than any JIT backend but involves zero compilation, so it cannot fail
/// transiently — the Dispatcher binds it when every JIT rung of the
/// degradation ladder is exhausted. Runs plans compiled (trivially: no
/// code is generated) for ExecBackend::Interp.
class InterpBackend final : public ExecutionBackend {
public:
  rewrite::ExecBackend kind() const override {
    return rewrite::ExecBackend::Interp;
  }
  bool runBatch(const CompiledPlan &P, const BatchArgs &Args, size_t N,
                size_t Rows, std::string *Err = nullptr) const override;
  bool runStageGroup(const CompiledPlan &P, const StageGroup &G,
                     const std::uint64_t *Tw,
                     const std::vector<const std::uint64_t *> &Aux,
                     size_t NPoints, size_t Batch,
                     std::string *Err = nullptr) const override;
};

} // namespace runtime
} // namespace moma

#endif // MOMA_RUNTIME_BACKEND_H

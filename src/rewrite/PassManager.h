//===- rewrite/PassManager.h - Composable IR pass pipeline ----*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pass manager that runs the §4 pruning rewrite: a pipeline of small
/// passes (rewrite/Passes.h) driven to a fixed point by PassPipeline, so
/// each rule family is testable alone. rewrite::lowerWithPlan
/// (rewrite/PlanOptions.h) runs pruningPipeline() over every lowered
/// kernel when pruning is on; there is no other pipeline to choose.
///
/// The contract every pass obeys:
///
///  * run(K, AC) transforms K in place and reports what it did;
///  * when a pass rebuilds the kernel (renumbering values), it returns the
///    old-value -> new-value substitution so drivers can remap
///    LoweredKernel port words and word bounds; an empty substitution
///    means value ids were preserved;
///  * a pass that finds nothing to do must leave K untouched and report
///    zero changes — fixpoint detection depends on it.
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_REWRITE_PASSMANAGER_H
#define MOMA_REWRITE_PASSMANAGER_H

#include "ir/Ir.h"
#include "rewrite/Lower.h"

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace moma {
namespace rewrite {

/// What one pass application did to one kernel.
struct PassResult {
  /// Rewrites applied (folds, identities, reductions, CSE hits, ...).
  unsigned Changes = 0;
  /// Statements (DCE) or port words (dead-port elimination) removed.
  unsigned Removed = 0;
  /// Old-value -> new-value map when the pass rebuilt the kernel and
  /// renumbered values; empty when ids were preserved.
  std::vector<ir::ValueId> Subst;
};

/// Analyses shared between passes in one pipeline sweep. Results are
/// computed lazily and must be invalidated after any pass changes the
/// kernel. Also carries the LoweredKernel when the pipeline runs over one,
/// so port-aware passes (dead-port elimination) can see the port maps.
class AnalysisCache {
public:
  explicit AnalysisCache(LoweredKernel *Lowered = nullptr)
      : Lowered(Lowered) {}

  /// The lowered kernel this pipeline runs over, or null for a plain
  /// ir::Kernel pipeline.
  LoweredKernel *lowered() const { return Lowered; }

  /// Per-value operand/output use counts over \p K.
  const std::vector<unsigned> &useCounts(const ir::Kernel &K);

  /// Drops every cached analysis (call after a pass mutates the kernel).
  void invalidate() { UseCountsValid = false; }

private:
  LoweredKernel *Lowered;
  bool UseCountsValid = false;
  std::vector<unsigned> UseCounts;
};

/// One rewrite pass over a kernel.
class Pass {
public:
  virtual ~Pass() = default;
  virtual const char *name() const = 0;
  virtual PassResult run(ir::Kernel &K, AnalysisCache &AC) = 0;
};

/// Per-pass counters accumulated across a pipeline run.
struct PassStats {
  std::string Name;
  unsigned Runs = 0;    ///< times the pass executed
  unsigned Changes = 0; ///< total rewrites reported
  unsigned Removed = 0; ///< total statements / port words removed
  int StmtDelta = 0;    ///< net body-size change attributed to the pass
  int MulDelta = 0;     ///< net Mul+MulLow change
  int AddSubDelta = 0;  ///< net Add+Sub change
};

/// What a whole pipeline run did.
struct PipelineStats {
  std::vector<PassStats> PerPass; ///< one entry per pipeline pass, in order
  unsigned Iterations = 0;        ///< fixpoint sweeps executed
  bool Converged = true;          ///< false when MaxIters was hit

  const PassStats *pass(const std::string &Name) const;
  /// One line per pass: "name: changes=... removed=... ops=-N", plus the
  /// iteration count. Used by `moma-gen --emit pass-stats` and the
  /// non-convergence diagnostic.
  std::string report() const;
};

/// Runs a fixed sequence of passes to a fixed point.
class PassPipeline {
public:
  PassPipeline() = default;
  PassPipeline(PassPipeline &&) = default;
  PassPipeline &operator=(PassPipeline &&) = default;

  PassPipeline &add(std::unique_ptr<Pass> P) {
    Passes.push_back(std::move(P));
    return *this;
  }
  size_t size() const { return Passes.size(); }

  /// One sweep: runs every pass once, remapping the lowered kernel's port
  /// words (when \p AC carries one) through each pass substitution and
  /// accumulating \p Stats. Returns the number of changes+removals
  /// observed.
  unsigned sweep(ir::Kernel &K, AnalysisCache &AC, PipelineStats &Stats);

  /// Sweeps until no pass reports work and the body size is stable, or
  /// MaxIters sweeps have run; a non-converged run emits a diagnostic on
  /// stderr naming the kernel and the last iteration's per-pass stats.
  PipelineStats run(ir::Kernel &K, unsigned MaxIters = DefaultMaxIters);

  /// run() over a lowered kernel, remapping port words through each
  /// pass substitution so the ports stay consistent across rebuilds.
  PipelineStats runLowered(LoweredKernel &L,
                           unsigned MaxIters = DefaultMaxIters);

  /// A zeroed PipelineStats with one named entry per pipeline pass.
  PipelineStats initStats() const;

  static constexpr unsigned DefaultMaxIters = 32;

private:
  std::vector<std::unique_ptr<Pass>> Passes;
};

/// The one pruning pipeline lowerWithPlan runs: constfold, algebraic,
/// range, cse, copyprop, dce, deadports. Interval range analysis makes
/// every carry, high-product and shift rewrite the significant-bit bound
/// allows, and sharper ones besides.
PassPipeline pruningPipeline();

//===--------------------------------------------------------------------===//
// KernelRebuilder
//===--------------------------------------------------------------------===//

/// Shared statement-by-statement rebuild engine for rewrite passes. Walks
/// the old body in order; Const statements are interned (deduplicating
/// small literals); every other statement is offered to the pass hook and
/// re-emitted with recomputed KnownBits when the hook declines. The
/// rebuild is committed only when it changed something, so a pass that
/// finds nothing leaves the kernel (and its value ids) untouched.
class KernelRebuilder {
public:
  explicit KernelRebuilder(const ir::Kernel &Old);

  const ir::Kernel &oldKernel() const { return Old; }
  ir::Kernel &newKernel() { return NK; }

  /// Old-id -> new-id map (valid for already-walked statements).
  ir::ValueId mapped(ir::ValueId OldId) const { return Subst[OldId]; }

  /// Operand/output uses of \p OldId in the old kernel.
  unsigned useCount(ir::ValueId OldId) const { return UseCount[OldId]; }

  /// The constant value of a NEW id, if it is one.
  const mw::Bignum *constOf(ir::ValueId NewId) const;
  bool isZero(ir::ValueId NewId) const;
  bool isOne(ir::ValueId NewId) const;
  unsigned known(ir::ValueId NewId) const { return NK.value(NewId).KnownBits; }
  unsigned widthOf(ir::ValueId NewId) const { return NK.value(NewId).Bits; }

  /// Interns a constant (deduplicating values that fit 64 bits).
  ir::ValueId emitConst(unsigned Bits, const mw::Bignum &V);
  /// A fresh result value with KnownBits clamped into [1, Bits].
  ir::ValueId newResult(unsigned Bits, unsigned Known);
  ir::Stmt &emit(ir::OpKind Kind, std::vector<ir::ValueId> Results,
                 std::vector<ir::ValueId> Operands);

  void bind(ir::ValueId OldId, ir::ValueId NewId) { Subst[OldId] = NewId; }
  void bindConst(ir::ValueId OldId, const mw::Bignum &V) {
    bind(OldId, emitConst(Old.value(OldId).Bits, V));
  }

  /// Re-emits \p S unchanged (operands already mapped), recomputing result
  /// KnownBits from the mapped operands, never looser than the old
  /// result's bound. Returns the emitted statement.
  ir::Stmt &emitDefault(const ir::Stmt &S, const std::vector<ir::ValueId> &Ops);

  /// Pass hook: return true when the statement was handled (operands come
  /// pre-mapped; CV holds constant operand values, null when non-const).
  /// A handling hook must bind every old result and bump Changes for each
  /// counted rewrite.
  using RewriteHook =
      std::function<bool(const ir::Stmt &S, const std::vector<ir::ValueId> &Ops,
                         const std::vector<const mw::Bignum *> &CV,
                         bool AllConst)>;
  /// Observer invoked after each statement the hook declined is re-emitted
  /// by emitDefault (CSE/range analysis use it to index fresh results).
  using EmitObserver =
      std::function<void(const ir::Stmt &OldS, const ir::Stmt &NewS)>;

  /// Walks the whole body through \p Hook, rebuilds inputs/outputs, and —
  /// when anything changed — commits the new kernel into \p K and returns
  /// the substitution. A rebuild with zero changes and an unchanged body
  /// size is discarded, leaving \p K untouched.
  PassResult rebuild(ir::Kernel &K, const RewriteHook &Hook,
                     const EmitObserver &Observer = nullptr);

  /// Rewrites counted by the driving pass (hooks increment it).
  unsigned Changes = 0;

private:
  const ir::Kernel &Old;
  ir::Kernel NK;
  std::vector<ir::ValueId> Subst;
  std::vector<unsigned> UseCount;
  // Flat constant tracking indexed by NEW value id (the rewrite hot path:
  // the old std::map lookups dominated cold-cache plan compiles).
  std::vector<mw::Bignum> ConstVals;
  std::vector<bool> HasConst;
  struct SmallConstKey {
    unsigned Bits;
    std::uint64_t Low;
    bool operator==(const SmallConstKey &K) const {
      return Bits == K.Bits && Low == K.Low;
    }
  };
  struct SmallConstKeyHash {
    size_t operator()(const SmallConstKey &K) const {
      return std::hash<std::uint64_t>()(K.Low * 0x9E3779B97F4A7C15ull ^
                                        K.Bits);
    }
  };
  std::unordered_map<SmallConstKey, ir::ValueId, SmallConstKeyHash>
      SmallConstCache;
};

/// Base for passes that rewrite via a KernelRebuilder walk: subclasses
/// implement tryRewrite for the statements they understand and inherit the
/// rebuild/commit/substitution plumbing.
class RebuildPass : public Pass {
public:
  PassResult run(ir::Kernel &K, AnalysisCache &AC) override;

protected:
  /// Per-kernel setup before the walk (clear pass-local state).
  virtual void begin(KernelRebuilder &RB) { (void)RB; }
  /// The pass's rewrite rules; return false to default-emit the statement.
  virtual bool tryRewrite(KernelRebuilder &RB, const ir::Stmt &S,
                          const std::vector<ir::ValueId> &Ops,
                          const std::vector<const mw::Bignum *> &CV,
                          bool AllConst) = 0;
  /// Called after a declined statement is re-emitted unchanged.
  virtual void observeDefault(KernelRebuilder &RB, const ir::Stmt &OldS,
                              const ir::Stmt &NewS) {
    (void)RB;
    (void)OldS;
    (void)NewS;
  }

  /// The analysis cache of the in-flight run(); lets begin()/tryRewrite
  /// reach pipeline-level context such as the LoweredKernel word bounds.
  AnalysisCache *CurAC = nullptr;
};

} // namespace rewrite
} // namespace moma

#endif // MOMA_REWRITE_PASSMANAGER_H

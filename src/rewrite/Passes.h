//===- rewrite/Passes.h - The pruning rewrite passes ----------*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concrete passes behind rewrite/PassManager.h, in the order
/// pruningPipeline() runs them. Constant folding, algebraic identities,
/// copy propagation and DCE are the classic cleanups; the other three do
/// the §4 pruning proper:
///
///  * RangeAnalysisPass — interval propagation (exact [lo, hi] Bignum
///    bounds) through the kernel, generalizing the KnownBits significant-
///    bit bound; kills carries/borrows, drops the high half of multiplies
///    and folds shifts and compares that bit-width reasoning proves, plus
///    those it cannot (e.g. the hi word of a full multiply is at most
///    2^w - 2, so accumulating one carry into it can never overflow).
///  * CsePass — value numbering over commutatively-canonicalized
///    statements; repeated subexpressions (fused butterfly bodies sharing
///    a twiddle, duplicated reduction chains) collapse to one.
///  * DeadPortEliminationPass — marks lowered-kernel input port words that
///    no live statement reads, so emitters skip their loads (the port ABI
///    and stored word counts are unchanged).
///
/// Each pass also preserves ir::Interp semantics when run alone.
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_REWRITE_PASSES_H
#define MOMA_REWRITE_PASSES_H

#include "rewrite/PassManager.h"

#include <map>

namespace moma {
namespace rewrite {

/// Folds statements whose operands are all constants (Bignum semantics).
class ConstFoldPass : public RebuildPass {
public:
  const char *name() const override { return "constfold"; }

protected:
  bool tryRewrite(KernelRebuilder &RB, const ir::Stmt &S,
                  const std::vector<ir::ValueId> &Ops,
                  const std::vector<const mw::Bignum *> &CV,
                  bool AllConst) override;
};

/// Algebraic identities: x+0, x-x, x*0, x*1, x&x, x^x, shifts by zero,
/// select on a constant or equal arms, compares of a value with itself.
class AlgebraicIdentitiesPass : public RebuildPass {
public:
  const char *name() const override { return "algebraic"; }

protected:
  bool tryRewrite(KernelRebuilder &RB, const ir::Stmt &S,
                  const std::vector<ir::ValueId> &Ops,
                  const std::vector<const mw::Bignum *> &CV,
                  bool AllConst) override;
};

/// Copy propagation: Copy statements and width-preserving Zext rebind
/// their result to the operand.
class CopyPropPass : public RebuildPass {
public:
  const char *name() const override { return "copyprop"; }

protected:
  bool tryRewrite(KernelRebuilder &RB, const ir::Stmt &S,
                  const std::vector<ir::ValueId> &Ops,
                  const std::vector<const mw::Bignum *> &CV,
                  bool AllConst) override;
};

/// Dead code elimination: drops statements none of whose results reach an
/// output. Runs in place (value ids are preserved).
class DcePass : public Pass {
public:
  const char *name() const override { return "dce"; }
  PassResult run(ir::Kernel &K, AnalysisCache &AC) override;
};

/// Interval range analysis (see file comment).
class RangeAnalysisPass : public RebuildPass {
public:
  const char *name() const override { return "range"; }

protected:
  void begin(KernelRebuilder &RB) override;
  bool tryRewrite(KernelRebuilder &RB, const ir::Stmt &S,
                  const std::vector<ir::ValueId> &Ops,
                  const std::vector<const mw::Bignum *> &CV,
                  bool AllConst) override;
  void observeDefault(KernelRebuilder &RB, const ir::Stmt &OldS,
                      const ir::Stmt &NewS) override;

private:
  struct Interval {
    mw::Bignum Lo, Hi; ///< inclusive bounds
  };
  /// The interval of a NEW value id ([v,v] for constants, the KnownBits
  /// box [0, 2^k - 1] when nothing tighter is recorded).
  Interval rangeOf(KernelRebuilder &RB, ir::ValueId NewId) const;
  void setRange(ir::ValueId NewId, Interval I);
  void transfer(KernelRebuilder &RB, const ir::Stmt &NewS);

  /// Applies a LoweredKernel::WordBounds fact to one old statement
  /// result: bound 0 folds a used result to constant zero; a positive
  /// bound tightens the new result's KnownBits (counted only when strict)
  /// and intersects its interval.
  void applyBound(KernelRebuilder &RB, ir::ValueId OldR);
  void applyBounds(KernelRebuilder &RB,
                   const std::vector<ir::ValueId> &OldResults);

  std::vector<Interval> Ranges;
  std::vector<bool> HasRange;
  /// Word bounds (value < 2^B) keyed by ids of the kernel being rebuilt;
  /// loaded in begin() from the pipeline's LoweredKernel, else empty.
  std::unordered_map<ir::ValueId, unsigned> Bounds;
};

/// Cross-statement common subexpression elimination (see file comment).
class CsePass : public RebuildPass {
public:
  const char *name() const override { return "cse"; }

protected:
  void begin(KernelRebuilder &RB) override;
  bool tryRewrite(KernelRebuilder &RB, const ir::Stmt &S,
                  const std::vector<ir::ValueId> &Ops,
                  const std::vector<const mw::Bignum *> &CV,
                  bool AllConst) override;
  void observeDefault(KernelRebuilder &RB, const ir::Stmt &OldS,
                      const ir::Stmt &NewS) override;

private:
  using Key = std::vector<std::uint64_t>;
  Key makeKey(const ir::Kernel &Old, const ir::Stmt &S,
              const std::vector<ir::ValueId> &Ops) const;
  std::map<Key, std::vector<ir::ValueId>> Table;
};

/// Dead-port elimination for lowered kernels (see file comment). Requires
/// the pipeline to run over a LoweredKernel; a no-op otherwise.
class DeadPortEliminationPass : public Pass {
public:
  const char *name() const override { return "deadports"; }
  PassResult run(ir::Kernel &K, AnalysisCache &AC) override;
};

} // namespace rewrite
} // namespace moma

#endif // MOMA_REWRITE_PASSES_H

//===- rewrite/Lower.h - MoMA recursive lowering pass ---------*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's core contribution (§4, Table 1): a rewrite system on data
/// types that recursively decomposes operations on 2ω-bit values into
/// operations on ω-bit values until every width is natively supported.
///
/// Each round of lowerOneLevel treats the current maximal width as the
/// "double word" and splits every value of that width into [hi, lo] halves
/// (rule 19), rewriting each statement with the matching rule:
///
///   Add     -> rules (22)(23): two half adds chained through the carry
///   Sub     -> rule (25): two half subs chained through the borrow
///   Mul     -> rule (28)+(29) schoolbook, or Eq. (9) Karatsuba
///   AddMod  -> rules (22)(24)(25)(26): add, compare, subtract, select
///   SubMod  -> rule (25) + conditional add-back (Listing 2 _dsubmod)
///   MulMod  -> the Barrett sequence of Listing 4: full multiply, quad
///              shift by m-2, multiply by mu, shift by m+5, low multiply
///              by q, subtract, compare, select
///   Lt      -> rule (26),  Eq -> rule (27),  Const/Split/Concat -> (19)-(21)
///   Shl/Shr/Select/And/Or/Xor/Zext -> the induced half-wise forms
///
/// Statically-zero hi halves of inputs (non-power-of-two widths embedded in
/// power-of-two containers, §4 Eq. 35/36) become constants instead of
/// parameters; the pruning pipeline (rewrite/PassManager.h) then prunes
/// the operations they feed.
///
/// lowerToWords drives rounds until maxBits <= TargetWordBits and reports,
/// for every original input/output, its word decomposition (most
/// significant first, the paper's bracket order).
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_REWRITE_LOWER_H
#define MOMA_REWRITE_LOWER_H

#include "ir/Ir.h"
#include "mw/MWUInt.h"

#include <string>
#include <vector>

namespace moma {
namespace rewrite {

/// Lowering configuration.
struct LowerOptions {
  /// The machine word width ω₀. 64 on the host; 16/32 exercise the deep
  /// recursion the paper targets for small-word accelerators (§7).
  unsigned TargetWordBits = 64;
  /// Which double-word multiplication rule to apply (§2.2, Fig. 5b).
  mw::MulAlgorithm MulAlg = mw::MulAlgorithm::Schoolbook;
};

/// Word-level decomposition of one original kernel input or output.
struct LoweredPort {
  std::string Name;
  unsigned ContainerBits = 0; ///< original storage width
  unsigned KnownBits = 0;     ///< original significant-bit bound
  unsigned WordBits = 0;      ///< ω₀ of the lowering
  /// All container words, most significant first (paper subscript order).
  std::vector<ir::ValueId> Words;
  /// Parallel to Words: true for statically-zero pruned words (constants
  /// in the body rather than kernel parameters).
  std::vector<bool> IsConstZero;

  /// Parallel to Words when non-empty (the deadports pass fills it): words
  /// no live statement reads. They keep their slot in the port ABI —
  /// storedWords() and the caller-side array layout are unchanged — but
  /// the emitters skip their loads and scalar parameters.
  std::vector<bool> IsDead;

  /// Whether word \p I was marked dead by the deadports pass.
  bool isDeadWord(size_t I) const {
    return I < IsDead.size() && IsDead[I];
  }

  /// Number of machine words actually stored (ceil(KnownBits / WordBits)),
  /// the paper's k with (k-1)ω₀ < λ <= kω₀.
  unsigned storedWords() const {
    return (KnownBits + WordBits - 1) / WordBits;
  }
};

/// Result of the full recursive lowering.
struct LoweredKernel {
  ir::Kernel K;
  std::vector<LoweredPort> Inputs;
  std::vector<LoweredPort> Outputs;
  unsigned Rounds = 0;

  /// Significant-bit bounds the lowering proved for individual word values
  /// but could not keep in their ValueInfo without changing the emitted
  /// kernel: (value, B) means value < 2^B, and B == 0 means the word is
  /// provably zero. Splitting a value whose scalar-level KnownBits is
  /// tighter than its width (a mulmod result known < q, the RNS
  /// decomposition's manual "r < 3q" annotation) produces half values
  /// whose own KnownBits formulas cannot carry the fact; the bounds are
  /// recorded here instead. The pruning pipeline's interval range-
  /// analysis pass consumes the table on every pruned plan; only an
  /// unpruned plan leaves it unread. PassPipeline keeps the ids current
  /// across pass rebuilds.
  std::vector<std::pair<ir::ValueId, unsigned>> WordBounds;
};

/// Applies one rewrite round at the kernel's current maximal width.
/// Exposed for the rule-by-rule tests; most callers want lowerToWords.
/// \p PairsOut, when non-null, receives old-value -> (hi, lo) mappings for
/// values of the lowered width and old -> new for the rest (lo == NoValue).
ir::Kernel lowerOneLevel(const ir::Kernel &K, const LowerOptions &Opts,
                         std::vector<std::pair<ir::ValueId, ir::ValueId>>
                             *PairsOut = nullptr);

/// Recursively lowers \p K until every value width is <= TargetWordBits.
LoweredKernel lowerToWords(const ir::Kernel &K, const LowerOptions &Opts = {});

} // namespace rewrite
} // namespace moma

#endif // MOMA_REWRITE_LOWER_H

//===- runtime/NttPipeline.h - Fused NTT execution pipeline ----*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces of the fused NTT execution pipeline shared by the
/// Dispatcher (serving) and the Autotuner (candidate timing):
///
///  * precomputed per-(q, n) tables — bit-reversal permutation,
///    stage-major forward/inverse twiddles and n^-1, every multiplier
///    paired with its Shoup quotient (the butterfly multiplies by
///    Shoup's method);
///  * the stage-group schedule: log2(n) radix-2 stages walked in
///    ceil(log2(n)/FuseDepth) fused groups;
///  * the transform driver that runs one forward/inverse NTT through an
///    ExecutionBackend as exactly that many dispatches, folding the
///    bit-reversal gather into the first group's loads and the inverse
///    n^-1 multiply into the last group's stores. No host-side data pass
///    remains: the first group reads the caller's buffer permuted, edge
///    groups ping-pong through the caller's scratch so the result lands
///    back in place.
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_RUNTIME_NTTPIPELINE_H
#define MOMA_RUNTIME_NTTPIPELINE_H

#include "runtime/Backend.h"

#include <cstdint>
#include <string>
#include <vector>

namespace moma {
namespace runtime {

/// Precomputed tables for one (modulus, size, ring) tuple. Every table is
/// an array of EntryWords-word entries [w | wq], one per multiplier: w in
/// ElemWords words, then its Shoup companion wq = floor(w * 2^lambda / q)
/// in lambda/64 words (lambda = PlanKey::canonicalContainerBits), each
/// half most significant word first — the butterfly's w and wq ports
/// read one entry. EntryWords = ElemWords + lambda/64.
///
/// Stage-major twiddle layout (matching ntt::NttPlan): the stage of
/// half-distance len holds w_{2len}^j at entry (len - 1) + j, so the
/// whole forward (or inverse) table is n - 1 entries. Negacyclic tables
/// additionally carry the ψ edge-fold tables (ψ a primitive 2n-th root
/// with ψ² = ω): Twist[i] = ψ^i multiplies coefficient i on the first
/// forward group's loads, Untwist[i] = ψ^{-i} · n^-1 multiplies output i
/// on the last inverse group's stores — the inverse scaling is folded in,
/// so negacyclic transforms issue exactly the cyclic dispatch count.
struct NttTables {
  unsigned LogN = 0;
  unsigned ElemWords = 0;  ///< words of one data element (and of w)
  unsigned EntryWords = 0; ///< words of one table entry, see above
  rewrite::NttRing Ring = rewrite::NttRing::Cyclic;
  std::vector<std::uint32_t> BitRev; ///< n entries
  std::vector<std::uint64_t> Tw;     ///< forward, (n-1) x EntryWords
  std::vector<std::uint64_t> InvTw;  ///< inverse, (n-1) x EntryWords
  std::vector<std::uint64_t> NInv;   ///< n^-1, one entry
  std::vector<std::uint64_t> Twist;  ///< ψ^i, n x EntryWords (negacyclic)
  std::vector<std::uint64_t> Untwist; ///< ψ^{-i}·n^-1, n x EntryWords

  /// Bytes held by the table vectors (Shoup companions included) — what
  /// a table cache charges.
  size_t bytes() const {
    return BitRev.size() * sizeof(std::uint32_t) +
           (Tw.size() + InvTw.size() + NInv.size() + Twist.size() +
            Untwist.size()) *
               sizeof(std::uint64_t);
  }
};

/// Builds the tables for modulus \p Q at transform size \p NPoints for
/// ring \p Ring (the Shoup companions use the canonical container width
/// for \p Q, i.e. 2^lambda with lambda = PlanKey::canonicalContainerBits).
/// Returns false with \p Err set when \p NPoints is not a power of two
/// >= 2 or the modulus lacks the 2-adicity for a primitive root
/// (negacyclic needs one more factor of two: 2n | q - 1).
bool buildNttTables(const mw::Bignum &Q, size_t NPoints, NttTables &Out,
                    std::string *Err,
                    rewrite::NttRing Ring = rewrite::NttRing::Cyclic);

/// One entry of the stage-group schedule.
struct StageGroupPlan {
  size_t Len0 = 1;    ///< half-distance of the group's first stage
  unsigned Depth = 1; ///< stages fused into this dispatch
};

/// Splits \p LogN radix-2 stages into fused groups of at most
/// \p FuseDepth stages: full-depth groups first, the remainder (if any)
/// last, ceil(LogN / FuseDepth) groups total.
std::vector<StageGroupPlan> planStageGroups(unsigned LogN,
                                            unsigned FuseDepth);

/// Runs one in-place batched transform over \p Batch rows of \p NPoints
/// elements in \p Data through \p EB with butterfly plan \p P, walking
/// the stage-group schedule for the plan's FuseDepth. \p T must be built
/// for the plan's modulus (its entries must match the plan's w and wq
/// ports; a mismatch is refused) and ring; negacyclic plans fold the
/// ψ twist into the first forward group and the ψ^{-1}·n^-1 untwist into
/// the last inverse group, so the dispatch count never depends on the
/// ring. \p Scratch (same extent as the data,
/// NPoints * Batch * ElemWords words) is required whenever the schedule
/// has more than one group — edge groups ping-pong Data -> Scratch ->
/// ... -> Data; a single-group transform (log2(n) <= FuseDepth) runs
/// in place with one thread per row and may pass null. \p Dispatches,
/// when non-null, is incremented once per backend dispatch issued.
bool runTransform(ExecutionBackend &EB, const CompiledPlan &P,
                  const NttTables &T,
                  const std::vector<const std::uint64_t *> &Aux,
                  std::uint64_t *Data, std::uint64_t *Scratch,
                  size_t NPoints, size_t Batch, bool Inverse,
                  std::string *Err, std::uint64_t *Dispatches = nullptr);

} // namespace runtime
} // namespace moma

#endif // MOMA_RUNTIME_NTTPIPELINE_H

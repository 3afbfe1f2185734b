//===- rewrite/Stats.h - Operation counting --------------------*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Operation-count statistics over kernels: the measurement device for the
/// paper's §2.2 operation-count claims (schoolbook: 4 muls + 6 adds;
/// Karatsuba: 3 muls + 12 adds/subs) and for the non-power-of-two pruning
/// ablation (how many ops the zero words eliminate).
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_REWRITE_STATS_H
#define MOMA_REWRITE_STATS_H

#include "ir/Ir.h"

#include <map>
#include <string>

namespace moma {
namespace rewrite {

/// Per-opcode and aggregate statement counts.
struct OpStats {
  std::map<ir::OpKind, unsigned> ByKind;
  unsigned Total = 0;

  unsigned count(ir::OpKind K) const {
    auto It = ByKind.find(K);
    return It == ByKind.end() ? 0 : It->second;
  }

  /// Word multiplications, the dominant cost on GPUs: one per Mul and
  /// MulLow, three per MulMod. A MulMod that survives lowering is the
  /// native word-width Barrett op, whose C body (Listing 1 _smulmod)
  /// multiplies three times: a*b, r*mu and e*q.
  unsigned multiplies() const;

  /// Word additions/subtractions.
  unsigned addSubs() const;

  /// One line per opcode, sorted by count.
  std::string report() const;
};

/// Counts the statements of \p K.
OpStats countOps(const ir::Kernel &K);

} // namespace rewrite
} // namespace moma

#endif // MOMA_REWRITE_STATS_H

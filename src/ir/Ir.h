//===- ir/Ir.h - Typed straight-line IR for MoMA kernels ------*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "abstract code" level the paper's rewrite system operates on (§4):
/// straight-line SSA over unsigned integers of arbitrary bit width.
///
/// Values carry a storage bit width plus KnownBits, an upper bound on the
/// significant bits; KnownBits < Bits is how non-power-of-two input widths
/// (381/753-bit ZKP fields embedded in power-of-two containers) are
/// represented, and is what the Simplify pass exploits to prune no-ops at
/// code generation time (paper §4, Eq. 35/36).
///
/// Multi-result statements model the paper's explicit carry discipline:
///   Add: (carry:1, sum:w)   = a + b [+ cin]        — rules (22)(23)(29)
///   Sub: (borrow:1, diff:w) = a - b [- bin]         — rule (25)
///   Mul: (hi:w, lo:w)       = a * b                 — rule (28)
/// and the modular macro-ops AddMod/SubMod/MulMod that the rewrite system
/// expands (rules (24) and the Barrett sequence of Listing 4).
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_IR_IR_H
#define MOMA_IR_IR_H

#include "mw/Bignum.h"

#include <cstdint>
#include <string>
#include <vector>

namespace moma {
namespace ir {

/// Index of a value inside its Kernel. Negative means "no value".
using ValueId = std::int32_t;
inline constexpr ValueId NoValue = -1;

/// Statement opcode.
enum class OpKind : std::uint8_t {
  Const,  ///< results[0]:w = literal
  Copy,   ///< results[0]:w = operands[0]
  Zext,   ///< results[0]:w = zero-extend(operands[0]), narrower operand
  Add,    ///< (carry:1, sum:w) = a + b [+ cin:1]
  Sub,    ///< (borrow:1, diff:w) = a - b [- bin:1]
  Mul,    ///< (hi:w, lo:w) = a * b
  MulLow, ///< lo:w = (a * b) mod 2^w
  AddMod, ///< c:w = (a + b) mod q; operands a, b, q; a, b < q
  SubMod, ///< c:w = (a - b) mod q; operands a, b, q; a, b < q
  MulMod, ///< c:w = (a * b) mod q; operands a, b, q, mu; attr ModBits
  Lt,     ///< f:1 = a < b
  Eq,     ///< f:1 = a == b
  Not,    ///< f:1 = !a, a 1-bit
  And,    ///< c:w = a & b
  Or,     ///< c:w = a | b
  Xor,    ///< c:w = a ^ b
  Shl,    ///< c:w = a << Amount (truncating), 0 <= Amount < w
  Shr,    ///< c:w = a >> Amount, 0 <= Amount < w
  Select, ///< c:w = cond ? a : b, cond 1-bit
  Split,  ///< (hi:w/2, lo:w/2) = a:w — rules (19)(20)(21)
  Concat, ///< c:2w = hi * 2^w + lo
};

/// Human-readable opcode mnemonic.
const char *opKindName(OpKind K);

/// One straight-line statement. Pure (no side effects); multi-result.
struct Stmt {
  OpKind Kind;
  std::vector<ValueId> Results;
  std::vector<ValueId> Operands;
  /// Shift amount for Shl/Shr.
  unsigned Amount = 0;
  /// Modulus bit-width m for MulMod (Barrett shifts use m-2 and m+5).
  unsigned ModBits = 0;
  /// Literal payload for Const.
  mw::Bignum Literal;
};

/// Metadata for one SSA value.
struct ValueInfo {
  unsigned Bits = 0;      ///< storage width
  unsigned KnownBits = 0; ///< significant-bit upper bound, <= Bits
  std::string Name;       ///< optional; printer invents %N otherwise
};

/// Kernel formal parameter (input) or result (output).
struct Param {
  ValueId Id = NoValue;
  std::string Name;
};

/// A straight-line kernel: inputs, body, outputs.
///
/// Invariants (checked by the Verifier): every value is defined exactly
/// once (inputs are defined by the signature), operands are defined before
/// use, and widths obey the per-opcode rules.
class Kernel {
public:
  std::string Name;

  /// Creates a value of \p Bits storage bits. KnownBits defaults to Bits.
  ValueId newValue(unsigned Bits, const std::string &Name = "",
                   unsigned KnownBits = 0);

  /// Declares \p Id as a kernel input.
  void addInput(ValueId Id, const std::string &Name);

  /// Declares \p Id (defined in the body) as a kernel output.
  void addOutput(ValueId Id, const std::string &Name);

  const ValueInfo &value(ValueId Id) const { return Values[Id]; }
  ValueInfo &value(ValueId Id) { return Values[Id]; }
  size_t numValues() const { return Values.size(); }

  const std::vector<Param> &inputs() const { return Inputs; }
  const std::vector<Param> &outputs() const { return Outputs; }

  std::vector<Stmt> Body;

  /// Largest storage width of any value in the kernel.
  unsigned maxBits() const;

  /// Total number of statements.
  size_t size() const { return Body.size(); }

private:
  std::vector<ValueInfo> Values;
  std::vector<Param> Inputs;
  std::vector<Param> Outputs;
};

} // namespace ir
} // namespace moma

#endif // MOMA_IR_IR_H

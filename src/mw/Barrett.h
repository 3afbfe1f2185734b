//===- mw/Barrett.h - Multi-word Barrett modular reduction ----*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Barrett reduction for W-word moduli, generalizing the paper's Listing 1
/// (single word) and Listing 4 (double word) to any word count.
///
/// With the modulus bit-width m at most 64*W - 4 (the paper's "k-4 bits"
/// convention, §5.2) and μ = ⌊2^(2m+3)/q⌋ (Eq. 16 with k = 2m+3):
///
///   t  = a·b                          (2W words)
///   r₁ = t >> (m-2)                   (fits W words: r₁ < 2^(m+2))
///   r₂ = r₁·μ                         (2W words)
///   e  = r₂ >> (m+5)                  (fits W words: e ≤ ⌊t/q⌋)
///   c  = t - e·q                      (< 2q, low W words suffice)
///   if (c >= q) c -= q                (the single conditional subtraction)
///
/// The approximation error is at most one (Eq. 17 plus the two guard bits
/// before and five after the μ multiply), so exactly one conditional
/// subtraction is required; a debug assert checks c < q afterwards.
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_MW_BARRETT_H
#define MOMA_MW_BARRETT_H

#include "mw/MWUInt.h"

#include "support/Error.h"

namespace moma {
namespace mw {

/// Precomputed Barrett parameters for a W-word modulus.
template <unsigned W> class Barrett {
public:
  Barrett() = default;

  /// Builds the context for modulus \p Q. Aborts unless
  /// 2 <= bitWidth(Q) <= 64*W - 4 (so that μ fits W words and the shift
  /// amounts are in range) and Q is not a power of two: for Q = 2^(m-1),
  /// μ = 2^(m+4) exactly, which needs m+5 bits and overflows the W-word
  /// container when m = 64W-4. (Powers of two are degenerate moduli here
  /// anyway — every deployment modulus is an odd prime.)
  static Barrett create(const Bignum &Q,
                        MulAlgorithm Alg = MulAlgorithm::Schoolbook) {
    unsigned MBits = Q.bitWidth();
    if (MBits < 2 || MBits > 64 * W - 4)
      fatalError("Barrett<" + std::to_string(W) + ">: modulus bit-width " +
                 std::to_string(MBits) + " outside [2, " +
                 std::to_string(64 * W - 4) + "]");
    if (Q == Bignum::powerOfTwo(MBits - 1))
      fatalError("Barrett<" + std::to_string(W) +
                 ">: power-of-two modulus 2^" + std::to_string(MBits - 1) +
                 " unsupported (mu = 2^(m+4) can overflow the container)");
    Barrett B;
    B.ModBits = MBits;
    B.Alg = Alg;
    B.Q = MWUInt<W>::fromBignum(Q);
    B.Mu = MWUInt<W>::fromBignum(Bignum::powerOfTwo(2 * MBits + 3) / Q);
    return B;
  }

  const MWUInt<W> &modulus() const { return Q; }
  const MWUInt<W> &mu() const { return Mu; }
  unsigned modulusBits() const { return ModBits; }

  /// (A + B) mod Q for reduced inputs (paper Eq. 2, rule 24).
  MWUInt<W> addMod(const MWUInt<W> &A, const MWUInt<W> &B) const {
    Word Carry;
    MWUInt<W> Sum = A.addWithCarry(B, Carry);
    // Q uses at most 64W-4 bits, so A + B < 2^(64W) and Carry is always 0;
    // keep the check for robustness with near-full-width inputs.
    if (Carry || Sum >= Q) {
      Word Borrow;
      Sum = Sum.subWithBorrow(Q, Borrow);
    }
    return Sum;
  }

  /// (A - B) mod Q for reduced inputs (paper Eq. 3, rule 25).
  MWUInt<W> subMod(const MWUInt<W> &A, const MWUInt<W> &B) const {
    Word Borrow;
    MWUInt<W> Diff = A.subWithBorrow(B, Borrow);
    if (Borrow) {
      Word Carry;
      Diff = Diff.addWithCarry(Q, Carry);
    }
    return Diff;
  }

  /// (A * B) mod Q via Barrett reduction (paper Listing 4 generalized).
  MWUInt<W> mulMod(const MWUInt<W> &A, const MWUInt<W> &B) const {
    MWUInt<2 * W> T = A.mulFull(B, Alg);

    MWUInt<W> R1;
    detail::shrArr(T.Limbs.data(), 2 * W, ModBits - 2, R1.Limbs.data(), W);

    MWUInt<2 * W> R2 = R1.mulFull(Mu, Alg);

    MWUInt<W> E;
    detail::shrArr(R2.Limbs.data(), 2 * W, ModBits + 5, E.Limbs.data(), W);

    // c = t - e*q fits in W words because t - e*q < 2q < 2^(64W), so the
    // low W words of t and e*q suffice. The truncated subtraction
    // legitimately borrows whenever t has nonzero high words (any product
    // >= 2^(64W)): the borrow cancels against the discarded high words of
    // e*q, and the low-word difference is already the exact remainder.
    MWUInt<W> TLow = T.template resize<W>();
    MWUInt<W> P = E.mulLow(Q);
    Word Borrow;
    MWUInt<W> C = TLow.subWithBorrow(P, Borrow);
    (void)Borrow;

#ifndef NDEBUG
    // Debug-only full-width validation of the two Barrett invariants: the
    // quotient estimate never exceeds the true quotient (the 2W-word
    // difference t - e*q cannot go negative), and the remainder stays
    // below 2^(64W) (its high W words are zero), matching the truncated C.
    {
      MWUInt<2 * W> EQ = E.mulFull(Q, Alg);
      Word FullBorrow;
      MWUInt<2 * W> CFull = T.subWithBorrow(EQ, FullBorrow);
      assert(FullBorrow == 0 &&
             "Barrett estimate exceeded the true quotient");
      for (unsigned I = W; I < 2 * W; ++I)
        assert(CFull.Limbs[I] == 0 && "Barrett remainder exceeded W words");
      assert(CFull.template resize<W>() == C &&
             "truncated subtraction diverged from the full-width remainder");
    }
#endif

    if (C >= Q) {
      C = C.subWithBorrow(Q, Borrow);
    }
    assert(C < Q && "Barrett error bound violated: needs a 2nd subtraction");
    return C;
  }

  /// (Base ^ Exp) mod Q by left-to-right square and multiply.
  MWUInt<W> powMod(const MWUInt<W> &Base, const Bignum &Exp) const {
    MWUInt<W> Result = MWUInt<W>::fromWord(1);
    for (unsigned I = Exp.bitWidth(); I-- > 0;) {
      Result = mulMod(Result, Result);
      if (Exp.bit(I))
        Result = mulMod(Result, Base);
    }
    return Result;
  }

private:
  MWUInt<W> Q;
  MWUInt<W> Mu;
  unsigned ModBits = 0;
  MulAlgorithm Alg = MulAlgorithm::Schoolbook;
};

} // namespace mw
} // namespace moma

#endif // MOMA_MW_BARRETT_H

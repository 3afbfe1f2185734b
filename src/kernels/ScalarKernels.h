//===- kernels/ScalarKernels.h - Modular scalar kernel builders -*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// IR builders for the scalar modular kernels the paper generates: the
/// element operations behind the BLAS kernels (§5.2) and the NTT butterfly
/// (§5.3: one modular add, one modular sub, one modular mul).
///
/// Every builder takes the container width λ (a power-of-two multiple of
/// the machine word) and the modulus bit-width m <= λ-4. Inputs a, b are
/// reduced (< q); q and mu are runtime parameters, exactly like the
/// generated CUDA in the paper's Listings (q0..qk, mu0..muk arguments).
/// The butterfly is the exception: its twiddle product is Shoup's under
/// either reduction knob, so it takes the twiddle's quotient companion
/// instead of mu.
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_KERNELS_SCALARKERNELS_H
#define MOMA_KERNELS_SCALARKERNELS_H

#include "ir/Ir.h"
#include "mw/MWUInt.h"

namespace moma {
namespace kernels {

/// Width configuration shared by the scalar kernel builders.
struct ScalarKernelSpec {
  /// Container bit-width λ (power-of-two multiple of the machine word).
  unsigned ContainerBits = 128;
  /// Modulus bit-width m; defaults to λ-4 (the paper's evaluation setup).
  /// Values a, b carry KnownBits = m so the non-power-of-two pruning
  /// applies automatically when m is far below λ.
  unsigned ModBits = 0;
  /// Reduction strategy of the mulmod and axpy kernels. Barrett
  /// (default) takes a `mu` parameter (Listing 4); Montgomery replaces it
  /// with `qinv` = -q^-1 mod 2^λ and `r2` = 2^(2λ) mod q and computes the
  /// plain-domain product via two REDC passes, so both variants have
  /// identical input/output semantics. Every other builder ignores this
  /// knob: addmod/submod have no multiplication, the butterfly multiplies
  /// by Shoup's method, and the RNS kernels bake in their reduction.
  mw::Reduction Red = mw::Reduction::Barrett;

  unsigned modBits() const {
    return ModBits == 0 ? ContainerBits - 4 : ModBits;
  }
};

/// c = (a + b) mod q.
ir::Kernel buildAddModKernel(const ScalarKernelSpec &Spec);

/// c = (a - b) mod q.
ir::Kernel buildSubModKernel(const ScalarKernelSpec &Spec);

/// c = (a * b) mod q via Barrett (takes mu).
ir::Kernel buildMulModKernel(const ScalarKernelSpec &Spec);

/// (hi, lo) = a * b, the full non-modular product.
ir::Kernel buildMulFullKernel(const ScalarKernelSpec &Spec);

/// NTT butterfly: t = w*y mod q; x' = x + t mod q; y' = x - t mod q.
///
/// Ports are x, y, w, wq, q -> xo, yo under either Spec.Red (like
/// addmod/submod, the butterfly ignores the knob): the twiddle product is
/// Shoup's (Harvey 2014) rather than Listing 4's Barrett mulmod, since w
/// is a table constant. `wq` is its precomputed companion
/// floor(w * 2^λ / q) (runtime::NttTables stores it next to every
/// twiddle); then t = y*w - hi(y*wq)*q mod 2^λ lies in [0, 2q) and one
/// conditional subtraction lands it under q. There is no mu port.
/// Precondition: every caller passes the true companion of w — the
/// kernel's KnownBits claims (quotient < 2^m, t < 2^(m+1)) rest on it,
/// and with any other wq the lowered and interpreted kernels may
/// disagree.
ir::Kernel buildButterflyKernel(const ScalarKernelSpec &Spec);

/// The butterfly's `wq` operand for twiddle \p W (reduced mod
/// \p Q) in a \p ContainerBits-bit container: floor(W * 2^λ / Q).
mw::Bignum shoupCompanion(const mw::Bignum &W, const mw::Bignum &Q,
                          unsigned ContainerBits);

/// axpy element: y' = (a*x + y) mod q (BLAS Level 1, Eq. 10).
ir::Kernel buildAxpyKernel(const ScalarKernelSpec &Spec);

/// RNS decompose element: c = a mod q, where a is a wide value of
/// \p WideWords stored 64-bit words (the RNS base's elemWords(M)) and q a
/// word-sized limb prime of Spec.ModBits bits (must be set explicitly,
/// <= 62). One generalized Barrett pass at the container width λ:
/// q̂ = floor(a * gmu / 2^λ) with gmu = floor(2^λ / q), then
/// r = a - q̂·q < 3q and two conditional subtractions. Takes `gmu`
/// instead of the standard `mu` (both derive from q and the container
/// alone, so the compiled kernel serves every limb of its width — the
/// modulus value stays out of the plan key). Requires
/// 64 * WideWords <= λ.
ir::Kernel buildRnsDecomposeKernel(const ScalarKernelSpec &Spec,
                                   unsigned WideWords);

/// RNS recombine step: yo = (a*x + y) mod q — the axpy shape with q = M
/// (the full RNS modulus, Spec.ModBits = bitWidth(M)), a = the limb's
/// CRT weight W_l = (M/q_l)·((M/q_l)^{-1} mod q_l) mod M (broadcast),
/// x = the limb's word-sized residue (KnownBits capped at 62, so one
/// stored word regardless of the wide width) and y = the accumulator.
/// Running it once per limb over a zeroed accumulator computes the CRT
/// reconstruction sum Σ r_l·W_l mod M. Always Barrett (the reduction
/// knob is folded in the plan key).
ir::Kernel buildRnsRecombineStepKernel(const ScalarKernelSpec &Spec);

/// RNS rescale step: co = (x - y)*a mod q — the per-limb element of
/// modulus switching (dropping the chain's last limb q_last). Per
/// surviving limb q: a = q_last^{-1} mod q (broadcast), x = this limb's
/// residue (< q), y = the dropped limb's residue (< q_last < 2q for a
/// same-width chain, so one conditional subtraction folds it under q
/// before the modular subtract). Running it once per surviving limb
/// computes the residues of (X - (X mod q_last)) / q_last — exact
/// integer division by q_last, entirely in residue form. Spec.ModBits is
/// the limb width (must be set, <= 62); always Barrett (the reduction
/// knob is folded in the plan key).
ir::Kernel buildRnsRescaleStepKernel(const ScalarKernelSpec &Spec);

} // namespace kernels
} // namespace moma

#endif // MOMA_KERNELS_SCALARKERNELS_H

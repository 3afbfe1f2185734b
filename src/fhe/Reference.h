//===- fhe/Reference.h - Slow Bignum oracle for the FHE layer --*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arbitrary-precision oracle the FHE layer is validated against:
/// every ciphertext operation in Fhe.h has a mirror here that computes
/// the same Z_M[x]/(x^n ± 1) arithmetic with schoolbook Bignum math —
/// no RNS, no NTT, no dispatch. The tests run both sides on identical
/// inputs and require bit-exact wide values, which pins the whole stack
/// (CRT edges, per-limb transforms, the generated rescale kernel, lazy
/// domain bookkeeping) against ~150 lines of obviously-correct code.
///
/// The encryption scheme is a toy BGV shape — plaintext in the low
/// multiple of t, error scaled by t — sized for validating the runtime,
/// not for security: there is no security parameter, the error is tiny,
/// and rescale is plain exact-quotient modulus switching without the
/// BGV correction term (so decryption-correctness claims are limited to
/// add / multiply / relinearize circuits; rescaled ciphertexts are
/// validated bit-exact as ring arithmetic, which is the property the
/// runtime owns).
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_FHE_REFERENCE_H
#define MOMA_FHE_REFERENCE_H

#include "mw/Bignum.h"
#include "runtime/RnsContext.h"
#include "support/Rng.h"

#include <vector>

namespace moma {
namespace fhe {

/// One polynomial over Z_M: n coefficients, each reduced mod M.
using RefPoly = std::vector<mw::Bignum>;
/// A reference ciphertext: 2 polys normally, 3 after a multiply.
using RefCiphertext = std::vector<RefPoly>;

/// The host-side halves of the keys. The secret key is ternary
/// ({-1, 0, 1} represented mod M); the relinearization key is one
/// (b_l, a_l) pair per limb of the chain it was generated for:
///   b_l = W_l * s^2 - a_l * s + t * e_l   (mod M)
/// with W_l the CRT weight of limb l, so sum_l d_l * (b_l + a_l * s)
/// telescopes to c2 * s^2 + t * noise when d_l is the limb-l CRT digit
/// of c2.
struct RefSecretKey {
  RefPoly S;
};
struct RefRelinKey {
  std::vector<RefPoly> B, A;
};

/// Coefficient-wise (A + B) mod M.
RefPoly refPolyAdd(const RefPoly &A, const RefPoly &B, const mw::Bignum &M);
/// Ring product over Z_M[x]/(x^n -+ 1) (schoolbook, via ReferenceDft).
RefPoly refPolyMul(const RefPoly &A, const RefPoly &B, const mw::Bignum &M,
                   bool Negacyclic);

/// c[i] = a[i] + b[i] poly-wise; ragged sizes extend with the longer.
RefCiphertext refAdd(const RefCiphertext &A, const RefCiphertext &B,
                     const mw::Bignum &M);

/// Tensor product of two degree-1 ciphertexts: (a0*b0,
/// a0*b1 + a1*b0, a1*b1) — three polys.
RefCiphertext refMul(const RefCiphertext &A, const RefCiphertext &B,
                     const mw::Bignum &M, bool Negacyclic);

/// Exact-quotient modulus switch: every coefficient X becomes
/// (X - (X mod q_last)) / q_last, an integer < M' = M / q_last, returned
/// reduced mod M'. Mirrors Dispatcher::rnsRescale exactly (same
/// integer-arithmetic identity, per-limb on the device side).
RefCiphertext refRescale(const RefCiphertext &C,
                         const runtime::RnsContext &Ctx);

/// Degree-2 -> degree-1: c0 += sum_l d_l * b_l, c1 += sum_l d_l * a_l
/// where d_l is the polynomial of limb-l residues of c2 (CRT digits).
RefCiphertext refRelinearize(const RefCiphertext &C, const RefRelinKey &K,
                             const runtime::RnsContext &Ctx,
                             bool Negacyclic);

/// Samples a ternary secret key of \p N coefficients.
RefSecretKey refKeyGen(size_t N, const mw::Bignum &M, Rng &R);

/// Samples the relinearization key for \p Ctx (one pair per limb).
RefRelinKey refRelinKeyGen(const RefSecretKey &SK,
                           const runtime::RnsContext &Ctx,
                           const mw::Bignum &T, bool Negacyclic, Rng &R);

/// Encrypts \p Msg (coefficients reduced mod \p T): c1 = a uniform,
/// c0 = -a*s + t*e + m mod M with small e.
RefCiphertext refEncrypt(const std::vector<std::uint64_t> &Msg,
                         const RefSecretKey &SK, const mw::Bignum &M,
                         const mw::Bignum &T, bool Negacyclic, Rng &R);

/// Decrypts a degree-1 or degree-2 ciphertext: centered reduction of
/// c0 + c1*s (+ c2*s^2) mod M, then mod T.
std::vector<std::uint64_t> refDecrypt(const RefCiphertext &C,
                                      const RefSecretKey &SK,
                                      const mw::Bignum &M,
                                      const mw::Bignum &T, bool Negacyclic);

} // namespace fhe
} // namespace moma

#endif // MOMA_FHE_REFERENCE_H

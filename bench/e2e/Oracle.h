//===- bench/e2e/Oracle.h - output oracles of the e2e benchmark -*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Independent checks of the system's outputs, run outside the timed
/// regions. None of them goes through generated code:
///  * element-wise BLAS: sampled elements recomputed with mw::Bignum;
///  * polynomial products: A(w) * B(w) == C(w) at random roots w of the
///    ring's modulus polynomial (x^n - 1 or x^n + 1), O(n) per check;
///  * ciphertext products: a toy BGV scheme in residue form with the
///    benchmark's own word arithmetic. The benchmark encrypts the operands
///    itself, decrypts sampled products, and compares them with the
///    schoolbook product of the plaintexts mod t.
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_BENCH_E2E_ORACLE_H
#define MOMA_BENCH_E2E_ORACLE_H

#include "fhe/Fhe.h"
#include "runtime/PlanKey.h"
#include "runtime/RnsContext.h"

#include <cstdint>
#include <vector>

namespace moma {
namespace e2e {

/// Number of elements i = First, First + Stride, ... < N whose C[i] is
/// not A[i] op B[i] mod Q (op: vadd or vmul; K = words per element).
size_t elementMismatches(runtime::KernelOp Op, const mw::Bignum &Q,
                         const std::uint64_t *A, const std::uint64_t *B,
                         const std::uint64_t *C, size_t N, size_t First,
                         size_t Stride);

/// True when C = A * B in Z_Q[x]/(x^n - 1), checked at two random powers
/// of \p G, a primitive n-th root of unity (field::rootOfUnity). Polys
/// hold NPoints packed coefficients each.
bool polyProductHolds(const mw::Bignum &Q, const mw::Bignum &G,
                      const std::uint64_t *A, const std::uint64_t *B,
                      const std::uint64_t *C, size_t NPoints, Rng &R);

/// True when C = A * B in Z_M[x]/(x^n + 1) for the RNS modulus M of
/// \p Ctx, checked per limb at a random root of x^n + 1. Polys hold
/// NPoints wide coefficients (Ctx.wideWords() words each).
bool wideNegacyclicProductHolds(const runtime::RnsContext &Ctx,
                                const std::uint64_t *A,
                                const std::uint64_t *B,
                                const std::uint64_t *C, size_t NPoints,
                                Rng &R);

/// The toy scheme's secret key: ternary s and its negacyclic square.
struct ToyKey {
  std::vector<std::uint32_t> Plus, Minus; ///< indices where s is +1 / -1
  std::vector<std::int64_t> S2;           ///< s * s, small integers
};
ToyKey toyKeyGen(size_t NPoints, Rng &R);

/// A fresh degree-1 ciphertext of \p Msg (coefficients below t) in
/// coefficient form: c1 uniform, c0 = -c1*s + t*e + m per limb.
fhe::Ciphertext toyEncrypt(const fhe::FheContext &FC, const ToyKey &K,
                           const std::vector<std::uint64_t> &Msg, Rng &R);

/// Decrypts a degree-2 ciphertext held in coefficient form. False when
/// the limbs disagree on the decrypted integer, which no correct product
/// of two fresh toy ciphertexts can produce.
bool toyDecrypt(const fhe::FheContext &FC, const ToyKey &K,
                const fhe::Ciphertext &C, std::vector<std::uint64_t> &Msg);

/// Schoolbook product of two plaintexts in Z_t[x]/(x^n + 1).
std::vector<std::uint64_t> plainProduct(const std::vector<std::uint64_t> &A,
                                        const std::vector<std::uint64_t> &B,
                                        std::uint64_t T);

} // namespace e2e
} // namespace moma

#endif // MOMA_BENCH_E2E_ORACLE_H

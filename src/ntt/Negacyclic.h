//===- ntt/Negacyclic.h - Negacyclic (x^n + 1) transforms -----*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Negacyclic NTT: polynomial products in Z_q[x]/(x^n + 1), the ring FHE
/// schemes (BGV/BFV/CKKS) actually use (paper §1/§2.3 motivation; listed
/// as an extension in DESIGN.md). Implemented by twisting with powers of
/// ψ, a primitive 2n-th root of unity: multiply input i by ψ^i, run the
/// cyclic NTT, and untwist with ψ^{-i} n^{-1} after the inverse.
///
/// Requires 2n | q-1 (one more factor of two than the cyclic transform).
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_NTT_NEGACYCLIC_H
#define MOMA_NTT_NEGACYCLIC_H

#include "ntt/Ntt.h"

namespace moma {
namespace ntt {

/// Plan for n-point negacyclic transforms over Z_q.
template <unsigned W> class NegacyclicPlan {
public:
  using Field = field::PrimeField<W>;
  using Element = typename Field::Element;

  NegacyclicPlan(const Field &F, size_t N) : Cyclic(F, N), N(N) {
    const Field &Fld = Cyclic.field();
    // psi: primitive 2n-th root with psi^2 = the cyclic plan's omega
    // ordering requirement is only psi^n = -1.
    Element Psi = Fld.nthRoot(2 * N);
    Element PsiInv = Fld.inv(Psi);
    Twist.resize(N);
    Untwist.resize(N);
    Element Cur = Fld.one(), CurInv = Fld.one();
    for (size_t I = 0; I < N; ++I) {
      Twist[I] = Cur;
      Untwist[I] = CurInv;
      Cur = Fld.mul(Cur, Psi);
      CurInv = Fld.mul(CurInv, PsiInv);
    }
  }

  const Field &field() const { return Cyclic.field(); }
  size_t size() const { return N; }

  /// In-place forward negacyclic transform.
  void forward(Element *X) const {
    const Field &F = Cyclic.field();
    for (size_t I = 0; I < N; ++I)
      X[I] = F.mul(X[I], Twist[I]);
    Cyclic.forward(X);
  }

  /// In-place inverse negacyclic transform.
  void inverse(Element *X) const {
    const Field &F = Cyclic.field();
    Cyclic.inverse(X);
    for (size_t I = 0; I < N; ++I)
      X[I] = F.mul(X[I], Untwist[I]);
  }

private:
  NttPlan<W> Cyclic;
  size_t N;
  std::vector<Element> Twist;
  std::vector<Element> Untwist;
};

/// C = A * B in Z_q[x]/(x^n + 1): coefficients wrap with a sign flip.
/// Inputs are length-n coefficient vectors (shorter inputs are padded).
template <unsigned W>
std::vector<typename field::PrimeField<W>::Element>
polyMulNegacyclic(const NegacyclicPlan<W> &Plan,
                  std::vector<typename field::PrimeField<W>::Element> A,
                  std::vector<typename field::PrimeField<W>::Element> B) {
  const auto &F = Plan.field();
  size_t N = Plan.size();
  if (A.size() > N || B.size() > N)
    fatalError("polyMulNegacyclic: inputs longer than the ring degree");
  A.resize(N, F.zero());
  B.resize(N, F.zero());
  Plan.forward(A.data());
  Plan.forward(B.data());
  for (size_t I = 0; I < N; ++I)
    A[I] = F.mul(A[I], B[I]);
  Plan.inverse(A.data());
  return A;
}

} // namespace ntt
} // namespace moma

#endif // MOMA_NTT_NEGACYCLIC_H

//===- fhe/Reference.cpp - Slow Bignum oracle for the FHE layer -----------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "fhe/Reference.h"

#include "ntt/ReferenceDft.h"

#include <cassert>

using namespace moma;
using namespace moma::fhe;
using mw::Bignum;

RefPoly moma::fhe::refPolyAdd(const RefPoly &A, const RefPoly &B,
                              const Bignum &M) {
  assert(A.size() == B.size() && "ragged poly add");
  RefPoly C(A.size());
  for (size_t I = 0; I < A.size(); ++I)
    C[I] = A[I].addMod(B[I], M);
  return C;
}

RefPoly moma::fhe::refPolyMul(const RefPoly &A, const RefPoly &B,
                              const Bignum &M, bool Negacyclic) {
  return ntt::referencePolyMulRing(A, B, M, Negacyclic);
}

RefCiphertext moma::fhe::refAdd(const RefCiphertext &A,
                                const RefCiphertext &B, const Bignum &M) {
  const RefCiphertext &Long = A.size() >= B.size() ? A : B;
  const RefCiphertext &Short = A.size() >= B.size() ? B : A;
  RefCiphertext C = Long;
  for (size_t P = 0; P < Short.size(); ++P)
    C[P] = refPolyAdd(Long[P], Short[P], M);
  return C;
}

RefCiphertext moma::fhe::refMul(const RefCiphertext &A,
                                const RefCiphertext &B, const Bignum &M,
                                bool Negacyclic) {
  assert(A.size() == 2 && B.size() == 2 && "tensor product needs degree-1");
  RefCiphertext C(3);
  C[0] = refPolyMul(A[0], B[0], M, Negacyclic);
  C[1] = refPolyAdd(refPolyMul(A[0], B[1], M, Negacyclic),
                    refPolyMul(A[1], B[0], M, Negacyclic), M);
  C[2] = refPolyMul(A[1], B[1], M, Negacyclic);
  return C;
}

RefCiphertext moma::fhe::refRescale(const RefCiphertext &C,
                                    const runtime::RnsContext &Ctx) {
  size_t L = Ctx.numLimbs();
  assert(L >= 2 && "rescale needs a chain of >= 2 limbs");
  const Bignum &QLast = Ctx.limb(L - 1);
  const Bignum &MPrime = Ctx.subChain(L - 1).modulus();
  RefCiphertext Out(C.size());
  for (size_t P = 0; P < C.size(); ++P) {
    Out[P].resize(C[P].size());
    for (size_t I = 0; I < C[P].size(); ++I) {
      // Exact integer quotient: (X - (X mod q_last)) / q_last.
      const Bignum &X = C[P][I];
      Out[P][I] = ((X - X % QLast) / QLast) % MPrime;
    }
  }
  return Out;
}

/// The polynomial of limb-\p L residues of \p P — c2's CRT digit.
static RefPoly crtDigit(const RefPoly &P, const Bignum &Q) {
  RefPoly D(P.size());
  for (size_t I = 0; I < P.size(); ++I)
    D[I] = P[I] % Q;
  return D;
}

RefCiphertext moma::fhe::refRelinearize(const RefCiphertext &C,
                                        const RefRelinKey &K,
                                        const runtime::RnsContext &Ctx,
                                        bool Negacyclic) {
  assert(C.size() == 3 && "relinearize needs a degree-2 ciphertext");
  assert(K.B.size() == Ctx.numLimbs() && "key generated for another chain");
  const Bignum &M = Ctx.modulus();
  RefCiphertext Out(2);
  Out[0] = C[0];
  Out[1] = C[1];
  for (size_t L = 0; L < Ctx.numLimbs(); ++L) {
    RefPoly D = crtDigit(C[2], Ctx.limb(L));
    Out[0] = refPolyAdd(Out[0], refPolyMul(D, K.B[L], M, Negacyclic), M);
    Out[1] = refPolyAdd(Out[1], refPolyMul(D, K.A[L], M, Negacyclic), M);
  }
  return Out;
}

/// A small centered error coefficient in [-4, 4], represented mod M.
static Bignum smallError(const Bignum &M, Rng &R) {
  std::uint64_t V = R.below(9);
  return V <= 4 ? Bignum(V) : M - Bignum(9 - V);
}

RefSecretKey moma::fhe::refKeyGen(size_t N, const Bignum &M, Rng &R) {
  RefSecretKey SK;
  SK.S.resize(N);
  for (size_t I = 0; I < N; ++I) {
    std::uint64_t V = R.below(3); // ternary: 0, 1, -1
    SK.S[I] = V == 2 ? M - Bignum(1) : Bignum(V);
  }
  return SK;
}

RefRelinKey moma::fhe::refRelinKeyGen(const RefSecretKey &SK,
                                      const runtime::RnsContext &Ctx,
                                      const Bignum &T, bool Negacyclic,
                                      Rng &R) {
  const Bignum &M = Ctx.modulus();
  size_t N = SK.S.size();
  RefPoly S2 = refPolyMul(SK.S, SK.S, M, Negacyclic);
  RefRelinKey K;
  K.B.resize(Ctx.numLimbs());
  K.A.resize(Ctx.numLimbs());
  for (size_t L = 0; L < Ctx.numLimbs(); ++L) {
    // The CRT weight W_l = (M/q_l) * ((M/q_l)^{-1} mod q_l), recomputed
    // from scratch so the oracle is independent of RnsContext's tables.
    Bignum MOver = M / Ctx.limb(L);
    Bignum W = (MOver * (MOver % Ctx.limb(L)).invMod(Ctx.limb(L))) % M;
    RefPoly &A = K.A[L], &B = K.B[L];
    A.resize(N);
    for (size_t I = 0; I < N; ++I)
      A[I] = Bignum::random(R, M);
    RefPoly AS = refPolyMul(A, SK.S, M, Negacyclic);
    B.resize(N);
    for (size_t I = 0; I < N; ++I)
      B[I] = W.mulMod(S2[I], M)
                 .subMod(AS[I], M)
                 .addMod(T.mulMod(smallError(M, R), M), M);
  }
  return K;
}

RefCiphertext moma::fhe::refEncrypt(const std::vector<std::uint64_t> &Msg,
                                    const RefSecretKey &SK, const Bignum &M,
                                    const Bignum &T, bool Negacyclic,
                                    Rng &R) {
  size_t N = SK.S.size();
  assert(Msg.size() == N && "message length must match the ring");
  RefCiphertext C(2);
  RefPoly &C1 = C[1];
  C1.resize(N);
  for (size_t I = 0; I < N; ++I)
    C1[I] = Bignum::random(R, M);
  RefPoly AS = refPolyMul(C1, SK.S, M, Negacyclic);
  RefPoly &C0 = C[0];
  C0.resize(N);
  for (size_t I = 0; I < N; ++I)
    C0[I] = Bignum(0)
                .subMod(AS[I], M)
                .addMod(T.mulMod(smallError(M, R), M), M)
                .addMod(Bignum(Msg[I]) % T, M);
  return C;
}

std::vector<std::uint64_t> moma::fhe::refDecrypt(const RefCiphertext &C,
                                                 const RefSecretKey &SK,
                                                 const Bignum &M,
                                                 const Bignum &T,
                                                 bool Negacyclic) {
  assert((C.size() == 2 || C.size() == 3) && "decrypt degree-1 or -2");
  size_t N = SK.S.size();
  RefPoly V = C[0];
  RefPoly C1S = refPolyMul(C[1], SK.S, M, Negacyclic);
  V = refPolyAdd(V, C1S, M);
  if (C.size() == 3) {
    RefPoly S2 = refPolyMul(SK.S, SK.S, M, Negacyclic);
    V = refPolyAdd(V, refPolyMul(C[2], S2, M, Negacyclic), M);
  }
  std::vector<std::uint64_t> Out(N);
  for (size_t I = 0; I < N; ++I) {
    // Centered reduction: v in (-M/2, M/2], then mod T. A residue above
    // M/2 represents v - M, whose value mod T is r - (M mod T).
    Bignum Rm = V[I] % T;
    if (V[I] + V[I] > M)
      Rm = Rm.subMod(M % T, T);
    Out[I] = Rm.low64();
  }
  return Out;
}

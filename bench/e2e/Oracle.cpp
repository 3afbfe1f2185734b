//===- bench/e2e/Oracle.cpp - output oracles of the e2e benchmark ---------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "Oracle.h"

#include "field/RootOfUnity.h"
#include "runtime/KernelRegistry.h"

using namespace moma;
using namespace moma::e2e;
using mw::Bignum;
using u128 = unsigned __int128;
using i128 = __int128;

size_t moma::e2e::elementMismatches(runtime::KernelOp Op, const Bignum &Q,
                                    const std::uint64_t *A,
                                    const std::uint64_t *B,
                                    const std::uint64_t *C, size_t N,
                                    size_t First, size_t Stride) {
  const unsigned K = (Q.bitWidth() + 63) / 64;
  size_t Bad = 0;
  for (size_t I = First; I < N; I += Stride) {
    Bignum X = runtime::unpackWordsMsbFirst(A + I * K, K);
    Bignum Y = runtime::unpackWordsMsbFirst(B + I * K, K);
    Bignum Want = Op == runtime::KernelOp::MulMod ? X.mulMod(Y, Q)
                                                  : X.addMod(Y, Q);
    if (runtime::unpackWordsMsbFirst(C + I * K, K) != Want)
      ++Bad;
  }
  return Bad;
}

namespace {

/// Horner evaluation of a packed polynomial at \p W mod \p Q.
Bignum evalAt(const std::uint64_t *P, size_t NPoints, unsigned K,
              const Bignum &W, const Bignum &Q) {
  Bignum Acc(0);
  for (size_t I = NPoints; I-- > 0;)
    Acc = Acc.mulMod(W, Q).addMod(
        runtime::unpackWordsMsbFirst(P + I * K, K), Q);
  return Acc;
}

std::uint64_t mulMod64(std::uint64_t A, std::uint64_t B, std::uint64_t Q) {
  return static_cast<std::uint64_t>(static_cast<u128>(A) * B % Q);
}

std::uint64_t powMod64(std::uint64_t A, std::uint64_t E, std::uint64_t Q) {
  std::uint64_t R = 1 % Q;
  for (; E; E >>= 1, A = mulMod64(A, A, Q))
    if (E & 1)
      R = mulMod64(R, A, Q);
  return R;
}

/// A wide packed coefficient (K words, most significant first) mod \p Q.
std::uint64_t reduceWide(const std::uint64_t *W, unsigned K, std::uint64_t Q) {
  u128 R = 0;
  for (unsigned J = 0; J < K; ++J)
    R = ((R << 64) | W[J]) % Q;
  return static_cast<std::uint64_t>(R);
}

std::uint64_t evalWideAt(const std::uint64_t *P, size_t NPoints, unsigned K,
                         std::uint64_t W, std::uint64_t Q) {
  std::uint64_t Acc = 0;
  for (size_t I = NPoints; I-- > 0;) {
    Acc = mulMod64(Acc, W, Q) + reduceWide(P + I * K, K, Q);
    Acc = Acc >= Q ? Acc - Q : Acc;
  }
  return Acc;
}

/// Acc += Sign * (C * x^Shift) in Z[x]/(x^n + 1), coefficient-wise.
void addShifted(std::vector<i128> &Acc, const std::uint64_t *C, size_t N,
                size_t Shift, i128 Scale) {
  for (size_t I = 0; I < N; ++I) {
    i128 V = static_cast<i128>(C[I]) * Scale;
    size_t J = I + Shift;
    if (J < N)
      Acc[J] += V;
    else
      Acc[J - N] -= V; // x^n = -1
  }
}

/// Acc += C * s for the ternary key.
void addTimesKey(std::vector<i128> &Acc, const std::uint64_t *C, size_t N,
                 const ToyKey &K) {
  for (std::uint32_t J : K.Plus)
    addShifted(Acc, C, N, J, 1);
  for (std::uint32_t J : K.Minus)
    addShifted(Acc, C, N, J, -1);
}

std::uint64_t modQ(i128 V, std::uint64_t Q) {
  i128 R = V % static_cast<i128>(Q);
  return static_cast<std::uint64_t>(R < 0 ? R + Q : R);
}

} // namespace

bool moma::e2e::polyProductHolds(const Bignum &Q, const Bignum &G,
                                 const std::uint64_t *A,
                                 const std::uint64_t *B,
                                 const std::uint64_t *C, size_t NPoints,
                                 Rng &R) {
  const unsigned K = (Q.bitWidth() + 63) / 64;
  for (int Trial = 0; Trial < 2; ++Trial) {
    Bignum W = G.powMod(Bignum(1 + R.below(NPoints - 1)), Q);
    Bignum Lhs = evalAt(A, NPoints, K, W, Q).mulMod(
        evalAt(B, NPoints, K, W, Q), Q);
    if (Lhs != evalAt(C, NPoints, K, W, Q))
      return false;
  }
  return true;
}

bool moma::e2e::wideNegacyclicProductHolds(const runtime::RnsContext &Ctx,
                                           const std::uint64_t *A,
                                           const std::uint64_t *B,
                                           const std::uint64_t *C,
                                           size_t NPoints, Rng &R) {
  const unsigned K = Ctx.wideWords();
  // M is the product of the limbs, so agreement mod every limb is
  // agreement mod M. Odd powers of a primitive 2n-th root are exactly the
  // roots of x^n + 1.
  for (size_t L = 0; L < Ctx.numLimbs(); ++L) {
    std::uint64_t Q = Ctx.limb(L).low64();
    std::uint64_t Psi = field::rootOfUnity(Ctx.limb(L), 2 * NPoints).low64();
    std::uint64_t W = powMod64(Psi, 2 * R.below(NPoints) + 1, Q);
    if (mulMod64(evalWideAt(A, NPoints, K, W, Q),
                 evalWideAt(B, NPoints, K, W, Q), Q) !=
        evalWideAt(C, NPoints, K, W, Q))
      return false;
  }
  return true;
}

ToyKey moma::e2e::toyKeyGen(size_t NPoints, Rng &R) {
  ToyKey K;
  std::vector<std::int64_t> S(NPoints);
  for (size_t I = 0; I < NPoints; ++I) {
    std::uint64_t V = R.below(3);
    S[I] = V == 2 ? -1 : static_cast<std::int64_t>(V);
    if (S[I] == 1)
      K.Plus.push_back(static_cast<std::uint32_t>(I));
    else if (S[I] == -1)
      K.Minus.push_back(static_cast<std::uint32_t>(I));
  }
  K.S2.assign(NPoints, 0);
  for (size_t I = 0; I < NPoints; ++I)
    for (size_t J = 0; J < NPoints; ++J) {
      std::int64_t P = S[I] * S[J];
      if (I + J < NPoints)
        K.S2[I + J] += P;
      else
        K.S2[I + J - NPoints] -= P;
    }
  return K;
}

fhe::Ciphertext moma::e2e::toyEncrypt(const fhe::FheContext &FC,
                                      const ToyKey &K,
                                      const std::vector<std::uint64_t> &Msg,
                                      Rng &R) {
  const runtime::RnsContext &Ctx = FC.rns();
  const size_t N = FC.nPoints();
  const std::int64_t T = static_cast<std::int64_t>(FC.plainModulus().low64());
  // t*e + m is one small integer per coefficient, shared by every limb.
  std::vector<std::int64_t> Small(N);
  for (size_t I = 0; I < N; ++I)
    Small[I] = T * (static_cast<std::int64_t>(R.below(9)) - 4) +
               static_cast<std::int64_t>(Msg[I]);
  fhe::Ciphertext Ct;
  Ct.Polys.emplace_back(Ctx, N, 1, FC.ring());
  Ct.Polys.emplace_back(Ctx, N, 1, FC.ring());
  for (size_t L = 0; L < Ctx.numLimbs(); ++L) {
    std::uint64_t Q = Ctx.limb(L).low64();
    std::uint64_t *C0 = Ct.Polys[0].limbData(L);
    std::uint64_t *C1 = Ct.Polys[1].limbData(L);
    for (size_t I = 0; I < N; ++I)
      C1[I] = R.below(Q);
    std::vector<i128> Acc(N, 0);
    addTimesKey(Acc, C1, N, K);
    for (size_t I = 0; I < N; ++I)
      C0[I] = modQ(static_cast<i128>(Small[I]) - Acc[I], Q);
  }
  return Ct;
}

bool moma::e2e::toyDecrypt(const fhe::FheContext &FC, const ToyKey &K,
                           const fhe::Ciphertext &C,
                           std::vector<std::uint64_t> &Msg) {
  const runtime::RnsContext &Ctx = FC.rns();
  const size_t N = FC.nPoints();
  const std::int64_t T = static_cast<std::int64_t>(FC.plainModulus().low64());
  if (C.size() != 3)
    return false;
  std::vector<std::int64_t> V(N);
  for (size_t L = 0; L < Ctx.numLimbs(); ++L) {
    std::uint64_t Q = Ctx.limb(L).low64();
    // c0 + c1*s + c2*s^2 accumulated exactly (|acc| < 2^83), reduced once.
    std::vector<i128> Acc(N, 0);
    for (size_t I = 0; I < N; ++I)
      Acc[I] = C.Polys[0].limbData(L)[I];
    addTimesKey(Acc, C.Polys[1].limbData(L), N, K);
    for (size_t J = 0; J < N; ++J)
      if (K.S2[J])
        addShifted(Acc, C.Polys[2].limbData(L), N, J, K.S2[J]);
    for (size_t I = 0; I < N; ++I) {
      std::uint64_t Rm = modQ(Acc[I], Q);
      std::int64_t Centered = Rm > Q / 2 ? -static_cast<std::int64_t>(Q - Rm)
                                         : static_cast<std::int64_t>(Rm);
      if (L == 0)
        V[I] = Centered;
      else if (V[I] != Centered)
        return false;
    }
  }
  Msg.resize(N);
  for (size_t I = 0; I < N; ++I)
    Msg[I] = static_cast<std::uint64_t>(((V[I] % T) + T) % T);
  return true;
}

std::vector<std::uint64_t>
moma::e2e::plainProduct(const std::vector<std::uint64_t> &A,
                        const std::vector<std::uint64_t> &B, std::uint64_t T) {
  const size_t N = A.size();
  std::vector<std::int64_t> Acc(N, 0);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J) {
      std::int64_t P = static_cast<std::int64_t>(A[I] * B[J]);
      if (I + J < N)
        Acc[I + J] += P;
      else
        Acc[I + J - N] -= P;
    }
  std::vector<std::uint64_t> Out(N);
  const std::int64_t ST = static_cast<std::int64_t>(T);
  for (size_t I = 0; I < N; ++I)
    Out[I] = static_cast<std::uint64_t>(((Acc[I] % ST) + ST) % ST);
  return Out;
}

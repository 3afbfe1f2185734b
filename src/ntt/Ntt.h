//===- ntt/Ntt.h - Number theoretic transform engine ----------*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Iterative radix-2 NTT over MoMA prime fields (paper Eq. 12 and §5.3).
///
/// NttPlan precomputes bit-reversal tables and per-stage twiddle tables for
/// one (field, size) pair; forward/inverse run the classic Cooley-Tukey
/// decimation-in-time schedule whose butterfly is exactly the paper's
/// generated kernel: one modular multiplication, one modular addition, one
/// modular subtraction per butterfly ((n log2 n)/2 butterflies total, the
/// denominator of the paper's runtime-per-butterfly metric).
///
/// Batching follows §5.1: independent transforms spread over the simulated
/// device; a stage-parallel mode maps one virtual thread per butterfly for
/// single transforms.
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_NTT_NTT_H
#define MOMA_NTT_NTT_H

#include "field/PrimeField.h"
#include "sim/Launch.h"
#include "support/Error.h"

#include <vector>

namespace moma {
namespace ntt {

/// Precomputed plan for n-point NTTs over Z_q with W-word elements.
template <unsigned W> class NttPlan {
public:
  using Field = field::PrimeField<W>;
  using Element = typename Field::Element;

  /// Builds the plan. \p N must be a power of two with 2^s | q-1.
  NttPlan(const Field &F, size_t N) : F(F), N(N) {
    if (N < 2 || (N & (N - 1)) != 0)
      fatalError("NttPlan: size must be a power of two >= 2");
    LogN = 0;
    while ((size_t(1) << LogN) < N)
      ++LogN;

    Element Root = F.nthRoot(N); // aborts if 2-adicity is insufficient
    Element RootInv = F.inv(Root);
    NInv = F.inv(F.fromBignum(mw::Bignum(N)));

    BitRev.resize(N);
    for (size_t I = 0; I < N; ++I) {
      size_t R = 0;
      for (unsigned B = 0; B < LogN; ++B)
        R |= ((I >> B) & 1) << (LogN - 1 - B);
      BitRev[I] = static_cast<std::uint32_t>(R);
    }

    // Stage s (len = 2^s) uses w_{2len}^j for j in [0, len); tables are
    // concatenated with stage offsets at len-1 (total n-1 entries).
    Twiddles.resize(N - 1);
    InvTwiddles.resize(N - 1);
    for (size_t Len = 1; Len < N; Len <<= 1) {
      // w_{2len} = Root^(N / (2len)).
      Element WLen = F.pow(Root, mw::Bignum(N / (2 * Len)));
      Element WLenInv = F.pow(RootInv, mw::Bignum(N / (2 * Len)));
      Element Cur = F.one(), CurInv = F.one();
      for (size_t J = 0; J < Len; ++J) {
        Twiddles[Len - 1 + J] = Cur;
        InvTwiddles[Len - 1 + J] = CurInv;
        Cur = F.mul(Cur, WLen);
        CurInv = F.mul(CurInv, WLenInv);
      }
    }
  }

  const Field &field() const { return F; }
  size_t size() const { return N; }

  /// Number of butterflies per transform: (n log2 n) / 2.
  std::uint64_t butterflies() const {
    return static_cast<std::uint64_t>(N) / 2 * LogN;
  }

  /// In-place forward NTT (coefficients -> evaluations).
  void forward(Element *X) const { transform(X, Twiddles.data()); }

  /// In-place inverse NTT, including the 1/n scaling.
  void inverse(Element *X) const {
    transform(X, InvTwiddles.data());
    for (size_t I = 0; I < N; ++I)
      X[I] = F.mul(X[I], NInv);
  }

  /// Forward NTT over \p Batch contiguous transforms, batch-parallel on
  /// \p Dev (paper §5.1: batch processing for steady-state throughput).
  void forwardBatch(const sim::Device &Dev, Element *X, size_t Batch) const {
    Dev.parallelFor(Batch, [&](std::uint64_t B) { forward(X + B * N); });
  }

  /// Inverse NTT over a batch.
  void inverseBatch(const sim::Device &Dev, Element *X, size_t Batch) const {
    Dev.parallelFor(Batch, [&](std::uint64_t B) { inverse(X + B * N); });
  }

  /// Forward NTT with the paper's stage-level mapping: each stage is a
  /// launch with one virtual thread per butterfly. Used by tests to pin
  /// the sim:: substrate to the CUDA mapping the emitter generates.
  void forwardStageParallel(const sim::Device &Dev, Element *X) const {
    applyBitReverse(X);
    for (size_t Len = 1; Len < N; Len <<= 1) {
      const Element *Stage = Twiddles.data() + (Len - 1);
      sim::LaunchConfig Cfg;
      Cfg.BlockDim = static_cast<std::uint32_t>(
          std::min<size_t>(N / 2, Dev.profile().MaxThreadsPerBlock));
      Cfg.GridX = static_cast<std::uint32_t>(
          (N / 2 + Cfg.BlockDim - 1) / Cfg.BlockDim);
      Dev.launch(Cfg, [&](const sim::LaunchCoord &C, sim::SharedMem &) {
        std::uint64_t T =
            static_cast<std::uint64_t>(C.BlockX) * Cfg.BlockDim + C.ThreadX;
        if (T >= N / 2)
          return;
        size_t G = T / Len, J = T % Len;
        size_t I0 = G * 2 * Len + J, I1 = I0 + Len;
        butterfly(X[I0], X[I1], Stage[J]);
      });
    }
  }

  /// The generated butterfly: t = w*y; (x, y) <- (x+t, x-t) mod q.
  void butterfly(Element &X, Element &Y, const Element &Wt) const {
    Element T = F.mul(Y, Wt);
    Element U = X;
    X = F.add(U, T);
    Y = F.sub(U, T);
  }

private:
  void applyBitReverse(Element *X) const {
    for (size_t I = 0; I < N; ++I) {
      size_t R = BitRev[I];
      if (I < R)
        std::swap(X[I], X[R]);
    }
  }

  void transform(Element *X, const Element *Tw) const {
    applyBitReverse(X);
    for (size_t Len = 1; Len < N; Len <<= 1) {
      const Element *Stage = Tw + (Len - 1);
      for (size_t I0 = 0; I0 < N; I0 += 2 * Len) {
        for (size_t J = 0; J < Len; ++J) {
          Element T = F.mul(X[I0 + J + Len], Stage[J]);
          Element U = X[I0 + J];
          X[I0 + J] = F.add(U, T);
          X[I0 + J + Len] = F.sub(U, T);
        }
      }
    }
  }

  Field F;
  size_t N;
  unsigned LogN = 0;
  Element NInv;
  std::vector<std::uint32_t> BitRev;
  std::vector<Element> Twiddles;
  std::vector<Element> InvTwiddles;
};

/// Polynomial product over Z_q via NTT: C = A * B with
/// deg(A) + deg(B) < n for an n-point plan (paper §2.3, Eq. 11 made
/// O(n log n)). Inputs are coefficient vectors (low degree first) of
/// length <= n; the result has length n.
template <unsigned W>
std::vector<typename field::PrimeField<W>::Element>
polyMulNtt(const NttPlan<W> &Plan,
           std::vector<typename field::PrimeField<W>::Element> A,
           std::vector<typename field::PrimeField<W>::Element> B) {
  const auto &F = Plan.field();
  size_t N = Plan.size();
  if (A.size() > N || B.size() > N)
    fatalError("polyMulNtt: inputs longer than the plan size");
  A.resize(N, F.zero());
  B.resize(N, F.zero());
  Plan.forward(A.data());
  Plan.forward(B.data());
  for (size_t I = 0; I < N; ++I)
    A[I] = F.mul(A[I], B[I]); // point-wise product (vmul)
  Plan.inverse(A.data());
  return A;
}

} // namespace ntt
} // namespace moma

#endif // MOMA_NTT_NTT_H

//===- kernels/ScalarKernels.cpp - Modular scalar kernel builders ----------===//

#include "kernels/ScalarKernels.h"

#include "ir/Builder.h"
#include "support/Error.h"

#include <algorithm>

using namespace moma;
using namespace moma::ir;
using namespace moma::kernels;

namespace {

/// Common setup: a kernel with reduced inputs a, b plus the modulus and the
/// reduction-specific auxiliary parameters (Barrett mu, or Montgomery
/// qinv/r2).
struct KernelFrame {
  Kernel K;
  ValueId A = NoValue, B = NoValue, Q = NoValue, Mu = NoValue;
  ValueId QInv = NoValue, R2 = NoValue;
  unsigned ModBits = 0;
};

/// Appends the reduction-specific parameters for a kernel that multiplies.
void addReductionInputs(KernelFrame &F, const ScalarKernelSpec &Spec) {
  unsigned W = Spec.ContainerBits;
  unsigned M = Spec.modBits();
  if (Spec.Red == mw::Reduction::Barrett) {
    // mu = floor(2^(2M+3) / q) < 2^(M+4).
    F.Mu = F.K.newValue(W, "mu", M + 4);
    F.K.addInput(F.Mu, "mu");
  } else {
    // qinv = -q^-1 mod 2^W occupies the full container; r2 = 2^(2W) mod q
    // is reduced. Both derive from q alone (see runtime/Dispatcher).
    F.QInv = F.K.newValue(W, "qinv", W);
    F.K.addInput(F.QInv, "qinv");
    F.R2 = F.K.newValue(W, "r2", M);
    F.K.addInput(F.R2, "r2");
  }
}

KernelFrame makeFrame(const ScalarKernelSpec &Spec, const char *Name,
                      bool NeedsMul) {
  unsigned W = Spec.ContainerBits;
  unsigned M = Spec.modBits();
  if (M + 4 > W)
    fatalError("scalar kernel: modulus bits must be <= container - 4");
  KernelFrame F;
  F.ModBits = M;
  F.K.Name = Name;
  if (NeedsMul && Spec.Red == mw::Reduction::Montgomery)
    F.K.Name += "_mont";
  // Reduced inputs are < q < 2^M; the modulus itself has exactly M bits.
  F.A = F.K.newValue(W, "a", M);
  F.K.addInput(F.A, "a");
  F.B = F.K.newValue(W, "b", M);
  F.K.addInput(F.B, "b");
  F.Q = F.K.newValue(W, "q", M);
  F.K.addInput(F.Q, "q");
  if (NeedsMul)
    addReductionInputs(F, Spec);
  return F;
}

/// One REDC pass: given the full product t = hi*2^W + lo of two values
/// below q, returns t * 2^-W mod q. Straight-line Montgomery reduction:
///   m = (t mod 2^W) * qinv mod 2^W
///   u = (t + m*q) / 2^W          (low half cancels exactly; u < 2q)
///   return u < q ? u : u - q
ValueId emitRedc(Builder &B, ValueId Hi, ValueId Lo, ValueId Q, ValueId QInv,
                 unsigned ModBits) {
  ValueId M = B.mulLow(Lo, QInv);
  HiLoResult MQ = B.mul(M, Q);
  CarryResult S0 = B.add(Lo, MQ.Lo); // sum is 0 mod 2^W; only the carry
                                     // propagates into the high half
  CarryResult S1 = B.add(Hi, MQ.Hi, S0.Carry);
  ValueId U = S1.Value; // the top-level carry is provably zero: u < 2q < 2^W
  ValueId Keep = B.lt(U, Q);
  CarryResult D = B.sub(U, Q);
  ValueId R = B.select(Keep, U, D.Value);
  // The selected value is < q in every execution (u when u < q, u - q
  // otherwise), so the result carries the modulus bound like the Barrett
  // macro-op does — this is what lets §4 pruning drop its top words.
  B.kernel().value(R).KnownBits = ModBits;
  return R;
}

/// Plain-domain Montgomery modular product: REDC(a*b) = a*b*2^-W mod q,
/// then REDC(that * r2) multiplies the stray 2^-W back out. Two REDC
/// passes instead of Barrett's three multiplies; same signature semantics.
ValueId emitMulModMontgomery(Builder &B, const KernelFrame &F, ValueId A,
                             ValueId BV) {
  HiLoResult P1 = B.mul(A, BV);
  ValueId T = emitRedc(B, P1.Hi, P1.Lo, F.Q, F.QInv, F.ModBits);
  HiLoResult P2 = B.mul(T, F.R2);
  return emitRedc(B, P2.Hi, P2.Lo, F.Q, F.QInv, F.ModBits);
}

/// Reduction-dispatching modular product used by every kernel builder.
ValueId emitMulMod(Builder &B, const ScalarKernelSpec &Spec,
                   const KernelFrame &F, ValueId A, ValueId BV) {
  if (Spec.Red == mw::Reduction::Montgomery)
    return emitMulModMontgomery(B, F, A, BV);
  return B.mulMod(A, BV, F.Q, F.Mu, F.ModBits);
}

/// Shoup's product by a table constant (Harvey 2014): with the companion
/// wq = floor(w * 2^W / q), the quotient estimate qhat = hi(y * wq) is
/// floor(y*w/q) or one less, so t = y*w - qhat*q lies in [0, 2q) and is
/// exact modulo 2^W (2q < 2^W) — two low-half products, one high half
/// and one conditional subtraction, no Barrett shifts.
ValueId emitMulShoup(Builder &B, ValueId Y, ValueId Wt, ValueId WQ,
                     ValueId Q, unsigned ModBits) {
  Kernel &K = B.kernel();
  ValueId QHat = B.mul(Y, WQ).Hi;
  K.value(QHat).KnownBits = ModBits; // qhat <= y < q
  ValueId YW = B.mulLow(Y, Wt);
  ValueId QQ = B.mulLow(QHat, Q);
  ValueId T = B.sub(YW, QQ).Value;
  K.value(T).KnownBits = ModBits + 1; // t < 2q
  ValueId Keep = B.lt(T, Q);
  CarryResult D = B.sub(T, Q);
  ValueId R = B.select(Keep, T, D.Value);
  K.value(R).KnownBits = ModBits;
  return R;
}

} // namespace

Kernel moma::kernels::buildAddModKernel(const ScalarKernelSpec &Spec) {
  KernelFrame F = makeFrame(Spec, "addmod", /*NeedsMul=*/false);
  Builder B(F.K);
  ValueId C = B.addMod(F.A, F.B, F.Q);
  F.K.addOutput(C, "c");
  return std::move(F.K);
}

Kernel moma::kernels::buildSubModKernel(const ScalarKernelSpec &Spec) {
  KernelFrame F = makeFrame(Spec, "submod", /*NeedsMul=*/false);
  Builder B(F.K);
  ValueId C = B.subMod(F.A, F.B, F.Q);
  F.K.addOutput(C, "c");
  return std::move(F.K);
}

Kernel moma::kernels::buildMulModKernel(const ScalarKernelSpec &Spec) {
  KernelFrame F = makeFrame(Spec, "mulmod", /*NeedsMul=*/true);
  Builder B(F.K);
  ValueId C = emitMulMod(B, Spec, F, F.A, F.B);
  F.K.addOutput(C, "c");
  return std::move(F.K);
}

Kernel moma::kernels::buildMulFullKernel(const ScalarKernelSpec &Spec) {
  unsigned W = Spec.ContainerBits;
  Kernel K;
  K.Name = "mulfull";
  ValueId A = K.newValue(W, "a", Spec.modBits());
  K.addInput(A, "a");
  ValueId BV = K.newValue(W, "b", Spec.modBits());
  K.addInput(BV, "b");
  Builder B(K);
  HiLoResult R = B.mul(A, BV);
  K.addOutput(R.Hi, "hi");
  K.addOutput(R.Lo, "lo");
  return K;
}

Kernel moma::kernels::buildButterflyKernel(const ScalarKernelSpec &Spec) {
  unsigned W = Spec.ContainerBits;
  unsigned M = Spec.modBits();
  if (M + 4 > W)
    fatalError("butterfly: modulus bits must be <= container - 4");
  Kernel K;
  K.Name = "butterfly";
  ValueId X = K.newValue(W, "x", M);
  K.addInput(X, "x");
  ValueId Y = K.newValue(W, "y", M);
  K.addInput(Y, "y");
  ValueId Wt = K.newValue(W, "w", M); // twiddle, reduced
  K.addInput(Wt, "w");
  // Shoup companion floor(w * 2^W / q): spans the whole container.
  ValueId WQ = K.newValue(W, "wq", W);
  K.addInput(WQ, "wq");
  ValueId Q = K.newValue(W, "q", M);
  K.addInput(Q, "q");

  Builder B(K);
  ValueId T = emitMulShoup(B, Y, Wt, WQ, Q, M);
  ValueId XOut = B.addMod(X, T, Q);
  ValueId YOut = B.subMod(X, T, Q);
  K.addOutput(XOut, "xo");
  K.addOutput(YOut, "yo");
  return K;
}

mw::Bignum moma::kernels::shoupCompanion(const mw::Bignum &W,
                                        const mw::Bignum &Q,
                                        unsigned ContainerBits) {
  return (W << ContainerBits) / Q;
}

Kernel moma::kernels::buildRnsDecomposeKernel(const ScalarKernelSpec &Spec,
                                              unsigned WideWords) {
  unsigned W = Spec.ContainerBits;
  unsigned L = Spec.ModBits; // the limb width; modBits() would default to
                             // W-4, which is never a word-sized limb
  if (L == 0 || L > 62)
    fatalError("rnsdec: limb modulus bits must be set and <= 62");
  if (WideWords == 0 || 64 * WideWords > W)
    fatalError("rnsdec: wide words must fit the container");
  Kernel K;
  K.Name = "rnsdec";
  // a < 2^(64*WideWords): exactly the stored words of one wide batch
  // element, so the dispatch stride equals the RNS base's elemWords(M).
  ValueId A = K.newValue(W, "a", 64 * WideWords);
  K.addInput(A, "a");
  ValueId Q = K.newValue(W, "q", L);
  K.addInput(Q, "q");
  // gmu = floor(2^W / q) < 2^(W-L+1): the generalized Barrett constant
  // for single-pass reduction of any a < 2^W.
  ValueId GMu = K.newValue(W, "gmu", W - L + 1);
  K.addInput(GMu, "gmu");

  Builder B(K);
  // q̂ = floor(a·gmu / 2^W) — the full product's high half, so the
  // Barrett shift is the container width and costs nothing. Standard
  // bound: a/q - 2 < q̂ <= a/q, hence r0 = a - q̂·q in [0, 3q).
  HiLoResult P = B.mul(A, GMu);
  ValueId QHat = P.Hi;
  K.value(QHat).KnownBits =
      std::min(W, 64 * WideWords - L + 1); // a·gmu < 2^(64W' + W - L + 1)
  ValueId T = B.mulLow(QHat, Q);
  K.value(T).KnownBits = 64 * WideWords; // q̂·q <= a
  ValueId R = B.sub(A, T).Value;
  K.value(R).KnownBits = L + 2; // r0 < 3q — this is what lets pruning
                                // collapse the corrections to limb width
  for (unsigned Pass = 0; Pass < 2; ++Pass) {
    ValueId Keep = B.lt(R, Q);
    CarryResult D = B.sub(R, Q);
    R = B.select(Keep, R, D.Value);
    K.value(R).KnownBits = L + 1 - Pass; // < 2q, then < q
  }
  K.addOutput(R, "c");
  return K;
}

Kernel moma::kernels::buildRnsRecombineStepKernel(
    const ScalarKernelSpec &Spec) {
  unsigned W = Spec.ContainerBits;
  unsigned M = Spec.modBits();
  if (M + 4 > W)
    fatalError("rnsrec: modulus bits must be <= container - 4");
  Kernel K;
  K.Name = "rnsrec";
  ValueId A = K.newValue(W, "a", M); // CRT weight W_l < M (broadcast)
  K.addInput(A, "a");
  // The residue is word-sized whatever the wide width: capping KnownBits
  // at 62 keeps it one stored word and keeps the limb width out of the
  // plan key (any residue of a <= 62-bit limb is covered).
  ValueId X = K.newValue(W, "x", std::min(62u, M));
  K.addInput(X, "x");
  ValueId Y = K.newValue(W, "y", M); // accumulator < M
  K.addInput(Y, "y");
  ValueId Q = K.newValue(W, "q", M);
  K.addInput(Q, "q");
  ValueId Mu = K.newValue(W, "mu", M + 4); // standard Barrett constant
  K.addInput(Mu, "mu");

  Builder B(K);
  ValueId AX = B.mulMod(A, X, Q, Mu, M);
  ValueId Out = B.addMod(AX, Y, Q);
  K.addOutput(Out, "yo");
  return K;
}

Kernel moma::kernels::buildRnsRescaleStepKernel(
    const ScalarKernelSpec &Spec) {
  unsigned W = Spec.ContainerBits;
  unsigned L = Spec.ModBits; // the limb width; modBits() would default to
                             // W-4, which is never a word-sized limb
  if (L == 0 || L > 62)
    fatalError("rnsresc: limb modulus bits must be set and <= 62");
  if (L + 4 > W)
    fatalError("rnsresc: modulus bits must be <= container - 4");
  Kernel K;
  K.Name = "rnsresc";
  ValueId A = K.newValue(W, "a", L); // q_last^{-1} mod q (broadcast)
  K.addInput(A, "a");
  ValueId X = K.newValue(W, "x", L); // this limb's residue, < q
  K.addInput(X, "x");
  // The dropped limb's residue: < q_last < 2^L < 2q when every limb
  // shares one bit-width, so a single conditional subtraction folds it
  // under q (same correction the decompose kernel's tail uses).
  ValueId Y = K.newValue(W, "y", L);
  K.addInput(Y, "y");
  ValueId Q = K.newValue(W, "q", L);
  K.addInput(Q, "q");
  ValueId Mu = K.newValue(W, "mu", L + 4); // standard Barrett constant
  K.addInput(Mu, "mu");

  Builder B(K);
  ValueId Keep = B.lt(Y, Q);
  CarryResult D = B.sub(Y, Q);
  ValueId YR = B.select(Keep, Y, D.Value);
  K.value(YR).KnownBits = L; // y mod q < q
  ValueId Diff = B.subMod(X, YR, Q);
  ValueId Out = B.mulMod(Diff, A, Q, Mu, L);
  K.addOutput(Out, "co");
  return K;
}

Kernel moma::kernels::buildAxpyKernel(const ScalarKernelSpec &Spec) {
  unsigned W = Spec.ContainerBits;
  unsigned M = Spec.modBits();
  if (M + 4 > W)
    fatalError("axpy: modulus bits must be <= container - 4");
  KernelFrame F;
  F.ModBits = M;
  Kernel &K = F.K;
  K.Name = Spec.Red == mw::Reduction::Montgomery ? "axpy_mont" : "axpy";
  ValueId A = K.newValue(W, "a", M);
  K.addInput(A, "a");
  ValueId X = K.newValue(W, "x", M);
  K.addInput(X, "x");
  ValueId Y = K.newValue(W, "y", M);
  K.addInput(Y, "y");
  F.Q = K.newValue(W, "q", M);
  K.addInput(F.Q, "q");
  addReductionInputs(F, Spec);

  Builder B(K);
  ValueId AX = emitMulMod(B, Spec, F, A, X);
  ValueId Out = B.addMod(AX, Y, F.Q);
  K.addOutput(Out, "yo");
  return std::move(F.K);
}

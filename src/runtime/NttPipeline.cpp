//===- runtime/NttPipeline.cpp - Fused NTT execution pipeline -------------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "runtime/NttPipeline.h"

#include "field/RootOfUnity.h"
#include "kernels/ScalarKernels.h"
#include "runtime/PlanKey.h"
#include "support/Format.h"

#include <algorithm>

using namespace moma;
using namespace moma::runtime;
using mw::Bignum;

namespace {

bool fail(std::string *Err, const std::string &Msg) {
  if (Err)
    *Err = Msg;
  return false;
}

} // namespace

bool moma::runtime::buildNttTables(const Bignum &Q, size_t NPoints,
                                   NttTables &Out, std::string *Err,
                                   rewrite::NttRing Ring) {
  if (NPoints < 2 || (NPoints & (NPoints - 1)) != 0)
    return fail(Err, "NTT size must be a power of two >= 2");
  unsigned LogN = 0;
  while ((size_t(1) << LogN) < NPoints)
    ++LogN;
  bool Neg = Ring == rewrite::NttRing::Negacyclic;
  // The negacyclic twist needs a primitive 2n-th root: one extra factor
  // of two in q - 1.
  unsigned NeedAdicity = LogN + (Neg ? 1 : 0);
  if (field::twoAdicity(Q) < NeedAdicity)
    return fail(Err,
                formatv("modulus 2-adicity %u < %u required for a %s "
                        "%zu-point transform",
                        field::twoAdicity(Q), NeedAdicity,
                        rewrite::nttRingName(Ring), NPoints));

  unsigned K = (Q.bitWidth() + 63) / 64;
  // Each multiplier is followed by its Shoup companion
  // floor(w * 2^lambda / q) for the butterfly's wq port (lambda the
  // canonical container width).
  unsigned Lambda = PlanKey::canonicalContainerBits(Q.bitWidth(), 64);
  unsigned E = K + Lambda / 64;
  Out.LogN = LogN;
  Out.ElemWords = K;
  Out.EntryWords = E;
  Out.Ring = Ring;

  Out.BitRev.resize(NPoints);
  for (size_t I = 0; I < NPoints; ++I) {
    size_t R = 0;
    for (unsigned B = 0; B < LogN; ++B)
      R |= ((I >> B) & 1) << (LogN - 1 - B);
    Out.BitRev[I] = static_cast<std::uint32_t>(R);
  }

  // Writes the table entry for multiplier V (reduced) at \p Dst.
  auto PutEntry = [&](const Bignum &V, std::uint64_t *Dst) {
    auto W = packWordsMsbFirst(V, K);
    auto WQ = packWordsMsbFirst(kernels::shoupCompanion(V, Q, Lambda),
                                Lambda / 64);
    std::copy(W.begin(), W.end(), Dst);
    std::copy(WQ.begin(), WQ.end(), Dst + K);
  };

  Bignum Root = field::rootOfUnity(Q, NPoints);
  Bignum RootInv = Root.invMod(Q);
  Out.Tw.resize((NPoints - 1) * E);
  Out.InvTw.resize((NPoints - 1) * E);
  for (size_t Len = 1; Len < NPoints; Len <<= 1) {
    Bignum WLen = Root.powMod(Bignum(NPoints / (2 * Len)), Q);
    Bignum WLenInv = RootInv.powMod(Bignum(NPoints / (2 * Len)), Q);
    Bignum Cur(1), CurInv(1);
    for (size_t J = 0; J < Len; ++J) {
      PutEntry(Cur, Out.Tw.data() + (Len - 1 + J) * E);
      PutEntry(CurInv, Out.InvTw.data() + (Len - 1 + J) * E);
      Cur = Cur.mulMod(WLen, Q);
      CurInv = CurInv.mulMod(WLenInv, Q);
    }
  }
  Bignum NInv = Bignum(NPoints).invMod(Q);
  Out.NInv.resize(E);
  PutEntry(NInv, Out.NInv.data());

  Out.Twist.clear();
  Out.Untwist.clear();
  if (Neg) {
    // ψ = the primitive 2n-th root with ψ² = ω (rootOfUnityPow2 derives
    // every power-of-two root from one fixed generator per modulus, so
    // the relation holds by construction — and the tables are
    // bit-compatible with ntt::NegacyclicPlan, which uses the same
    // derivation). Twist[i] = ψ^i rides the first forward group's loads;
    // Untwist[i] = ψ^{-i} · n^-1 rides the last inverse group's stores
    // with the inverse scaling already folded in.
    Bignum Psi = field::rootOfUnityPow2(Q, LogN + 1);
    Bignum PsiInv = Psi.invMod(Q);
    Out.Twist.resize(NPoints * E);
    Out.Untwist.resize(NPoints * E);
    Bignum Cur(1), CurInv = NInv;
    for (size_t I = 0; I < NPoints; ++I) {
      PutEntry(Cur, Out.Twist.data() + I * E);
      PutEntry(CurInv, Out.Untwist.data() + I * E);
      Cur = Cur.mulMod(Psi, Q);
      CurInv = CurInv.mulMod(PsiInv, Q);
    }
  }
  return true;
}

std::vector<StageGroupPlan>
moma::runtime::planStageGroups(unsigned LogN, unsigned FuseDepth) {
  unsigned Depth = std::max(
      1u, std::min(FuseDepth, rewrite::PlanOptions::MaxFuseDepth));
  std::vector<StageGroupPlan> Out;
  for (unsigned Done = 0; Done < LogN;) {
    unsigned D = std::min(Depth, LogN - Done);
    Out.push_back({size_t(1) << Done, D});
    Done += D;
  }
  return Out;
}

bool moma::runtime::runTransform(
    ExecutionBackend &EB, const CompiledPlan &P, const NttTables &T,
    const std::vector<const std::uint64_t *> &Aux, std::uint64_t *Data,
    std::uint64_t *Scratch, size_t NPoints, size_t Batch, bool Inverse,
    std::string *Err, std::uint64_t *Dispatches) {
  std::vector<StageGroupPlan> Groups =
      planStageGroups(T.LogN, P.Key.Opts.FuseDepth);
  size_t G = Groups.size();
  if (G > 1 && !Scratch)
    return fail(Err, "runTransform: multi-group schedule needs a scratch "
                     "buffer");
  bool Neg = P.Key.Opts.Ring == rewrite::NttRing::Negacyclic;
  if (Neg && T.Ring != rewrite::NttRing::Negacyclic)
    return fail(Err, "runTransform: negacyclic plan needs tables built "
                     "with the negacyclic ψ edge-fold tables");
  if (T.EntryWords != codegen::twiddleEntryWords(P.Lowered))
    return fail(Err, "runTransform: table entries do not match the plan's "
                     "twiddle ports");
  const std::uint64_t *Tw = Inverse ? T.InvTw.data() : T.Tw.data();

  // Edge groups ping-pong through the scratch so (a) the bit-reversal
  // gather never races an in-place write across virtual threads and
  // (b) the result lands back in Data with zero extra data passes:
  // Data -> Scratch (gathered), in-place on Scratch, Scratch -> Data
  // (scaled when inverse). A single-group transform owns whole rows per
  // thread (loads complete before stores) and runs in place.
  for (size_t I = 0; I < G; ++I) {
    bool First = I == 0, Last = I + 1 == G;
    StageGroup SG;
    SG.Len0 = Groups[I].Len0;
    SG.Depth = Groups[I].Depth;
    SG.Gather = First ? T.BitRev.data() : nullptr;
    // Negacyclic edge folds: ψ^i on the first forward group's loads,
    // ψ^{-i}·n^-1 (per element, n^-1 already folded) on the last inverse
    // group's stores; the cyclic inverse keeps its broadcast n^-1. Same
    // dispatch count either way.
    SG.Twist = First && Neg && !Inverse ? T.Twist.data() : nullptr;
    if (Last && Inverse) {
      SG.Scale = Neg ? T.Untwist.data() : T.NInv.data();
      SG.ScaleStride = Neg ? T.EntryWords : 0;
    }
    if (G == 1) {
      SG.Src = Data;
      SG.Dst = Data;
    } else if (First) {
      SG.Src = Data;
      SG.Dst = Scratch;
    } else if (Last) {
      SG.Src = Scratch;
      SG.Dst = Data;
    } else {
      SG.Src = Scratch;
      SG.Dst = Scratch;
    }
    if (!EB.runStageGroup(P, SG, Tw, Aux, NPoints, Batch, Err))
      return false;
    if (Dispatches)
      ++*Dispatches;
  }
  return true;
}

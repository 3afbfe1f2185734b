//===- rewrite/Passes.cpp - The rewrite pass catalog ----------------------===//
//
// The first five passes each own one rule family of the default pipeline
// (constfold, algebraic, knownbits, copyprop, dce), which runs them to a
// fixed point. CSE and dead-port elimination join them in the extended
// pipeline; interval range analysis lives in rewrite/RangeAnalysis.cpp.
//
//===----------------------------------------------------------------------===//

#include "rewrite/Passes.h"

#include "support/Error.h"

#include <algorithm>

using namespace moma;
using namespace moma::ir;
using namespace moma::rewrite;
using mw::Bignum;

//===----------------------------------------------------------------------===//
// ConstFoldPass
//===----------------------------------------------------------------------===//

bool ConstFoldPass::tryRewrite(KernelRebuilder &RB, const Stmt &S,
                               const std::vector<ValueId> &Ops,
                               const std::vector<const Bignum *> &CV,
                               bool AllConst) {
  (void)Ops;
  const Kernel &Old = RB.oldKernel();
  auto ResultBits = [&](unsigned I) { return Old.value(S.Results[I]).Bits; };

  switch (S.Kind) {
  case OpKind::Zext:
    if (!CV[0])
      return false;
    RB.bindConst(S.Results[0], *CV[0]);
    break;
  case OpKind::Add: {
    if (!AllConst)
      return false;
    unsigned W = ResultBits(1);
    Bignum Sum = *CV[0] + *CV[1] + (Ops.size() == 3 ? *CV[2] : Bignum(0));
    RB.bindConst(S.Results[0], Sum >> W);
    RB.bindConst(S.Results[1], Sum.truncate(W));
    break;
  }
  case OpKind::Sub: {
    if (!AllConst)
      return false;
    unsigned W = ResultBits(1);
    Bignum A = *CV[0];
    Bignum B = *CV[1] + (Ops.size() == 3 ? *CV[2] : Bignum(0));
    if (A >= B) {
      RB.bindConst(S.Results[0], Bignum(0));
      RB.bindConst(S.Results[1], A - B);
    } else {
      RB.bindConst(S.Results[0], Bignum(1));
      RB.bindConst(S.Results[1], (Bignum::powerOfTwo(W) + A) - B);
    }
    break;
  }
  case OpKind::Mul: {
    if (!AllConst)
      return false;
    unsigned W = ResultBits(1);
    Bignum P = *CV[0] * *CV[1];
    RB.bindConst(S.Results[0], P >> W);
    RB.bindConst(S.Results[1], P.truncate(W));
    break;
  }
  case OpKind::MulLow:
    if (!AllConst)
      return false;
    RB.bindConst(S.Results[0], (*CV[0] * *CV[1]).truncate(ResultBits(0)));
    break;
  case OpKind::AddMod:
  case OpKind::SubMod:
    if (!AllConst)
      return false;
    RB.bindConst(S.Results[0], S.Kind == OpKind::AddMod
                                   ? CV[0]->addMod(*CV[1], *CV[2])
                                   : CV[0]->subMod(*CV[1], *CV[2]));
    break;
  case OpKind::MulMod:
    // mu (the fourth operand) is not needed to fold the exact product.
    if (!(CV[0] && CV[1] && CV[2]))
      return false;
    RB.bindConst(S.Results[0], CV[0]->mulMod(*CV[1], *CV[2]));
    break;
  case OpKind::Lt:
    if (!AllConst)
      return false;
    RB.bindConst(S.Results[0], Bignum(*CV[0] < *CV[1] ? 1 : 0));
    break;
  case OpKind::Eq:
    if (!AllConst)
      return false;
    RB.bindConst(S.Results[0], Bignum(*CV[0] == *CV[1] ? 1 : 0));
    break;
  case OpKind::Not:
    if (!AllConst)
      return false;
    RB.bindConst(S.Results[0], Bignum(CV[0]->isZero() ? 1 : 0));
    break;
  case OpKind::And:
  case OpKind::Or:
  case OpKind::Xor: {
    if (!AllConst)
      return false;
    size_t N = std::max(CV[0]->numLimbs(), CV[1]->numLimbs());
    std::vector<std::uint64_t> Words(N ? N : 1, 0);
    for (size_t I = 0; I < N; ++I)
      Words[I] = S.Kind == OpKind::And ? (CV[0]->limb(I) & CV[1]->limb(I))
                 : S.Kind == OpKind::Or ? (CV[0]->limb(I) | CV[1]->limb(I))
                                        : (CV[0]->limb(I) ^ CV[1]->limb(I));
    RB.bindConst(S.Results[0], Bignum::fromWords(Words));
    break;
  }
  case OpKind::Shl:
    if (!CV[0])
      return false;
    RB.bindConst(S.Results[0], (*CV[0] << S.Amount).truncate(ResultBits(0)));
    break;
  case OpKind::Shr:
    if (!CV[0])
      return false;
    RB.bindConst(S.Results[0], *CV[0] >> S.Amount);
    break;
  case OpKind::Split: {
    if (!CV[0])
      return false;
    // Copy before binding: bindConst may grow the rebuilder's constant
    // table, invalidating the CV pointers.
    Bignum V = *CV[0];
    RB.bindConst(S.Results[0], V >> ResultBits(0));
    RB.bindConst(S.Results[1], V.truncate(ResultBits(0)));
    break;
  }
  case OpKind::Concat:
    if (!AllConst)
      return false;
    RB.bindConst(S.Results[0], (*CV[0] << RB.widthOf(Ops[1])) + *CV[1]);
    break;
  default:
    // Select-on-constant counts as an algebraic identity (it picks an
    // operand rather than computing a value); Copy is copyprop's.
    return false;
  }
  ++RB.Changes;
  return true;
}

//===----------------------------------------------------------------------===//
// AlgebraicIdentitiesPass
//===----------------------------------------------------------------------===//

bool AlgebraicIdentitiesPass::tryRewrite(KernelRebuilder &RB, const Stmt &S,
                                         const std::vector<ValueId> &Ops,
                                         const std::vector<const Bignum *> &CV,
                                         bool AllConst) {
  (void)AllConst;
  const Kernel &Old = RB.oldKernel();
  auto ResultBits = [&](unsigned I) { return Old.value(S.Results[I]).Bits; };

  switch (S.Kind) {
  case OpKind::Add: {
    unsigned W = ResultBits(1);
    bool HasCin = Ops.size() == 3;
    bool CinZero = !HasCin || RB.isZero(Ops[2]);
    // x + 0 (+0) => x, carry 0.
    if (CinZero && RB.isZero(Ops[1])) {
      RB.bindConst(S.Results[0], Bignum(0));
      RB.bind(S.Results[1], Ops[0]);
      break;
    }
    if (CinZero && RB.isZero(Ops[0])) {
      RB.bindConst(S.Results[0], Bignum(0));
      RB.bind(S.Results[1], Ops[1]);
      break;
    }
    // 0 + 0 + cin => zext(cin), carry 0.
    if (RB.isZero(Ops[0]) && RB.isZero(Ops[1]) && HasCin) {
      RB.bindConst(S.Results[0], Bignum(0));
      ValueId R = RB.newResult(W, 1);
      RB.emit(OpKind::Zext, {R}, {Ops[2]});
      RB.bind(S.Results[1], R);
      break;
    }
    // A provably-zero carry-in drops off the operand list.
    if (HasCin && CinZero) {
      ValueId Carry = RB.newKernel().newValue(1);
      ValueId Sum = RB.newResult(
          W, std::min(W, std::max(RB.known(Ops[0]), RB.known(Ops[1])) + 1));
      RB.emit(OpKind::Add, {Carry, Sum}, {Ops[0], Ops[1]});
      RB.bind(S.Results[0], Carry);
      RB.bind(S.Results[1], Sum);
      break;
    }
    return false;
  }
  case OpKind::Sub: {
    unsigned W = ResultBits(1);
    bool HasBin = Ops.size() == 3;
    bool BinZero = !HasBin || RB.isZero(Ops[2]);
    if (BinZero && RB.isZero(Ops[1])) {
      RB.bindConst(S.Results[0], Bignum(0));
      RB.bind(S.Results[1], Ops[0]);
      break;
    }
    if (BinZero && Ops[0] == Ops[1]) {
      RB.bindConst(S.Results[0], Bignum(0));
      RB.bindConst(S.Results[1], Bignum(0));
      break;
    }
    if (HasBin && BinZero) {
      ValueId Borrow = RB.newKernel().newValue(1);
      ValueId Diff = RB.newResult(W, W);
      RB.emit(OpKind::Sub, {Borrow, Diff}, {Ops[0], Ops[1]});
      RB.bind(S.Results[0], Borrow);
      RB.bind(S.Results[1], Diff);
      break;
    }
    return false;
  }
  case OpKind::Mul:
    if (RB.isZero(Ops[0]) || RB.isZero(Ops[1])) {
      RB.bindConst(S.Results[0], Bignum(0));
      RB.bindConst(S.Results[1], Bignum(0));
      break;
    }
    if (RB.isOne(Ops[0]) || RB.isOne(Ops[1])) {
      RB.bindConst(S.Results[0], Bignum(0));
      RB.bind(S.Results[1], RB.isOne(Ops[0]) ? Ops[1] : Ops[0]);
      break;
    }
    return false;
  case OpKind::MulLow:
    if (RB.isZero(Ops[0]) || RB.isZero(Ops[1])) {
      RB.bindConst(S.Results[0], Bignum(0));
      break;
    }
    if (RB.isOne(Ops[0]) || RB.isOne(Ops[1])) {
      RB.bind(S.Results[0], RB.isOne(Ops[0]) ? Ops[1] : Ops[0]);
      break;
    }
    return false;
  case OpKind::AddMod:
  case OpKind::SubMod:
    // x (+|-) 0 mod q == x for reduced x.
    if (RB.isZero(Ops[1])) {
      RB.bind(S.Results[0], Ops[0]);
      break;
    }
    if (S.Kind == OpKind::SubMod && Ops[0] == Ops[1]) {
      RB.bindConst(S.Results[0], Bignum(0));
      break;
    }
    return false;
  case OpKind::MulMod:
    if (RB.isZero(Ops[0]) || RB.isZero(Ops[1])) {
      RB.bindConst(S.Results[0], Bignum(0));
      break;
    }
    if (RB.isOne(Ops[0]) || RB.isOne(Ops[1])) {
      RB.bind(S.Results[0], RB.isOne(Ops[0]) ? Ops[1] : Ops[0]);
      break;
    }
    return false;
  case OpKind::Lt:
    // x < x and x < 0 are always false.
    if (Ops[0] == Ops[1] || RB.isZero(Ops[1])) {
      RB.bindConst(S.Results[0], Bignum(0));
      break;
    }
    return false;
  case OpKind::Eq:
    if (Ops[0] == Ops[1]) {
      RB.bindConst(S.Results[0], Bignum(1));
      break;
    }
    return false;
  case OpKind::And:
    if (RB.isZero(Ops[0]) || RB.isZero(Ops[1])) {
      RB.bindConst(S.Results[0], Bignum(0));
      break;
    }
    if (ResultBits(0) == 1 && (RB.isOne(Ops[0]) || RB.isOne(Ops[1]))) {
      RB.bind(S.Results[0], RB.isOne(Ops[0]) ? Ops[1] : Ops[0]);
      break;
    }
    if (Ops[0] == Ops[1]) {
      RB.bind(S.Results[0], Ops[0]);
      break;
    }
    return false;
  case OpKind::Or:
  case OpKind::Xor:
    if (RB.isZero(Ops[0]) || RB.isZero(Ops[1])) {
      RB.bind(S.Results[0], RB.isZero(Ops[0]) ? Ops[1] : Ops[0]);
      break;
    }
    if (S.Kind == OpKind::Or && Ops[0] == Ops[1]) {
      RB.bind(S.Results[0], Ops[0]);
      break;
    }
    if (S.Kind == OpKind::Xor && Ops[0] == Ops[1]) {
      RB.bindConst(S.Results[0], Bignum(0));
      break;
    }
    return false;
  case OpKind::Shl:
  case OpKind::Shr:
    if (S.Amount == 0 || RB.isZero(Ops[0])) {
      RB.bind(S.Results[0], Ops[0]);
      break;
    }
    return false;
  case OpKind::Select:
    if (CV[0]) {
      RB.bind(S.Results[0], CV[0]->isZero() ? Ops[2] : Ops[1]);
      break;
    }
    if (Ops[1] == Ops[2]) {
      RB.bind(S.Results[0], Ops[1]);
      break;
    }
    return false;
  default:
    return false;
  }
  ++RB.Changes;
  return true;
}

//===----------------------------------------------------------------------===//
// KnownBitsStrengthReducePass
//===----------------------------------------------------------------------===//

bool KnownBitsStrengthReducePass::tryRewrite(
    KernelRebuilder &RB, const Stmt &S, const std::vector<ValueId> &Ops,
    const std::vector<const Bignum *> &CV, bool AllConst) {
  (void)CV;
  (void)AllConst;
  const Kernel &Old = RB.oldKernel();
  auto ResultBits = [&](unsigned I) { return Old.value(S.Results[I]).Bits; };

  switch (S.Kind) {
  case OpKind::Add: {
    // If the sum provably fits W bits, the carry is zero (a carry-in adds
    // at most one, which max(k0, k1) + 1 already covers).
    unsigned W = ResultBits(1);
    unsigned Bound = std::max(RB.known(Ops[0]), RB.known(Ops[1])) + 1;
    if (Bound > W)
      return false;
    ValueId Carry = RB.newKernel().newValue(1); // dead slot keeps the shape
    ValueId Sum = RB.newResult(W, Bound);
    RB.emit(OpKind::Add, {Carry, Sum}, Ops);
    RB.bind(S.Results[1], Sum);
    // Only bind (and count) the constant carry when somebody read it;
    // re-reducing an already-reduced add must leave no trace, or repeated
    // sweeps would never reach a fixpoint.
    if (RB.useCount(S.Results[0]) > 0) {
      RB.bindConst(S.Results[0], Bignum(0));
      ++RB.Changes;
    } else {
      RB.bind(S.Results[0], Carry);
    }
    return true;
  }
  case OpKind::Mul: {
    unsigned W = ResultBits(1);
    unsigned KBound = RB.known(Ops[0]) + RB.known(Ops[1]);
    if (KBound > W)
      return false;
    // The product fits the low word: drop the high half (rule 28 prune).
    ValueId Lo = RB.newResult(W, KBound);
    RB.emit(OpKind::MulLow, {Lo}, Ops);
    RB.bind(S.Results[1], Lo);
    if (RB.useCount(S.Results[0]) > 0)
      RB.bindConst(S.Results[0], Bignum(0));
    else
      RB.bind(S.Results[0], Lo); // never read; any valid id will do
    ++RB.Changes;
    return true;
  }
  case OpKind::Shr:
    // Shifts past the significant bits: the non-power-of-two workhorse.
    if (RB.known(Ops[0]) > S.Amount)
      return false;
    RB.bindConst(S.Results[0], Bignum(0));
    ++RB.Changes;
    return true;
  default:
    return false;
  }
}

//===----------------------------------------------------------------------===//
// CopyPropPass
//===----------------------------------------------------------------------===//

bool CopyPropPass::tryRewrite(KernelRebuilder &RB, const Stmt &S,
                              const std::vector<ValueId> &Ops,
                              const std::vector<const Bignum *> &CV,
                              bool AllConst) {
  (void)CV;
  (void)AllConst;
  if (S.Kind == OpKind::Copy) {
    RB.bind(S.Results[0], Ops[0]);
    ++RB.Changes;
    return true;
  }
  if (S.Kind == OpKind::Zext &&
      RB.widthOf(Ops[0]) == RB.oldKernel().value(S.Results[0]).Bits) {
    RB.bind(S.Results[0], Ops[0]);
    ++RB.Changes;
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// DcePass
//===----------------------------------------------------------------------===//

PassResult DcePass::run(Kernel &K, AnalysisCache &AC) {
  (void)AC;
  std::vector<bool> Live(K.numValues(), false);
  for (const Param &P : K.outputs())
    Live[P.Id] = true;
  std::vector<bool> Keep(K.Body.size(), false);
  for (size_t I = K.Body.size(); I-- > 0;) {
    const Stmt &S = K.Body[I];
    bool AnyLive = false;
    for (ValueId R : S.Results)
      AnyLive |= Live[R];
    if (!AnyLive)
      continue;
    Keep[I] = true;
    for (ValueId Op : S.Operands)
      Live[Op] = true;
  }
  // Decide before moving anything: a no-op DCE must leave K untouched.
  if (std::find(Keep.begin(), Keep.end(), false) == Keep.end())
    return {};
  PassResult R;
  std::vector<Stmt> NewBody;
  NewBody.reserve(K.Body.size());
  for (size_t I = 0; I < K.Body.size(); ++I) {
    if (Keep[I])
      NewBody.push_back(std::move(K.Body[I]));
    else
      ++R.Removed;
  }
  K.Body = std::move(NewBody);
  return R;
}

//===----------------------------------------------------------------------===//
// CsePass
//===----------------------------------------------------------------------===//

/// Whether swapping the first two operands of \p Kind preserves semantics.
static bool commutativeInFirstTwo(OpKind Kind) {
  switch (Kind) {
  case OpKind::Add: // a + b (+ cin): the addends commute
  case OpKind::Mul:
  case OpKind::MulLow:
  case OpKind::And:
  case OpKind::Or:
  case OpKind::Xor:
  case OpKind::Eq:
  case OpKind::AddMod: // a + b mod q
  case OpKind::MulMod: // a * b mod q
    return true;
  default:
    return false;
  }
}

void CsePass::begin(KernelRebuilder &RB) {
  (void)RB;
  Table.clear();
}

CsePass::Key CsePass::makeKey(const Kernel &ValueCtx, const Stmt &S,
                              const std::vector<ValueId> &Ops) const {
  Key K;
  K.reserve(4 + S.Results.size() + Ops.size());
  K.push_back(static_cast<std::uint64_t>(S.Kind));
  K.push_back(S.Amount);
  K.push_back(S.ModBits);
  K.push_back(S.Results.size());
  for (ValueId R : S.Results)
    K.push_back(ValueCtx.value(R).Bits);
  std::uint64_t A = Ops.empty() ? 0 : Ops[0];
  std::uint64_t B = Ops.size() > 1 ? Ops[1] : 0;
  if (Ops.size() > 1 && commutativeInFirstTwo(S.Kind) && B < A)
    std::swap(A, B); // canonical order for the key only
  if (!Ops.empty())
    K.push_back(A);
  if (Ops.size() > 1)
    K.push_back(B);
  for (size_t I = 2; I < Ops.size(); ++I)
    K.push_back(Ops[I]);
  return K;
}

bool CsePass::tryRewrite(KernelRebuilder &RB, const Stmt &S,
                         const std::vector<ValueId> &Ops,
                         const std::vector<const Bignum *> &CV,
                         bool AllConst) {
  (void)CV;
  (void)AllConst;
  auto It = Table.find(makeKey(RB.oldKernel(), S, Ops));
  if (It == Table.end())
    return false;
  // Same opcode, same (canonicalized) operands, same result shape: every
  // statement in this IR is pure, so rebind to the first occurrence.
  for (size_t I = 0; I < S.Results.size(); ++I)
    RB.bind(S.Results[I], It->second[I]);
  ++RB.Changes;
  return true;
}

void CsePass::observeDefault(KernelRebuilder &RB, const Stmt &OldS,
                             const Stmt &NewS) {
  (void)OldS;
  Table.emplace(makeKey(RB.newKernel(), NewS, NewS.Operands), NewS.Results);
}

//===----------------------------------------------------------------------===//
// DeadPortEliminationPass
//===----------------------------------------------------------------------===//

PassResult DeadPortEliminationPass::run(Kernel &K, AnalysisCache &AC) {
  LoweredKernel *L = AC.lowered();
  if (!L)
    return {};
  const std::vector<unsigned> &Uses = AC.useCounts(K);
  PassResult R;
  for (LoweredPort &P : L->Inputs) {
    if (P.IsDead.size() != P.Words.size())
      P.IsDead.assign(P.Words.size(), false);
    for (size_t I = 0; I < P.Words.size(); ++I) {
      if (P.IsDead[I] || P.IsConstZero[I])
        continue;
      ValueId W = P.Words[I];
      if (static_cast<size_t>(W) < Uses.size() && Uses[W] == 0) {
        P.IsDead[I] = true;
        ++R.Removed; // only newly-marked words count, so reruns converge
      }
    }
  }
  return R;
}

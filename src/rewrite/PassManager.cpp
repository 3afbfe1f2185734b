//===- rewrite/PassManager.cpp - Composable IR pass pipeline --------------===//

#include "rewrite/PassManager.h"

#include "rewrite/Passes.h"
#include "rewrite/Stats.h"
#include "support/Error.h"
#include "support/Format.h"

#include <algorithm>
#include <cstdio>

using namespace moma;
using namespace moma::ir;
using namespace moma::rewrite;
using mw::Bignum;

//===----------------------------------------------------------------------===//
// AnalysisCache
//===----------------------------------------------------------------------===//

const std::vector<unsigned> &AnalysisCache::useCounts(const Kernel &K) {
  if (!UseCountsValid) {
    UseCounts.assign(K.numValues(), 0);
    for (const Stmt &S : K.Body)
      for (ValueId Op : S.Operands)
        ++UseCounts[Op];
    for (const Param &P : K.outputs())
      ++UseCounts[P.Id];
    UseCountsValid = true;
  }
  return UseCounts;
}

//===----------------------------------------------------------------------===//
// KernelRebuilder
//===----------------------------------------------------------------------===//

KernelRebuilder::KernelRebuilder(const Kernel &Old)
    : Old(Old), Subst(Old.numValues()), UseCount(Old.numValues(), 0) {
  for (const Stmt &S : Old.Body)
    for (ValueId Op : S.Operands)
      ++UseCount[Op];
  for (const Param &P : Old.outputs())
    ++UseCount[P.Id];
  ConstVals.reserve(Old.numValues());
  HasConst.reserve(Old.numValues());
  SmallConstCache.reserve(64);
}

const Bignum *KernelRebuilder::constOf(ValueId NewId) const {
  if (static_cast<size_t>(NewId) >= HasConst.size() || !HasConst[NewId])
    return nullptr;
  return &ConstVals[NewId];
}

bool KernelRebuilder::isZero(ValueId NewId) const {
  const Bignum *C = constOf(NewId);
  return C && C->isZero();
}

bool KernelRebuilder::isOne(ValueId NewId) const {
  const Bignum *C = constOf(NewId);
  return C && C->isOne();
}

ValueId KernelRebuilder::emitConst(unsigned Bits, const Bignum &V) {
  if (V.bitWidth() <= 64) {
    auto It = SmallConstCache.find({Bits, V.low64()});
    if (It != SmallConstCache.end())
      return It->second;
  }
  // Copy first: \p V may alias ConstVals (passes hand constOf() results
  // straight back in), which the resize below would invalidate.
  Bignum Val = V;
  bool Small = Val.bitWidth() <= 64;
  std::uint64_t Low = Small ? Val.low64() : 0;
  ValueId Id = NK.newValue(Bits, "", std::max(1u, Val.bitWidth()));
  Stmt S;
  S.Kind = OpKind::Const;
  S.Results = {Id};
  S.Literal = Val;
  NK.Body.push_back(std::move(S));
  if (static_cast<size_t>(Id) >= HasConst.size()) {
    ConstVals.resize(Id + 1);
    HasConst.resize(Id + 1, false);
  }
  ConstVals[Id] = std::move(Val);
  HasConst[Id] = true;
  if (Small)
    SmallConstCache[{Bits, Low}] = Id;
  return Id;
}

ValueId KernelRebuilder::newResult(unsigned Bits, unsigned Known) {
  return NK.newValue(Bits, "", std::min(Bits, std::max(1u, Known)));
}

Stmt &KernelRebuilder::emit(OpKind Kind, std::vector<ValueId> Results,
                            std::vector<ValueId> Operands) {
  Stmt S;
  S.Kind = Kind;
  S.Results = std::move(Results);
  S.Operands = std::move(Operands);
  NK.Body.push_back(std::move(S));
  return NK.Body.back();
}

Stmt &KernelRebuilder::emitDefault(const Stmt &S,
                                   const std::vector<ValueId> &Ops) {
  auto ResultBits = [&](unsigned I) { return Old.value(S.Results[I]).Bits; };
  // The recomputed KnownBits never loosens past what was already proved
  // for the old result. For the formulas below this is a no-op (they are
  // monotone in the operand bounds, which only tighten), but it keeps the
  // range pass's interval-derived tightenings sticky across later sweeps
  // instead of re-proving them forever.
  auto Clamp = [&](unsigned I, unsigned Formula) {
    return std::min(Formula, std::max(1u, Old.value(S.Results[I]).KnownBits));
  };

  switch (S.Kind) {
  case OpKind::Const:
    moma_unreachable("Const is interned by the rebuild walk");
  case OpKind::Copy: {
    ValueId R = newResult(ResultBits(0), Clamp(0, known(Ops[0])));
    Stmt &NS = emit(OpKind::Copy, {R}, {Ops[0]});
    bind(S.Results[0], R);
    return NS;
  }
  case OpKind::Zext: {
    ValueId R = newResult(ResultBits(0), Clamp(0, known(Ops[0])));
    Stmt &NS = emit(OpKind::Zext, {R}, {Ops[0]});
    bind(S.Results[0], R);
    return NS;
  }
  case OpKind::Add: {
    unsigned W = ResultBits(1);
    unsigned Bound = std::max(known(Ops[0]), known(Ops[1])) + 1;
    ValueId Carry = NK.newValue(1);
    ValueId Sum = newResult(W, Clamp(1, std::min(W, Bound)));
    Stmt &NS = emit(OpKind::Add, {Carry, Sum}, Ops);
    bind(S.Results[0], Carry);
    bind(S.Results[1], Sum);
    return NS;
  }
  case OpKind::Sub: {
    unsigned W = ResultBits(1);
    ValueId Borrow = NK.newValue(1);
    ValueId Diff = newResult(W, Clamp(1, W));
    Stmt &NS = emit(OpKind::Sub, {Borrow, Diff}, Ops);
    bind(S.Results[0], Borrow);
    bind(S.Results[1], Diff);
    return NS;
  }
  case OpKind::Mul: {
    unsigned W = ResultBits(1);
    unsigned KBound = known(Ops[0]) + known(Ops[1]);
    ValueId Hi =
        newResult(W, Clamp(0, KBound > W ? std::min(W, KBound - W) : 1));
    ValueId Lo = newResult(W, Clamp(1, W));
    Stmt &NS = emit(OpKind::Mul, {Hi, Lo}, Ops);
    bind(S.Results[0], Hi);
    bind(S.Results[1], Lo);
    return NS;
  }
  case OpKind::MulLow: {
    unsigned W = ResultBits(0);
    ValueId R = newResult(W, Clamp(0, known(Ops[0]) + known(Ops[1])));
    Stmt &NS = emit(OpKind::MulLow, {R}, Ops);
    bind(S.Results[0], R);
    return NS;
  }
  case OpKind::AddMod:
  case OpKind::SubMod: {
    ValueId R = newResult(ResultBits(0), Clamp(0, known(Ops[2])));
    Stmt &NS = emit(S.Kind, {R}, Ops);
    bind(S.Results[0], R);
    return NS;
  }
  case OpKind::MulMod: {
    ValueId R = newResult(ResultBits(0), Clamp(0, known(Ops[2])));
    Stmt &NS = emit(OpKind::MulMod, {R}, Ops);
    NS.ModBits = S.ModBits;
    bind(S.Results[0], R);
    return NS;
  }
  case OpKind::Lt:
  case OpKind::Eq:
  case OpKind::Not: {
    ValueId R = NK.newValue(1);
    Stmt &NS = emit(S.Kind, {R}, Ops);
    bind(S.Results[0], R);
    return NS;
  }
  case OpKind::And: {
    ValueId R = newResult(ResultBits(0),
                          Clamp(0, std::min(known(Ops[0]), known(Ops[1]))));
    Stmt &NS = emit(OpKind::And, {R}, Ops);
    bind(S.Results[0], R);
    return NS;
  }
  case OpKind::Or:
  case OpKind::Xor: {
    ValueId R = newResult(ResultBits(0),
                          Clamp(0, std::max(known(Ops[0]), known(Ops[1]))));
    Stmt &NS = emit(S.Kind, {R}, Ops);
    bind(S.Results[0], R);
    return NS;
  }
  case OpKind::Shl: {
    unsigned W = ResultBits(0);
    ValueId R = newResult(W, Clamp(0, std::min(W, known(Ops[0]) + S.Amount)));
    Stmt &NS = emit(OpKind::Shl, {R}, Ops);
    NS.Amount = S.Amount;
    bind(S.Results[0], R);
    return NS;
  }
  case OpKind::Shr: {
    unsigned W = ResultBits(0);
    unsigned K = known(Ops[0]);
    ValueId R = newResult(W, Clamp(0, K > S.Amount ? K - S.Amount : 1));
    Stmt &NS = emit(OpKind::Shr, {R}, Ops);
    NS.Amount = S.Amount;
    bind(S.Results[0], R);
    return NS;
  }
  case OpKind::Select: {
    ValueId R = newResult(ResultBits(0),
                          Clamp(0, std::max(known(Ops[1]), known(Ops[2]))));
    Stmt &NS = emit(OpKind::Select, {R}, Ops);
    bind(S.Results[0], R);
    return NS;
  }
  case OpKind::Split: {
    unsigned HalfW = ResultBits(0);
    unsigned K = known(Ops[0]);
    ValueId Hi = newResult(HalfW, Clamp(0, K > HalfW ? K - HalfW : 1));
    ValueId Lo = newResult(HalfW, Clamp(1, std::min(K, HalfW)));
    Stmt &NS = emit(OpKind::Split, {Hi, Lo}, Ops);
    bind(S.Results[0], Hi);
    bind(S.Results[1], Lo);
    return NS;
  }
  case OpKind::Concat: {
    unsigned HalfW = widthOf(Ops[1]);
    ValueId R = newResult(ResultBits(0),
                          Clamp(0, isZero(Ops[0]) ? known(Ops[1])
                                                  : HalfW + known(Ops[0])));
    Stmt &NS = emit(OpKind::Concat, {R}, Ops);
    bind(S.Results[0], R);
    return NS;
  }
  }
  moma_unreachable("unhandled opcode in emitDefault");
}

PassResult KernelRebuilder::rebuild(Kernel &K, const RewriteHook &Hook,
                                    const EmitObserver &Observer) {
  NK.Name = Old.Name;
  for (const Param &P : Old.inputs()) {
    const ValueInfo &V = Old.value(P.Id);
    ValueId NewId = NK.newValue(V.Bits, V.Name, V.KnownBits);
    NK.addInput(NewId, P.Name);
    bind(P.Id, NewId);
  }

  std::vector<ValueId> Ops;
  std::vector<const Bignum *> CV;
  for (const Stmt &S : Old.Body) {
    Ops.clear();
    CV.clear();
    bool AllConst = true;
    for (ValueId Id : S.Operands) {
      Ops.push_back(Subst[Id]);
      CV.push_back(constOf(Ops.back()));
      AllConst &= CV.back() != nullptr;
    }
    if (S.Kind == OpKind::Const) {
      bindConst(S.Results[0], S.Literal);
      continue;
    }
    if (Hook && Hook(S, Ops, CV, AllConst))
      continue;
    Stmt &NS = emitDefault(S, Ops);
    if (Observer)
      Observer(S, NS);
  }

  for (const Param &P : Old.outputs())
    NK.addOutput(Subst[P.Id], P.Name);

  // A walk that found nothing (and did not even merge constants) is
  // discarded so the caller's value ids stay stable at the fixpoint.
  if (Changes == 0 && NK.Body.size() == Old.Body.size())
    return {};

  PassResult R;
  R.Changes = Changes;
  R.Subst = std::move(Subst);
  K = std::move(NK);
  return R;
}

//===----------------------------------------------------------------------===//
// RebuildPass
//===----------------------------------------------------------------------===//

PassResult RebuildPass::run(Kernel &K, AnalysisCache &AC) {
  CurAC = &AC;
  KernelRebuilder RB(K);
  begin(RB);
  return RB.rebuild(
      K,
      [this, &RB](const Stmt &S, const std::vector<ValueId> &Ops,
                  const std::vector<const Bignum *> &CV, bool AllConst) {
        return tryRewrite(RB, S, Ops, CV, AllConst);
      },
      [this, &RB](const Stmt &OldS, const Stmt &NewS) {
        observeDefault(RB, OldS, NewS);
      });
}

//===----------------------------------------------------------------------===//
// PipelineStats
//===----------------------------------------------------------------------===//

const PassStats *PipelineStats::pass(const std::string &Name) const {
  for (const PassStats &P : PerPass)
    if (P.Name == Name)
      return &P;
  return nullptr;
}

std::string PipelineStats::report() const {
  std::string Out;
  for (const PassStats &P : PerPass)
    Out += formatv("  %-10s runs=%-3u changes=%-5u removed=%-5u "
                   "stmts=%+-5d mul=%+-4d addsub=%+d\n",
                   P.Name.c_str(), P.Runs, P.Changes, P.Removed, P.StmtDelta,
                   P.MulDelta, P.AddSubDelta);
  Out += formatv("  iterations=%u converged=%s\n", Iterations,
                 Converged ? "yes" : "no");
  return Out;
}

//===----------------------------------------------------------------------===//
// PassPipeline
//===----------------------------------------------------------------------===//

PipelineStats PassPipeline::initStats() const {
  PipelineStats S;
  S.PerPass.resize(Passes.size());
  for (size_t I = 0; I < Passes.size(); ++I)
    S.PerPass[I].Name = Passes[I]->name();
  return S;
}

static void accumulateStats(PipelineStats &Total, const PipelineStats &Iter) {
  for (size_t I = 0; I < Total.PerPass.size(); ++I) {
    PassStats &T = Total.PerPass[I];
    const PassStats &S = Iter.PerPass[I];
    T.Runs += S.Runs;
    T.Changes += S.Changes;
    T.Removed += S.Removed;
    T.StmtDelta += S.StmtDelta;
    T.MulDelta += S.MulDelta;
    T.AddSubDelta += S.AddSubDelta;
  }
}

unsigned PassPipeline::sweep(Kernel &K, AnalysisCache &AC,
                             PipelineStats &Stats) {
  unsigned Work = 0;
  for (size_t I = 0; I < Passes.size(); ++I) {
    PassStats &PS = Stats.PerPass[I];
    size_t StmtsBefore = K.Body.size();
    OpStats Before = countOps(K);
    PassResult R = Passes[I]->run(K, AC);
    ++PS.Runs;
    PS.Changes += R.Changes;
    PS.Removed += R.Removed;
    OpStats After = countOps(K);
    PS.StmtDelta += static_cast<int>(K.Body.size()) -
                    static_cast<int>(StmtsBefore);
    PS.MulDelta += static_cast<int>(After.multiplies()) -
                   static_cast<int>(Before.multiplies());
    PS.AddSubDelta += static_cast<int>(After.addSubs()) -
                      static_cast<int>(Before.addSubs());
    Work += R.Changes + R.Removed;
    if (!R.Subst.empty()) {
      AC.invalidate();
      if (LoweredKernel *L = AC.lowered()) {
        auto Remap = [&](std::vector<LoweredPort> &Ports) {
          for (LoweredPort &P : Ports)
            for (ValueId &W : P.Words)
              W = R.Subst[W];
        };
        Remap(L->Inputs);
        Remap(L->Outputs);
        for (auto &BP : L->WordBounds)
          BP.first = R.Subst[BP.first];
      }
    } else if (R.Changes || R.Removed) {
      AC.invalidate();
    }
  }
  return Work;
}

static PipelineStats runPipeline(PassPipeline &P, Kernel &K,
                                 AnalysisCache &AC, unsigned MaxIters,
                                 PipelineStats Total) {
  PipelineStats Last;
  for (unsigned I = 0; I < MaxIters; ++I) {
    PipelineStats Iter = P.initStats();
    size_t Before = K.Body.size();
    unsigned Work = P.sweep(K, AC, Iter);
    accumulateStats(Total, Iter);
    ++Total.Iterations;
    Last = std::move(Iter);
    if (Work == 0 && K.Body.size() == Before)
      return Total;
  }
  // Satellite of ISSUE 6: the silent MaxIters cap used to hide
  // non-converging rule interactions; name the kernel and show what the
  // last sweep kept doing.
  Total.Converged = false;
  std::fprintf(stderr,
               "moma: simplify pipeline did not converge on kernel '%s' "
               "after %u iterations; last sweep:\n%s",
               K.Name.c_str(), MaxIters, Last.report().c_str());
  return Total;
}

PipelineStats PassPipeline::run(Kernel &K, unsigned MaxIters) {
  AnalysisCache AC;
  return runPipeline(*this, K, AC, MaxIters, initStats());
}

PipelineStats PassPipeline::runLowered(LoweredKernel &L, unsigned MaxIters) {
  AnalysisCache AC(&L);
  return runPipeline(*this, L.K, AC, MaxIters, initStats());
}

//===----------------------------------------------------------------------===//
// The pruning pipeline
//===----------------------------------------------------------------------===//

PassPipeline moma::rewrite::pruningPipeline() {
  PassPipeline P;
  P.add(std::make_unique<ConstFoldPass>())
      .add(std::make_unique<AlgebraicIdentitiesPass>())
      .add(std::make_unique<RangeAnalysisPass>())
      .add(std::make_unique<CsePass>())
      .add(std::make_unique<CopyPropPass>())
      .add(std::make_unique<DcePass>())
      .add(std::make_unique<DeadPortEliminationPass>());
  return P;
}

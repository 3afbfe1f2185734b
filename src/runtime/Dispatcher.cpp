//===- runtime/Dispatcher.cpp - Batched kernel dispatch -------------------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "runtime/Dispatcher.h"

#include "field/RootOfUnity.h"
#include "runtime/Backend.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>

using namespace moma;
using namespace moma::runtime;
using mw::Bignum;

std::vector<std::uint64_t>
moma::runtime::packBatch(const std::vector<Bignum> &Elems,
                         unsigned ElemWords) {
  std::vector<std::uint64_t> Out;
  Out.reserve(Elems.size() * ElemWords);
  for (const Bignum &E : Elems) {
    auto W = packWordsMsbFirst(E, ElemWords);
    Out.insert(Out.end(), W.begin(), W.end());
  }
  return Out;
}

std::vector<Bignum>
moma::runtime::unpackBatch(const std::vector<std::uint64_t> &Words,
                           unsigned ElemWords) {
  assert(Words.size() % ElemWords == 0 && "ragged batch");
  std::vector<Bignum> Out;
  Out.reserve(Words.size() / ElemWords);
  for (size_t I = 0; I < Words.size(); I += ElemWords)
    Out.push_back(unpackWordsMsbFirst(Words.data() + I, ElemWords));
  return Out;
}

namespace {

/// Evicts least-recently-used entries (by their LastUse stamp) while
/// \p Over() holds and more than one entry remains, handing each victim
/// to \p Erasing just before it goes and bumping \p Evictions. The
/// freshest entry always survives, so a pointer to the entry just
/// inserted stays valid.
template <typename Map, typename OverFn, typename ErasingFn>
void evictLru(Map &M, std::uint64_t &Evictions, OverFn Over,
              ErasingFn Erasing) {
  while (M.size() > 1 && Over()) {
    auto Victim = M.begin();
    for (auto It = M.begin(); It != M.end(); ++It)
      if (It->second.LastUse < Victim->second.LastUse)
        Victim = It;
    Erasing(Victim->second);
    M.erase(Victim);
    ++Evictions;
  }
}

} // namespace

const char *moma::runtime::dispatchErrorCodeName(DispatchErrorCode C) {
  switch (C) {
  case DispatchErrorCode::Ok:
    return "ok";
  case DispatchErrorCode::InvalidArgument:
    return "invalid-argument";
  case DispatchErrorCode::PlanUnavailable:
    return "plan-unavailable";
  case DispatchErrorCode::BackendFailed:
    return "backend-failed";
  }
  return "unknown";
}

Dispatcher::Dispatcher(KernelRegistry &Reg, Autotuner *Tuner,
                       rewrite::PlanOptions Base)
    : Reg(Reg), Tuner(Tuner), Base(Base) {}

Dispatcher::Scratch &Dispatcher::acquireScratch() {
  std::lock_guard<std::mutex> L(ScratchMu);
  for (auto &S : ScratchPool)
    if (!S->InUse) {
      S->InUse = true;
      return *S;
    }
  ScratchPool.push_back(std::make_unique<Scratch>());
  ScratchPool.back()->InUse = true;
  return *ScratchPool.back();
}

void Dispatcher::releaseScratch(Scratch &S) {
  std::lock_guard<std::mutex> L(ScratchMu);
  S.InUse = false;
}

Dispatcher::CacheCounters Dispatcher::cacheCounters() const {
  CacheCounters C = Evictions;
  C.BoundEntries = Bound.size();
  C.TableEntries = NttCtx.size();
  C.TableBytes = TableBytes;
  return C;
}

void Dispatcher::setCacheCaps(size_t MaxBoundPlans, size_t MaxTableSetBytes) {
  MaxBound = std::max<size_t>(1, MaxBoundPlans);
  MaxTableBytes = MaxTableSetBytes;
  trimBound();
  trimTables();
}

void Dispatcher::trimBound() {
  evictLru(
      Bound, Evictions.BoundEvictions,
      [&] { return Bound.size() > MaxBound; }, [](const BoundPlan &) {});
}

void Dispatcher::trimTables() {
  evictLru(
      NttCtx, Evictions.TableEvictions,
      [&] { return TableBytes > MaxTableBytes; },
      [&](const TablesEntry &E) { TableBytes -= E.T.bytes(); });
}

Dispatcher::BoundPlan *Dispatcher::bind(KernelOp Op, const Bignum &Q,
                                        size_t SizeHint) {
  rewrite::PlanOptions Opts = Base;
  if (Tuner) {
    if (!Q.isOdd())
      return fail("Dispatcher: modulus must be odd",
                  DispatchErrorCode::InvalidArgument),
             nullptr;
    const TuneDecision *D = Tuner->choose(Op, Q, Base, SizeHint);
    if (!D) {
      // First ladder rung: a tuner that cannot time candidates (injected
      // fault, compiler trouble) degrades the request to the base plan
      // instead of failing it — bindPlan below still has the interpreter
      // rung if even the base variant cannot compile.
      DC.TunerFallbacks.fetch_add(1, std::memory_order_relaxed);
      Opts = Base;
    } else {
      Opts = D->Opts;
    }
  }
  return bindPlan(Op, Q, Opts);
}

Dispatcher::BoundPlan *Dispatcher::bindPlan(KernelOp Op, const Bignum &Q,
                                            const rewrite::PlanOptions
                                                &Opts,
                                            unsigned WideWords) {
  // The documented contract: odd moduli only (Montgomery candidates need
  // -q^-1 mod 2^lambda; every NTT-friendly prime is odd anyway). Checked
  // here so all entry points fail with error() instead of aborting inside
  // the constant computation.
  if (!Q.isOdd())
    return fail("Dispatcher: modulus must be odd",
                DispatchErrorCode::InvalidArgument),
           nullptr;
  PlanKey Key = PlanKey::forRns(Op, Q, WideWords, Opts);
  // The binding cache is keyed by the full canonical variant string, so
  // differently-tuned variants of one problem (e.g. vector for small
  // batches, sim-GPU for large) coexist without rebinding churn; folded
  // knobs never split entries because str() is canonical.
  std::string CacheKey = Key.str() + "#" + Q.toHex();
  auto It = Bound.find(CacheKey);
  if (It != Bound.end()) {
    It->second.LastUse = ++UseTick;
    if (It->second.Degraded) {
      // Every dispatch through a degraded binding polls the registry for
      // a promotion: tryPromote is non-blocking (a compiled plan if one
      // landed, else it enqueues a background probe), so the steady-state
      // cost of staying degraded is one cache lookup per dispatch and the
      // binding snaps back to JIT code the moment a probe succeeds.
      if (std::shared_ptr<const CompiledPlan> P =
              Reg.tryPromote(It->second.JitKey)) {
        BoundPlan &BP = It->second;
        BP.Plan = std::move(P);
        BP.Aux = makePlanAux(*BP.Plan, Q);
        BP.AuxPtrs = BP.Aux.ptrs();
        BP.Degraded = false;
        DC.Promotions.fetch_add(1, std::memory_order_relaxed);
      } else {
        DC.FallbackDispatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
    LastOpts = It->second.Plan->Key.Opts;
    return &It->second;
  }
  std::shared_ptr<const CompiledPlan> Plan = Reg.get(Key);
  bool Degraded = false;
  if (!Plan && Opts.Backend != rewrite::ExecBackend::Interp) {
    // Terminal ladder rung: the requested variant cannot be built (the
    // registry already spent its retry budget), so serve the same kernel
    // through the interpreter backend — zero compilation, bit-identical
    // results — and remember the key we really wanted for promotion.
    std::string JitError = Reg.error();
    rewrite::PlanOptions FOpts = Opts;
    FOpts.Backend = rewrite::ExecBackend::Interp; // PlanKey folds BlockDim
    PlanKey FKey = PlanKey::forRns(Op, Q, WideWords, FOpts);
    Plan = Reg.get(FKey);
    if (!Plan)
      return fail("Dispatcher: " + JitError +
                      "; interp fallback also failed: " + Reg.error(),
                  DispatchErrorCode::PlanUnavailable),
             nullptr;
    Degraded = true;
    DC.FallbackBinds.fetch_add(1, std::memory_order_relaxed);
    DC.FallbackDispatches.fetch_add(1, std::memory_order_relaxed);
  }
  if (!Plan)
    return fail("Dispatcher: " + Reg.error(),
                DispatchErrorCode::PlanUnavailable),
           nullptr;
  BoundPlan BP;
  BP.Plan = std::move(Plan);
  BP.Aux = makePlanAux(*BP.Plan, Q);
  BP.AuxPtrs = BP.Aux.ptrs();
  BP.LastUse = ++UseTick;
  BP.Degraded = Degraded;
  BP.JitKey = Key;
  LastOpts = BP.Plan->Key.Opts;
  auto Ins = Bound.insert_or_assign(CacheKey, std::move(BP));
  // The freshest stamp is the entry just inserted, so LRU eviction never
  // invalidates the pointer handed back here.
  trimBound();
  return &Ins.first->second;
}

bool Dispatcher::launch(const BoundPlan &BP, BatchArgs Args, size_t N) {
  Args.Aux = BP.AuxPtrs;
  ++DStats.Batches;
  return Reg.backendFor(BP.Plan->Key)
      .runBatch(*BP.Plan, Args, N, /*Rows=*/1, &LastError);
}

bool Dispatcher::runElementwise(KernelOp Op, const Bignum &Q,
                                const std::uint64_t *A,
                                const std::uint64_t *B, std::uint64_t *C,
                                size_t N) {
  clearError();
  BoundPlan *BP = bind(Op, Q, N);
  return BP && launch(*BP, {{C}, {A, B}, {}, {}}, N);
}

bool Dispatcher::vadd(const Bignum &Q, const std::uint64_t *A,
                      const std::uint64_t *B, std::uint64_t *C, size_t N) {
  return runElementwise(KernelOp::AddMod, Q, A, B, C, N);
}

bool Dispatcher::vsub(const Bignum &Q, const std::uint64_t *A,
                      const std::uint64_t *B, std::uint64_t *C, size_t N) {
  return runElementwise(KernelOp::SubMod, Q, A, B, C, N);
}

bool Dispatcher::vmul(const Bignum &Q, const std::uint64_t *A,
                      const std::uint64_t *B, std::uint64_t *C, size_t N) {
  return runElementwise(KernelOp::MulMod, Q, A, B, C, N);
}

bool Dispatcher::axpy(const Bignum &Q, const std::uint64_t *AScalar,
                      const std::uint64_t *X, std::uint64_t *Y, size_t N) {
  clearError();
  BoundPlan *BP = bind(KernelOp::Axpy, Q, N);
  if (!BP)
    return false;
  // yo aliases y: inputs load before the store.
  const size_t EW = BP->Plan->ElemWords;
  return launch(*BP, {{Y}, {AScalar, X, Y}, {0, EW, EW}, {}}, N);
}

const NttTables *Dispatcher::tables(const Bignum &Q, size_t NPoints,
                                    rewrite::NttRing Ring) {
  std::string Key = Q.toHex() + ":" + std::to_string(NPoints) + ":" +
                    rewrite::nttRingName(Ring);
  auto It = NttCtx.find(Key);
  if (It != NttCtx.end()) {
    It->second.LastUse = ++UseTick;
    return &It->second.T;
  }
  TablesEntry E;
  std::string Err;
  if (!buildNttTables(Q, NPoints, E.T, &Err, Ring))
    return fail("Dispatcher: " + Err, DispatchErrorCode::InvalidArgument),
           nullptr;
  E.LastUse = ++UseTick;
  TableBytes += E.T.bytes();
  auto Ins = NttCtx.emplace(std::move(Key), std::move(E));
  trimTables();
  return &Ins.first->second.T;
}

bool Dispatcher::transform(const Bignum &Q, std::uint64_t *Data,
                           size_t NPoints, size_t Batch, bool Inverse,
                           rewrite::NttRing Ring) {
  // Shape checks up front so the autotuner never times a malformed
  // transform and every entry point fails with error() set.
  if (NPoints < 2 || (NPoints & (NPoints - 1)) != 0)
    return fail("Dispatcher: NTT size must be a power of two >= 2",
                DispatchErrorCode::InvalidArgument);
  unsigned LogN = 0;
  while ((size_t(1) << LogN) < NPoints)
    ++LogN;
  unsigned NeedAdicity =
      LogN + (Ring == rewrite::NttRing::Negacyclic ? 1 : 0);
  if (field::twoAdicity(Q) < NeedAdicity)
    return fail(formatv("Dispatcher: modulus 2-adicity %u < %u required "
                        "for a %s %zu-point transform",
                        field::twoAdicity(Q), NeedAdicity,
                        rewrite::nttRingName(Ring), NPoints),
                DispatchErrorCode::InvalidArgument);

  // The transform-shaped tuning decision (backend x geometry x FuseDepth,
  // per size bucket and ring): the tuner times real fused stage-group
  // walks — with the ψ edge folds in place for negacyclic requests — so
  // the winning depth is measured, not guessed. The entry-point ring
  // overrides whatever the base plan carries.
  rewrite::PlanOptions BaseR = Base;
  BaseR.Ring = Ring;
  rewrite::PlanOptions Opts = BaseR;
  if (Tuner) {
    if (!Q.isOdd())
      return fail("Dispatcher: modulus must be odd",
                  DispatchErrorCode::InvalidArgument);
    const TuneDecision *D = Tuner->chooseNtt(Q, BaseR, NPoints, Batch);
    if (!D) {
      // Same first-rung degradation as bind(): an unusable tuner costs
      // the tuned variant, never the transform.
      DC.TunerFallbacks.fetch_add(1, std::memory_order_relaxed);
      Opts = BaseR;
    } else {
      Opts = D->Opts;
      Opts.Ring = Ring; // the ring is semantic, never a tuning outcome
    }
  }
  BoundPlan *BP = bindPlan(KernelOp::Butterfly, Q, Opts);
  if (!BP)
    return false;
  const CompiledPlan &P = *BP->Plan;
  // One table set per (q, n, ring) serves every butterfly plan, forward
  // and inverse.
  const NttTables *T = tables(Q, NPoints, Ring);
  if (!T)
    return false;

  ScratchLease SL(*this);
  std::uint64_t *PingPong = nullptr;
  if (planStageGroups(T->LogN, P.Key.Opts.FuseDepth).size() > 1) {
    size_t Need = NPoints * Batch * P.ElemWords;
    if (SL->Ntt.size() < Need)
      SL->Ntt.resize(Need); // grow-only: steady state allocates nothing
    PingPong = SL->Ntt.data();
  }
  ExecutionBackend &EB = Reg.backendFor(P.Key);
  if (!runTransform(EB, P, *T, BP->AuxPtrs, Data, PingPong, NPoints, Batch,
                    Inverse, &LastError, &DStats.StageGroups))
    return false;
  ++DStats.Transforms;
  return true;
}

bool Dispatcher::nttForward(const Bignum &Q, std::uint64_t *Data,
                            size_t NPoints, size_t Batch,
                            rewrite::NttRing Ring) {
  clearError();
  return transform(Q, Data, NPoints, Batch, /*Inverse=*/false, Ring);
}

bool Dispatcher::nttInverse(const Bignum &Q, std::uint64_t *Data,
                            size_t NPoints, size_t Batch,
                            rewrite::NttRing Ring) {
  clearError();
  return transform(Q, Data, NPoints, Batch, /*Inverse=*/true, Ring);
}

bool Dispatcher::polyMul(const Bignum &Q, const std::uint64_t *A,
                         const std::uint64_t *B, std::uint64_t *C,
                         size_t NPoints, size_t Batch,
                         rewrite::NttRing Ring) {
  clearError();
  unsigned K = elemWords(Q);
  size_t Total = NPoints * Batch * K;
  // A's transform runs directly in the output buffer (dead until the
  // point-wise product); only B needs a scratch copy — into a leased
  // pool buffer, so steady-state batched polyMul does zero heap
  // allocation and the nested NTT/vmul calls (which lease their own
  // entries) can never alias it. The ring rides the transforms' edge
  // folds, so a negacyclic product issues exactly the cyclic dispatch
  // sequence.
  if (C != A)
    std::copy(A, A + Total, C);
  ScratchLease SL(*this);
  if (SL->Poly.size() < Total)
    SL->Poly.resize(Total);
  std::copy(B, B + Total, SL->Poly.begin());
  if (!nttForward(Q, C, NPoints, Batch, Ring) ||
      !nttForward(Q, SL->Poly.data(), NPoints, Batch, Ring))
    return false;
  if (!vmul(Q, C, SL->Poly.data(), C, NPoints * Batch))
    return false;
  return nttInverse(Q, C, NPoints, Batch, Ring);
}

//===----------------------------------------------------------------------===//
// RNS multi-modulus serving
//===----------------------------------------------------------------------===//

bool Dispatcher::rnsDecompose(const RnsContext &Ctx, const std::uint64_t *A,
                              std::uint64_t *Residues, size_t N) {
  clearError();
  unsigned WW = Ctx.wideWords();
  // One generalized-Barrett dispatch per limb: the wide batch is read
  // with stride wideWords, the limb's residue column written densely.
  // Every limb shares the compiled rnsdec module (same widths, modulus
  // value excluded from the key) — only the (q, gmu) broadcast tail
  // differs per binding.
  for (size_t L = 0; L < Ctx.numLimbs(); ++L) {
    BoundPlan *BP = bindPlan(KernelOp::RnsDecompose, Ctx.limb(L), Base, WW);
    if (!BP || !launch(*BP, {{Residues + L * N}, {A}, {WW}, {}}, N))
      return false;
  }
  return true;
}

bool Dispatcher::rnsRecombine(const RnsContext &Ctx,
                              const std::uint64_t *Residues,
                              std::uint64_t *C, size_t N) {
  clearError();
  unsigned WW = Ctx.wideWords();
  // CRT reconstruction as L axpy-shaped dispatches over a zeroed
  // accumulator: yo = (W_l * r_l + y) mod M, the weight broadcast with
  // stride 0 and the accumulator aliasing the output (inputs load before
  // the store). One compiled rnsrec plan serves every limb — and every
  // base of the same wide shape.
  std::fill(C, C + size_t(WW) * N, 0);
  BoundPlan *BP = bindPlan(KernelOp::RnsRecombineStep, Ctx.modulus(), Base);
  if (!BP)
    return false;
  for (size_t L = 0; L < Ctx.numLimbs(); ++L) {
    const std::uint64_t *W = Ctx.weightWords(L).data();
    if (!launch(*BP, {{C}, {W, Residues + L * N, C}, {0, 1, WW}, {}}, N))
      return false;
  }
  return true;
}

bool Dispatcher::rnsPolyMul(const RnsContext &Ctx, const std::uint64_t *A,
                            const std::uint64_t *B, std::uint64_t *C,
                            size_t NPoints, size_t Batch,
                            rewrite::NttRing Ring) {
  clearError();
  // Thin wrapper over the tensor API: borrow pooled scratch as two
  // tensors (zero steady-state allocation), decompose both sides, run the
  // lazy product, and immediately demand coefficient form back — toWide
  // pays the deferred inverse transforms. Per limb: two forward NTTs, one
  // pointwise multiply, one inverse NTT, plus the decompose/recombine
  // edges; the exact-count probes in the RNS tests pin this sequence.
  size_t N = NPoints * Batch;
  size_t Total = Ctx.numLimbs() * N;
  ScratchLease SL(*this);
  if (SL->RnsA.size() < Total)
    SL->RnsA.resize(Total);
  if (SL->RnsB.size() < Total)
    SL->RnsB.resize(Total);
  RnsTensor TA =
      RnsTensor::borrow(Ctx, SL->RnsA.data(), NPoints, Batch, Ring);
  RnsTensor TB =
      RnsTensor::borrow(Ctx, SL->RnsB.data(), NPoints, Batch, Ring);
  if (!fromWide(A, TA) || !fromWide(B, TB))
    return false;
  if (!rnsPolyMul(TA, TB, TA))
    return false;
  return toWide(TA, C);
}

//===----------------------------------------------------------------------===//
// Residue-form handles: the lazy RNS surface
//===----------------------------------------------------------------------===//

bool Dispatcher::checkTensors(const char *Op, const RnsTensor &A,
                              const RnsTensor &B, const RnsTensor &C) {
  if (!A.valid() || !B.valid() || !C.valid())
    return fail(std::string("Dispatcher: ") + Op + " on an empty tensor",
                DispatchErrorCode::InvalidArgument);
  if (!A.congruent(B) || !A.congruent(C))
    return fail(std::string("Dispatcher: ") + Op +
                    " operands not congruent (same context identity, "
                    "shape, and ring required)",
                DispatchErrorCode::InvalidArgument);
  return true;
}

bool Dispatcher::fromWide(const std::uint64_t *A, RnsTensor &Out) {
  clearError();
  if (!Out.valid())
    return fail("Dispatcher: fromWide needs a shaped output tensor",
                DispatchErrorCode::InvalidArgument);
  if (!rnsDecompose(Out.context(), A, Out.data(), Out.count()))
    return false;
  Out.setDomain(RnsDomain::Coeff);
  return true;
}

bool Dispatcher::toWide(RnsTensor &T, std::uint64_t *C) {
  clearError();
  if (!T.valid())
    return fail("Dispatcher: toWide on an empty tensor",
                DispatchErrorCode::InvalidArgument);
  // Pay the deferred inverse transforms here — the single exit toll of a
  // lazy product chain.
  if (!rnsNttInverse(T))
    return false;
  return rnsRecombine(T.context(), T.data(), C, T.count());
}

bool Dispatcher::transformLimbs(RnsTensor &T, RnsDomain To) {
  if (T.domain() == To)
    return true;
  const RnsContext &Ctx = T.context();
  for (size_t L = 0; L < Ctx.numLimbs(); ++L)
    if (!transform(Ctx.limb(L), T.limbData(L), T.nPoints(), T.batch(),
                   /*Inverse=*/To == RnsDomain::Coeff, T.ring()))
      return false;
  T.setDomain(To);
  return true;
}

bool Dispatcher::rnsNttForward(RnsTensor &T) {
  clearError();
  if (!T.valid())
    return fail("Dispatcher: rnsNttForward on an empty tensor",
                DispatchErrorCode::InvalidArgument);
  return transformLimbs(T, RnsDomain::Ntt);
}

bool Dispatcher::rnsNttInverse(RnsTensor &T) {
  clearError();
  if (!T.valid())
    return fail("Dispatcher: rnsNttInverse on an empty tensor",
                DispatchErrorCode::InvalidArgument);
  return transformLimbs(T, RnsDomain::Coeff);
}

bool Dispatcher::limbwise(KernelOp Op, RnsTensor &A, RnsTensor &B,
                          RnsTensor &C) {
  const RnsContext &Ctx = A.context();
  for (size_t L = 0; L < Ctx.numLimbs(); ++L)
    if (!runElementwise(Op, Ctx.limb(L), A.limbData(L), B.limbData(L),
                        C.limbData(L), A.count()))
      return false;
  C.setDomain(A.domain());
  return true;
}

bool Dispatcher::rnsVAdd(RnsTensor &A, RnsTensor &B, RnsTensor &C) {
  clearError();
  if (!checkTensors("rnsVAdd", A, B, C))
    return false;
  // Addition is linear in both domains; only a mixed pair needs a move,
  // and it moves TOWARD Ntt so an add between lazy products keeps the
  // chain lazy (the Coeff operand is usually fresh input, paying its
  // forward transform now or at the next product either way).
  if (A.domain() != B.domain() &&
      (!rnsNttForward(A) || !rnsNttForward(B)))
    return false;
  return limbwise(KernelOp::AddMod, A, B, C);
}

bool Dispatcher::rnsVSub(RnsTensor &A, RnsTensor &B, RnsTensor &C) {
  clearError();
  if (!checkTensors("rnsVSub", A, B, C))
    return false;
  if (A.domain() != B.domain() &&
      (!rnsNttForward(A) || !rnsNttForward(B)))
    return false;
  return limbwise(KernelOp::SubMod, A, B, C);
}

bool Dispatcher::rnsVMul(RnsTensor &A, RnsTensor &B, RnsTensor &C) {
  clearError();
  if (!checkTensors("rnsVMul", A, B, C))
    return false;
  // Element-wise product of wide VALUES: meaningful on coefficients
  // only (a pointwise product in Ntt form is a polynomial product), so
  // both operands come back to Coeff first.
  if (!rnsNttInverse(A) || !rnsNttInverse(B))
    return false;
  return limbwise(KernelOp::MulMod, A, B, C);
}

bool Dispatcher::rnsPolyMul(RnsTensor &A, RnsTensor &B, RnsTensor &C) {
  clearError();
  if (!checkTensors("rnsPolyMul", A, B, C))
    return false;
  // The lazy product: force both operands into Ntt form (free for the
  // output of an earlier product — THE saving this API exists for), one
  // pointwise multiply per limb, and leave C transformed. A == B
  // (squaring) transforms once; C may alias either operand because the
  // multiply is pointwise.
  if (!rnsNttForward(A) || !rnsNttForward(B))
    return false;
  return limbwise(KernelOp::MulMod, A, B, C);
}

bool Dispatcher::rnsRescale(RnsTensor &T) {
  clearError();
  if (!T.valid())
    return fail("Dispatcher: rnsRescale on an empty tensor",
                DispatchErrorCode::InvalidArgument);
  const RnsContext &Ctx = T.context();
  size_t L = Ctx.numLimbs();
  if (L < 2)
    return fail("Dispatcher: rnsRescale needs a chain of >= 2 limbs",
                DispatchErrorCode::InvalidArgument);
  // Residues of different limbs combine below, so they must be coherent
  // coefficients — pay any deferred inverse transforms first.
  if (!rnsNttInverse(T))
    return false;
  // Per surviving limb, one generated rnsresc dispatch computes
  // r'_l = (r_l - y)*q_last^{-1} mod q_l in place (reading the dropped
  // limb's row, writing limb l's row — disjoint rows, so in-place is
  // safe). The per-limb inverse is a host-side Bignum constant, exactly
  // like the CRT weights.
  const mw::Bignum &QLast = Ctx.limb(L - 1);
  const std::uint64_t *LastRow = T.limbData(L - 1);
  for (size_t I = 0; I + 1 < L; ++I) {
    const mw::Bignum &Q = Ctx.limb(I);
    BoundPlan *BP = bindPlan(KernelOp::RnsRescaleStep, Q, Base);
    if (!BP)
      return false;
    std::uint64_t Inv = (QLast % Q).invMod(Q).low64();
    std::uint64_t *Row = T.limbData(I);
    if (!launch(*BP, {{Row}, {&Inv, Row, LastRow}, {0, 1, 1}, {}}, T.count()))
      return false;
  }
  T.rebindContext(Ctx.subChain(L - 1));
  return true;
}

bool Dispatcher::vmul(const Bignum &Q, const std::vector<Bignum> &A,
                      const std::vector<Bignum> &B,
                      std::vector<Bignum> &C) {
  if (A.size() != B.size())
    return fail("Dispatcher: vmul length mismatch",
                DispatchErrorCode::InvalidArgument);
  unsigned K = elemWords(Q);
  std::vector<std::uint64_t> AW = packBatch(A, K), BW = packBatch(B, K),
                             CW(A.size() * K);
  if (!vmul(Q, AW.data(), BW.data(), CW.data(), A.size()))
    return false;
  C = unpackBatch(CW, K);
  return true;
}

bool Dispatcher::polyMul(const Bignum &Q, const std::vector<Bignum> &A,
                         const std::vector<Bignum> &B,
                         std::vector<Bignum> &C, size_t NPoints,
                         rewrite::NttRing Ring) {
  if (A.size() > NPoints || B.size() > NPoints)
    return fail("Dispatcher: inputs longer than the transform size",
                DispatchErrorCode::InvalidArgument);
  unsigned K = elemWords(Q);
  std::vector<Bignum> APad = A, BPad = B;
  APad.resize(NPoints, Bignum(0));
  BPad.resize(NPoints, Bignum(0));
  std::vector<std::uint64_t> AW = packBatch(APad, K),
                             BW = packBatch(BPad, K), CW(NPoints * K);
  if (!polyMul(Q, AW.data(), BW.data(), CW.data(), NPoints, 1, Ring))
    return false;
  C = unpackBatch(CW, K);
  return true;
}

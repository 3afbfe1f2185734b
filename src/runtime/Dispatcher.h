//===- runtime/Dispatcher.h - Batched kernel dispatch ----------*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer of the runtime: batched modular BLAS, NTT and
/// polynomial-product requests executed through cached compiled plans
/// (KernelRegistry) with per-problem variants picked by the Autotuner.
/// Many elements — or many polynomials — per call is the point: the JIT
/// and tuning cost is paid once per (kernel, width) and amortized over
/// every later batch, the steady-state model the paper's
/// generated-kernel-per-configuration approach implies.
///
/// Every request routes through the plan's ExecutionBackend
/// (runtime/Backend.h): the vector backend's compiled batch loops (the
/// default plan), or the grid-shaped sim-GPU substrate (paper §5.1 thread
/// mapping — NTT stage groups launch with grid y = batch index, so large
/// batches parallelize over the worker pool). The backend and launch
/// geometry are plan knobs: set them on the base PlanOptions to pin a
/// backend, or attach an Autotuner to pick the winner per problem and
/// batch-size class automatically. When no JIT plan can be built, the
/// request falls back to the interpreter backend.
///
/// Data convention: a batch is one flat array of N elements, each
/// elemWords(q) = ceil(bits(q)/64) machine words, most significant word
/// first (the emitted-kernel port convention). packBatch/unpackBatch
/// convert Bignum vectors. Polynomial batches concatenate coefficient
/// vectors: Batch x NPoints elements.
///
/// Every entry point returns false on failure with error() set; moduli
/// must be odd (Montgomery candidates) and NTT entry points additionally
/// need 2^log2(n) | q - 1, checked up front.
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_RUNTIME_DISPATCHER_H
#define MOMA_RUNTIME_DISPATCHER_H

#include "runtime/Autotuner.h"
#include "runtime/KernelRegistry.h"
#include "runtime/NttPipeline.h"
#include "runtime/RnsContext.h"
#include "runtime/RnsTensor.h"

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace moma {
namespace runtime {

/// Flattens \p Elems into a batch array of \p ElemWords words each.
std::vector<std::uint64_t> packBatch(const std::vector<mw::Bignum> &Elems,
                                     unsigned ElemWords);

/// Splits a batch array back into Bignum elements.
std::vector<mw::Bignum> unpackBatch(const std::vector<std::uint64_t> &Words,
                                    unsigned ElemWords);

/// Typed failure taxonomy set alongside the string error() — the
/// Dispatcher-side mirror of the serving layer's service::ErrorCode, so
/// the Server classifies dispatch failures by code instead of parsing
/// diagnostics.
enum class DispatchErrorCode : std::uint8_t {
  Ok = 0,
  InvalidArgument, ///< malformed request (shape/ring/modulus preconditions)
  PlanUnavailable, ///< no plan could be built or bound (JIT + fallback dead)
  BackendFailed,   ///< a bound plan's backend launch failed
};

/// Stable lower-case name ("ok", "invalid-argument", ...).
const char *dispatchErrorCodeName(DispatchErrorCode C);

/// Batched dispatch through the plan cache.
///
/// Reentrancy contract: the binding/table caches, dispatch counters, and
/// error() slot are unsynchronized — use one Dispatcher per thread (the
/// serving layer gives each worker its own; they share one thread-safe
/// KernelRegistry/Autotuner underneath, so plans and tuning decisions are
/// still paid for once). Scratch memory, by contrast, is leased from an
/// internal pool per entry-point call rather than owned by the instance:
/// nested entry points (rnsPolyMul driving polyMul driving the NTTs) and
/// even erroneous cross-thread use can never silently alias each other's
/// scratch and corrupt results — the historical failure mode of the old
/// member buffers. Steady state still allocates nothing: leases reuse
/// pooled grow-only buffers.
class Dispatcher {
public:
  /// \p Tuner may be null: every request then uses \p Base verbatim
  /// (the paper's default plan unless the caller overrides knobs).
  explicit Dispatcher(KernelRegistry &Reg, Autotuner *Tuner = nullptr,
                      rewrite::PlanOptions Base = rewrite::PlanOptions());

  /// Words per element for modulus \p Q.
  static unsigned elemWords(const mw::Bignum &Q) {
    return (Q.bitWidth() + 63) / 64;
  }

  // -- Batched element-wise BLAS (paper §5.2) ----------------------------
  // A, B, C hold N elements; C may alias A or B.

  bool vadd(const mw::Bignum &Q, const std::uint64_t *A,
            const std::uint64_t *B, std::uint64_t *C, size_t N);
  bool vsub(const mw::Bignum &Q, const std::uint64_t *A,
            const std::uint64_t *B, std::uint64_t *C, size_t N);
  bool vmul(const mw::Bignum &Q, const std::uint64_t *A,
            const std::uint64_t *B, std::uint64_t *C, size_t N);
  /// y[i] = (a * x[i] + y[i]) mod q with one broadcast scalar a.
  bool axpy(const mw::Bignum &Q, const std::uint64_t *AScalar,
            const std::uint64_t *X, std::uint64_t *Y, size_t N);

  // -- Batched NTT engine (paper §5.3) -----------------------------------

  /// In-place forward/inverse NTT over \p Batch contiguous \p NPoints
  /// transforms (inverse includes the 1/n scaling). Each transform walks
  /// its log2(n) stages in ceil(log2(n)/FuseDepth) fused stage-group
  /// dispatches (runtime/NttPipeline.h): the bit-reversal permutation is
  /// gathered by the first group's loads and the inverse n^-1 multiply
  /// folded into the last group's stores, so there is no host-side data
  /// pass and no separate scaling dispatch. \p Ring selects the cyclic
  /// transform (x^n - 1, the default) or the negacyclic twisted
  /// transform (x^n + 1, needs 2n | q - 1): the ψ twist rides the first
  /// forward group's loads and the ψ^{-1}·n^-1 untwist the last inverse
  /// group's stores, so the ring changes the dispatch count by exactly
  /// zero.
  bool nttForward(const mw::Bignum &Q, std::uint64_t *Data, size_t NPoints,
                  size_t Batch,
                  rewrite::NttRing Ring = rewrite::NttRing::Cyclic);
  bool nttInverse(const mw::Bignum &Q, std::uint64_t *Data, size_t NPoints,
                  size_t Batch,
                  rewrite::NttRing Ring = rewrite::NttRing::Cyclic);

  /// Batched polynomial product (Eq. 11/12): per batch entry, C = A * B
  /// mod (x^n - 1) over Z_q — or mod (x^n + 1) with Ring = Negacyclic,
  /// the FHE ciphertext ring, at the same dispatch count. A and B hold
  /// Batch x NPoints coefficients each (low degree first); C likewise.
  /// C may alias A (its transform runs in the output buffer) but must
  /// not alias B.
  bool polyMul(const mw::Bignum &Q, const std::uint64_t *A,
               const std::uint64_t *B, std::uint64_t *C, size_t NPoints,
               size_t Batch,
               rewrite::NttRing Ring = rewrite::NttRing::Cyclic);

  // -- RNS multi-modulus serving (runtime/RnsContext.h) ------------------
  // One logical batch of N wide elements (reduced modulo Ctx.modulus(),
  // wideWords() words each) fans out across the base's limbs through the
  // same plan cache as everything else. Because PlanKey excludes the
  // modulus value, every limb of the base executes through a single
  // compiled module per kernel — L limbs cost L dispatches, one compile.
  // The CRT edges are generated kernels too: decompose is one
  // generalized-Barrett dispatch per limb, recombine one axpy-shaped
  // accumulation dispatch per limb. The CRT kernels run on the base
  // plan's backend (their knob grid is folded, so they are not
  // autotuned); the per-limb BLAS/NTT work goes through the autotuner
  // exactly like single-modulus traffic.

  /// Wide batch -> limb-major residues (limb l at Residues + l*N, one
  /// word per element).
  bool rnsDecompose(const RnsContext &Ctx, const std::uint64_t *A,
                    std::uint64_t *Residues, size_t N);
  /// Limb-major residues -> wide batch (CRT reconstruction mod M).
  bool rnsRecombine(const RnsContext &Ctx, const std::uint64_t *Residues,
                    std::uint64_t *C, size_t N);
  /// Batched polynomial product over Z_M[x]/(x^n -+ 1): decompose, one
  /// NTT polyMul per limb (negacyclic rides the same edge folds as the
  /// single-modulus path), recombine. A/B/C hold Batch x NPoints wide
  /// coefficients; C may alias A but not B. Limbs need 2-adicity
  /// log2(n) (+1 negacyclic) — Ctx.twoAdicity() bounds the sizes.
  bool rnsPolyMul(const RnsContext &Ctx, const std::uint64_t *A,
                  const std::uint64_t *B, std::uint64_t *C, size_t NPoints,
                  size_t Batch,
                  rewrite::NttRing Ring = rewrite::NttRing::Cyclic);

  // -- Residue-form handles (runtime/RnsTensor.h) ------------------------
  // The redesigned RNS surface: data stays resident in limb-major residue
  // form across calls, fromWide/toWide are the ONLY points that run the
  // CRT edge kernels, and the tensors' domain tags make laziness the
  // default — a chain of k rnsPolyMul calls pays (k+1)·L forward and L
  // inverse transforms instead of the flat path's 3k·L (pointwise
  // products compose in the transformed domain, so intermediates never
  // leave it). Element-wise wide-batch arithmetic is fromWide -> tensor
  // op -> toWide; the flat rnsPolyMul above is exactly that wrapper, with
  // bit-identical results and dispatch counts. Binary ops require
  // congruent operands (same context identity, shape, ring); tensors are
  // taken by non-const reference because laziness mutates representation
  // (never value): an operand may come back forward-transformed with its
  // tag updated.

  /// Wide batch (count() elements of Ctx.wideWords() words) -> residues.
  /// \p Out supplies context and shape; its domain resets to Coeff.
  bool fromWide(const std::uint64_t *A, RnsTensor &Out);
  /// Residues -> wide batch. Pays the deferred inverse NTTs first when
  /// \p T is in Ntt form (T comes back Coeff-tagged).
  bool toWide(RnsTensor &T, std::uint64_t *C);

  /// C = A + B element-wise in whatever common domain the operands share
  /// (addition is linear in both); mixed-domain operands are harmonized
  /// toward Ntt to keep product chains lazy. C must be congruent (it may
  /// be A or B).
  bool rnsVAdd(RnsTensor &A, RnsTensor &B, RnsTensor &C);
  /// C = A - B element-wise, same domain rules as rnsVAdd.
  bool rnsVSub(RnsTensor &A, RnsTensor &B, RnsTensor &C);
  /// C = A * B element-wise over wide VALUES: both operands are forced
  /// back to Coeff first (a pointwise product of Ntt-form residues would
  /// be a polynomial product, not an element-wise one).
  bool rnsVMul(RnsTensor &A, RnsTensor &B, RnsTensor &C);
  /// C = A * B in Z_M[x]/(x^n -+ 1), batched: operands are forced to Ntt
  /// (a no-op for already-transformed chains), one pointwise multiply per
  /// limb lands in C, and C STAYS Ntt — the inverse transform is
  /// deferred until toWide/rnsRescale/rnsNttInverse demands coefficient
  /// form. C may alias A or B.
  bool rnsPolyMul(RnsTensor &A, RnsTensor &B, RnsTensor &C);

  /// Explicit domain moves (no-ops when already there): one transform
  /// per limb.
  bool rnsNttForward(RnsTensor &T);
  bool rnsNttInverse(RnsTensor &T);

  /// Modulus switching: drops the chain's last limb in place, replacing
  /// T's value X by (X - (X mod q_last)) / q_last — exact integer
  /// division, one generated rnsresc dispatch per surviving limb, no CRT
  /// edge. T must live in a chain of >= 2 limbs; it is forced to Coeff
  /// (residues of different limbs must be coherent coefficients) and
  /// comes back tagged with context().subChain(numLimbs()-1).
  bool rnsRescale(RnsTensor &T);

  // -- Bignum conveniences (examples/tests) ------------------------------

  bool vmul(const mw::Bignum &Q, const std::vector<mw::Bignum> &A,
            const std::vector<mw::Bignum> &B, std::vector<mw::Bignum> &C);
  bool polyMul(const mw::Bignum &Q, const std::vector<mw::Bignum> &A,
               const std::vector<mw::Bignum> &B,
               std::vector<mw::Bignum> &C, size_t NPoints,
               rewrite::NttRing Ring = rewrite::NttRing::Cyclic);

  /// Diagnostics from the most recent failed call; empty after success.
  const std::string &error() const { return LastError; }

  /// Typed class of the most recent failure (Ok after success) — what
  /// the serving layer branches on. A backend that reported through the
  /// error string alone classifies as BackendFailed.
  DispatchErrorCode lastErrorCode() const {
    if (LastCode == DispatchErrorCode::Ok && !LastError.empty())
      return DispatchErrorCode::BackendFailed;
    return LastCode;
  }

  /// The plan variant the last successful call dispatched through
  /// (autotuned or base). Useful for logging and tests.
  const rewrite::PlanOptions &lastPlanOptions() const { return LastOpts; }

  KernelRegistry &registry() { return Reg; }

  /// Backend launches issued, by shape — the probe behind the fused
  /// pipeline's dispatch-count guarantees (a batched NTT is exactly
  /// ceil(log2(n)/FuseDepth) StageGroups per transform, with no separate
  /// bit-reversal or inverse-scaling dispatch).
  struct DispatchStats {
    std::uint64_t StageGroups = 0; ///< fused NTT stage-group launches
    std::uint64_t Batches = 0;     ///< element-wise batch launches
    std::uint64_t Transforms = 0;  ///< forward/inverse NTTs executed
  };
  const DispatchStats &dispatchStats() const { return DStats; }

  /// The binding and twiddle-table caches are bounded: beyond the caps
  /// the least-recently-used entry is evicted (a dispatcher serving an
  /// unbounded stream of distinct moduli/sizes stays at steady memory).
  /// Bindings are capped by count; table sets by the bytes of their
  /// vectors, since one 2^14-point set at 256 bits outweighs hundreds
  /// of small ones. Counters let tests and monitoring observe occupancy
  /// and churn.
  struct CacheCounters {
    size_t BoundEntries = 0;
    std::uint64_t BoundEvictions = 0;
    size_t TableEntries = 0;
    size_t TableBytes = 0; ///< NttTables::bytes() summed over entries
    std::uint64_t TableEvictions = 0;
  };
  CacheCounters cacheCounters() const;
  /// Adjusts the cache caps (defaults: 128 bindings, 64 MiB of tables).
  /// At least one entry each is always kept, even one over its cap.
  void setCacheCaps(size_t MaxBoundPlans, size_t MaxTableBytes);

  /// The degradation ladder's observable state. When a requested plan
  /// cannot be built (JIT compiler gone, injected fault past the
  /// registry's retry budget), bindPlan falls back to the interpreter
  /// backend — same kernel IR, zero compilation — instead of failing the
  /// request, and every later dispatch through the degraded binding polls
  /// KernelRegistry::tryPromote so the binding snaps back to compiled
  /// code the moment a background probe succeeds. Counters are atomics:
  /// the serving layer reads them across threads for health reporting
  /// while workers dispatch.
  struct DegradeCounters {
    std::uint64_t FallbackBinds = 0;      ///< bindings created degraded
    std::uint64_t FallbackDispatches = 0; ///< dispatches through them
    std::uint64_t Promotions = 0;         ///< degraded -> JIT rebinds
    std::uint64_t TunerFallbacks = 0;     ///< tuner failure -> base plan
  };
  DegradeCounters degradeCounters() const {
    DegradeCounters C;
    C.FallbackBinds = DC.FallbackBinds.load(std::memory_order_relaxed);
    C.FallbackDispatches =
        DC.FallbackDispatches.load(std::memory_order_relaxed);
    C.Promotions = DC.Promotions.load(std::memory_order_relaxed);
    C.TunerFallbacks = DC.TunerFallbacks.load(std::memory_order_relaxed);
    return C;
  }

private:
  /// A compiled plan bound to one modulus value: broadcast tail packed.
  /// A degraded binding runs the interpreter fallback but remembers the
  /// key it really wanted (JitKey) so cache hits can promote back.
  struct BoundPlan {
    std::shared_ptr<const CompiledPlan> Plan;
    PlanAux Aux;
    std::vector<const std::uint64_t *> AuxPtrs;
    std::uint64_t LastUse = 0; ///< LRU stamp
    bool Degraded = false;     ///< serving the interp fallback
    PlanKey JitKey;            ///< the originally requested variant
  };
  /// One cached NttTables with its LRU stamp.
  struct TablesEntry {
    NttTables T;
    std::uint64_t LastUse = 0;
  };
  /// LRU-evict down to the caps.
  void trimBound();
  void trimTables();

  /// Binds the tuned variant of an element-wise op (AddMod, SubMod,
  /// MulMod or Axpy; transforms tune through Autotuner::chooseNtt).
  /// \p SizeHint is the elements-per-dispatch estimate handed to the
  /// autotuner (decisions are per batch-size class).
  BoundPlan *bind(KernelOp Op, const mw::Bignum &Q, size_t SizeHint);
  /// Binds a fully-resolved variant (no autotuner consultation) — the
  /// NTT path resolves its own transform-shaped decision first, and the
  /// RNS CRT kernels pass their wide word count (0 elsewhere).
  BoundPlan *bindPlan(KernelOp Op, const mw::Bignum &Q,
                      const rewrite::PlanOptions &Opts,
                      unsigned WideWords = 0);
  /// Tables for (Q, NPoints, Ring): [w | wq] twiddles (and ψ tables)
  /// for every butterfly plan. Built once and shared by forward and
  /// inverse transforms.
  const NttTables *tables(const mw::Bignum &Q, size_t NPoints,
                          rewrite::NttRing Ring);
  /// The one element-wise backend launch: fills \p Args' broadcast tail
  /// from \p BP, counts DispatchStats::Batches and runs \p N elements.
  bool launch(const BoundPlan &BP, BatchArgs Args, size_t N);
  bool runElementwise(KernelOp Op, const mw::Bignum &Q,
                      const std::uint64_t *A, const std::uint64_t *B,
                      std::uint64_t *C, size_t N);
  bool transform(const mw::Bignum &Q, std::uint64_t *Data, size_t NPoints,
                 size_t Batch, bool Inverse, rewrite::NttRing Ring);
  /// Moves every limb of \p T into \p To, one transform per limb (a
  /// no-op when T is already there).
  bool transformLimbs(RnsTensor &T, RnsDomain To);
  /// C = A op B with one element-wise dispatch per limb; C then takes
  /// A's domain. The tensor ops settle the operands' domains first.
  bool limbwise(KernelOp Op, RnsTensor &A, RnsTensor &B, RnsTensor &C);
  /// Shared precondition checks of the binary tensor ops.
  bool checkTensors(const char *Op, const RnsTensor &A, const RnsTensor &B,
                    const RnsTensor &C);
  bool fail(const std::string &Msg,
            DispatchErrorCode C = DispatchErrorCode::BackendFailed) {
    LastError = Msg;
    LastCode = C;
    return false;
  }
  void clearError() {
    LastError.clear();
    LastCode = DispatchErrorCode::Ok;
  }

  /// One pool entry of reusable scratch buffers (grow-only, so
  /// steady-state batched polyMul and NTT dispatch perform zero heap
  /// allocation). Entries are leased per entry-point call and returned on
  /// exit; the pool grows to the deepest nesting ever seen (rnsPolyMul →
  /// polyMul → transform is depth 3) and then stays put.
  struct Scratch {
    std::vector<std::uint64_t> Poly; ///< polyMul's B-transform copy
    std::vector<std::uint64_t> Ntt;  ///< stage-group ping-pong
    std::vector<std::uint64_t> RnsA, RnsB; ///< limb-major residues
    bool InUse = false;
  };
  /// RAII lease over one pool entry.
  class ScratchLease {
  public:
    explicit ScratchLease(Dispatcher &D) : D(D), S(D.acquireScratch()) {}
    ~ScratchLease() { D.releaseScratch(S); }
    ScratchLease(const ScratchLease &) = delete;
    ScratchLease &operator=(const ScratchLease &) = delete;
    Scratch *operator->() { return &S; }
    Scratch &operator*() { return S; }

  private:
    Dispatcher &D;
    Scratch &S;
  };
  Scratch &acquireScratch();
  void releaseScratch(Scratch &S);

  KernelRegistry &Reg;
  Autotuner *Tuner;
  rewrite::PlanOptions Base;
  std::string LastError;
  DispatchErrorCode LastCode = DispatchErrorCode::Ok;
  rewrite::PlanOptions LastOpts;
  std::map<std::string, BoundPlan> Bound; ///< by full plan key + modulus
  std::map<std::string, TablesEntry> NttCtx; ///< by modulus + size + ring
  size_t MaxBound = 128, MaxTableBytes = size_t(64) << 20;
  size_t TableBytes = 0; ///< NttTables::bytes() summed over NttCtx
  std::uint64_t UseTick = 0; ///< LRU clock shared by both caches
  DispatchStats DStats;
  /// Atomic mirrors of DegradeCounters (snapshot via degradeCounters()).
  struct DegradeCountersAtomic {
    std::atomic<std::uint64_t> FallbackBinds{0};
    std::atomic<std::uint64_t> FallbackDispatches{0};
    std::atomic<std::uint64_t> Promotions{0};
    std::atomic<std::uint64_t> TunerFallbacks{0};
  };
  DegradeCountersAtomic DC;
  CacheCounters Evictions; ///< only the eviction counters are maintained
                           ///< here; entry counts read the maps directly
  /// The scratch pool. unique_ptr entries: leases hold references across
  /// pool growth. The mutex makes leasing safe even under (contract-
  /// violating) cross-thread use — scratch never silently aliases.
  std::mutex ScratchMu;
  std::vector<std::unique_ptr<Scratch>> ScratchPool;
};

} // namespace runtime
} // namespace moma

#endif // MOMA_RUNTIME_DISPATCHER_H

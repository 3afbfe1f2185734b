//===- runtime/KernelRegistry.h - Compiled-plan cache ----------*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The plan cache of the batched-dispatch runtime: maps a canonical
/// PlanKey to a compiled, loaded, ready-to-call kernel. The expensive part
/// of serving a request — build the IR, run the rewrite system, emit C,
/// invoke the host compiler, dlopen — happens once per key; every later
/// batch through the same key is a hash lookup plus N function calls.
/// HostJit's content-hash disk cache additionally carries compiled objects
/// across processes, so a warmed cache directory makes even the first
/// request of a process cheap.
///
/// Thread safety: get(), backendFor(), stats(), and error() may be called
/// from any number of threads on one registry — the serving layer
/// (service/Server.h) shares one registry across all its workers.
/// Concurrent get() calls for one cold key single-flight onto one plan
/// build (one rewrite pipeline, one compiler invocation); the plan map is
/// LRU-capped, and plans in flight stay alive through their shared_ptr
/// regardless of eviction. setDeviceProfile() remains a configuration
/// call: make it before dispatch traffic starts.
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_RUNTIME_KERNELREGISTRY_H
#define MOMA_RUNTIME_KERNELREGISTRY_H

#include "codegen/CEmitter.h"
#include "jit/HostJit.h"
#include "runtime/PlanKey.h"
#include "sim/Device.h"
#include "support/ThreadError.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace moma {
namespace runtime {

class ExecutionBackend;

/// One compiled kernel variant: metadata plus the callable entry points.
/// Fn is the element entry named by Emitted.Symbol, in the ABI of the
/// key's backend: the pointer-per-port scalar function (serial), the
/// `_grid` block entry (sim-GPU, codegen/GridEmitter.h) or the `_vec`
/// lane-loop entry (vector, codegen/VectorEmitter.h). GroupFn is the fused
/// stage-group entry named by Emitted.FusedSymbol, which only sim-GPU and
/// vector butterfly plans have. Interp plans have neither.
/// Kept alive by shared_ptr so a batch in flight survives registry
/// eviction; the loaded JitModule is released with the last plan user.
struct CompiledPlan {
  PlanKey Key;
  rewrite::LoweredKernel Lowered; ///< port layout source of truth
  codegen::EmittedKernel Emitted; ///< source + symbols + port signature
  std::shared_ptr<jit::JitModule> Module;
  void *Fn = nullptr;      ///< element entry (Emitted.Symbol)
  void *GroupFn = nullptr; ///< stage-group entry (Emitted.FusedSymbol);
                           ///< block dimension, lane count and fusion
                           ///< depth are launch parameters, so every
                           ///< BlockDim, VectorWidth and FuseDepth key of
                           ///< one kernel shares the module
  /// Interp plans carry the scalar kernel itself instead of an entry
  /// point: InterpBackend runs it through ir::interpret per element, with
  /// no compiled code at all (the degradation ladder's terminal rung).
  std::shared_ptr<const ir::Kernel> InterpKernel;

  unsigned NumOutputs = 0;    ///< leading per-element output ports
  unsigned NumDataInputs = 0; ///< per-element input ports (before q)
  unsigned ElemWords = 0;     ///< stored words per data element
  /// Stored word counts of the trailing broadcast ports, in port order:
  /// q, then mu (Barrett) or qinv, r2 (Montgomery) for multiplying ops.
  std::vector<unsigned> AuxWords;

  size_t numPorts() const {
    return NumOutputs + NumDataInputs + AuxWords.size();
  }
};

/// Batched call description for ExecutionBackend::runBatch
/// (runtime/Backend.h): flat arrays of N elements with ElemWords words
/// each (most significant word first, the emitted-kernel convention),
/// plus the broadcast auxiliary ports.
struct BatchArgs {
  std::vector<std::uint64_t *> Outs;      ///< NumOutputs arrays
  std::vector<const std::uint64_t *> Ins; ///< NumDataInputs arrays
  /// Per-input word stride between consecutive elements: ElemWords for
  /// vector inputs, 0 to broadcast one element to the whole batch (the
  /// axpy scalar). Empty means all-vector.
  std::vector<size_t> InStrides;
  std::vector<const std::uint64_t *> Aux; ///< AuxWords.size() arrays
};

/// Packs \p V into \p Words 64-bit words, most significant first (the
/// emitted-kernel port convention). \p V must fit.
std::vector<std::uint64_t> packWordsMsbFirst(const mw::Bignum &V,
                                             unsigned Words);

/// Inverse of packWordsMsbFirst.
mw::Bignum unpackWordsMsbFirst(const std::uint64_t *W, unsigned Words);

/// The broadcast tail for running \p P with modulus \p Q: the packed
/// modulus plus the reduction constants its variant needs — Barrett
/// mu = floor(2^(2m+3)/q), or Montgomery qinv = -q^-1 mod 2^lambda and
/// r2 = 2^(2*lambda) mod q. Montgomery requires an odd modulus.
struct PlanAux {
  std::vector<std::vector<std::uint64_t>> Buffers; ///< one per aux port
  /// Pointer view matching BatchArgs::Aux, in port order.
  std::vector<const std::uint64_t *> ptrs() const {
    std::vector<const std::uint64_t *> P;
    for (const auto &B : Buffers)
      P.push_back(B.data());
    return P;
  }
};
PlanAux makePlanAux(const CompiledPlan &P, const mw::Bignum &Q);

/// Compiles and caches kernel plans. Thread-safe: share one registry
/// across threads; cold keys single-flight onto one build, the plan map
/// is LRU-capped, and error() is a per-calling-thread slot.
class KernelRegistry {
public:
  explicit KernelRegistry(jit::HostJitOptions JitOpts = jit::HostJitOptions());
  ~KernelRegistry();

  /// Returns the compiled plan for \p Key, building it on first request.
  /// Null on failure (error() carries the pipeline or compiler message).
  /// Concurrent calls for one cold key block on a single shared build.
  std::shared_ptr<const CompiledPlan> get(const PlanKey &Key);

  /// The execution backend plans with \p Key run on. Backends live as
  /// long as the registry; the sim-GPU backend (and its worker pool) and
  /// the vector backend are created on first use — the former against the
  /// configured device profile.
  ExecutionBackend &backendFor(const PlanKey &Key);

  /// Selects the device profile the sim-GPU backend emulates (paper
  /// Table 2). Resets an already-created sim-GPU backend, so call it
  /// before dispatching; plans themselves are profile-independent.
  void setDeviceProfile(const sim::DeviceProfile &Profile);
  const sim::DeviceProfile &deviceProfile() const { return Profile; }

  /// Diagnostics from the calling thread's most recent failed get();
  /// empty after success.
  const std::string &error() const { return Err.get(); }

  /// How the registry retries transient build failures (a compiler crash,
  /// a full /tmp, an injected fault): the single-flight leader re-runs the
  /// build up to MaxAttempts times with bounded exponential backoff, so N
  /// followers blocked on the flight observe one retry sequence, not N.
  /// Permanent failures (validation errors: bad geometry, unsupported
  /// shape) are never retried.
  struct RetryPolicy {
    unsigned MaxAttempts = 3;        ///< total build attempts per get()
    unsigned InitialBackoffUs = 200; ///< sleep before the first retry
    unsigned BackoffMultiplier = 4;  ///< backoff growth per retry
    unsigned MaxBackoffUs = 100000;  ///< backoff ceiling (100ms)
  };
  void setRetryPolicy(const RetryPolicy &P);

  /// TTL of the negative cache: after a terminal build failure the key
  /// fast-fails (error() reports the cached message) for this long
  /// instead of letting every worker re-stampede the broken build. 0
  /// disables negative caching. Default 250ms.
  void setNegativeTtlUs(std::uint64_t Us);

  /// True while any key has terminally failed to build and not yet been
  /// rebuilt — the serving layer's health() degraded flag.
  bool degraded() const;
  /// The currently-degraded key strings (diagnostics).
  std::vector<std::string> degradedKeys() const;

  /// Non-blocking recovery probe for a degraded key: returns the plan if
  /// it is already back in the cache; otherwise (unless the key is inside
  /// its negative TTL or a build/probe is already running) enqueues a
  /// background rebuild on the registry's probe thread and returns null.
  /// The Dispatcher calls this on every dispatch through a fallback
  /// binding, so service promotes back to JIT as soon as compiles succeed
  /// again without ever blocking a request on a compile.
  std::shared_ptr<const CompiledPlan> tryPromote(const PlanKey &Key);

  /// Cache behavior counters.
  struct Stats {
    unsigned Builds = 0; ///< plans built (lower + emit + compile + load)
    unsigned Hits = 0;   ///< plans served from the in-memory cache
    std::uint64_t Evictions = 0;    ///< plans dropped by the LRU cap
    unsigned Attempts = 0;          ///< build attempts (incl. retries)
    unsigned Retries = 0;           ///< transient-failure retries
    unsigned FailedBuilds = 0;      ///< get() calls that exhausted retries
    std::uint64_t NegativeHits = 0; ///< fast-fails from the negative cache
    unsigned Probes = 0;            ///< background recovery rebuilds run
  };
  Stats stats() const;

  /// Caps the plan map: beyond \p Max entries the least-recently-used
  /// plan is dropped (in-flight batches keep their plan alive through the
  /// shared_ptr; the registry just forgets it and rebuilds on the next
  /// request — usually a cheap HostJit disk hit). At least one entry is
  /// always kept. Matches the Dispatcher's setCacheCaps pattern.
  void setCacheCap(size_t Max);
  size_t cacheCap() const;

  size_t size() const;
  jit::HostJit &jit() { return Jit; }

private:
  /// One cached plan with its LRU stamp.
  struct Entry {
    std::shared_ptr<CompiledPlan> Plan;
    std::uint64_t LastUse = 0;
  };
  /// One in-progress cold build: the leader runs the pipeline, followers
  /// wait on CV and share Plan/Error.
  struct Flight {
    std::mutex M;
    std::condition_variable CV;
    bool Done = false;
    std::shared_ptr<CompiledPlan> Plan;
    std::string Error;
  };

  /// The lower/emit/compile pipeline; no registry locks held.
  /// \p MaxThreadsPerBlock is the profile value snapshotted by get().
  /// \p Transient reports whether a failure is retryable (compiler/loader
  /// trouble) as opposed to a permanent validation error.
  std::shared_ptr<CompiledPlan> build(const PlanKey &Key,
                                      unsigned MaxThreadsPerBlock,
                                      std::string &Error, bool &Transient);
  /// LRU-evicts Plans down to CacheCap; requires Mu held.
  void evictLocked();
  /// Starts the probe thread if needed and enqueues \p K; requires Mu NOT
  /// held (takes ProbeMu then Mu internally via get()).
  void enqueueProbe(const PlanKey &Key);
  void probeLoop();

  /// One terminally-failed key: fast-fail until the TTL deadline passes.
  struct NegativeEntry {
    std::string Error;
    std::chrono::steady_clock::time_point Until;
  };

  jit::HostJit Jit;
  mutable std::mutex Mu; ///< guards S, Plans, InFlight, CacheCap, UseTick,
                         ///< Retry, NegativeTtlUs, Negative, Degraded
  Stats S;
  support::ThreadError Err;
  std::unordered_map<std::string, Entry> Plans;
  std::unordered_map<std::string, std::shared_ptr<Flight>> InFlight;
  size_t CacheCap = 512;
  std::uint64_t UseTick = 0; ///< LRU clock
  RetryPolicy Retry;
  std::uint64_t NegativeTtlUs = 250000;
  std::unordered_map<std::string, NegativeEntry> Negative;
  std::set<std::string> Degraded; ///< keys whose last build failed

  mutable std::mutex ProbeMu; ///< guards the probe thread + queue
  std::condition_variable ProbeCv;
  std::deque<PlanKey> ProbeQueue;
  std::set<std::string> ProbeQueued; ///< dedup of ProbeQueue by key string
  std::thread ProbeThread;           ///< started lazily by tryPromote
  bool ProbeStop = false;

  mutable std::mutex BackendMu; ///< guards Profile and backend creation
  sim::DeviceProfile Profile;
  std::unique_ptr<ExecutionBackend> Serial; ///< created with the registry
  std::unique_ptr<ExecutionBackend> SimGpu; ///< created on first use
  std::unique_ptr<ExecutionBackend> Vector; ///< created on first use
  std::unique_ptr<ExecutionBackend> Interp; ///< created on first use
};

} // namespace runtime
} // namespace moma

#endif // MOMA_RUNTIME_KERNELREGISTRY_H

//===- service/Server.h - Concurrent multi-tenant serving layer -*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The front door of the runtime for many independent clients: a
/// thread-safe submission queue accepting polyMul/NTT/RNS/BLAS requests
/// with futures back to the callers, a coalescer that packs queued
/// same-(op, modulus, shape, ring) requests into one batched dispatch,
/// and worker threads draining the queue.
///
/// Why it exists: the Dispatcher only hits the paper's batched-dispatch
/// sweet spot when callers arrive with large batches, but the north-star
/// workload is many small independent requests from many tenants. The
/// server turns that open-loop trickle into the dispatch shape the
/// generated kernels want — N requests for the same compiled plan become
/// one dispatch over the concatenated batch, amortizing per-dispatch
/// fixed costs (plan binding, key canonicalization, backend launch) that
/// would otherwise dominate small requests.
///
/// Batching is work-conserving: a worker that finds the queue non-empty
/// takes the head request plus every same-key request already queued
/// and dispatches at once — it never holds a batch open waiting for
/// arrivals. A lone request therefore pays no coalescing latency, and
/// batches form from whatever queues while every worker is busy, so
/// coalescing grows with load instead of being bought with latency.
///
/// Sharing model: all workers share one thread-safe KernelRegistry (and
/// optionally one Autotuner), so a cold kernel is compiled exactly once
/// no matter how many clients race on it; each worker owns a private
/// Dispatcher (whose binding caches and counters are unsynchronized by
/// contract).
///
/// Buffer ownership: request buffers (A/B/C/Data) belong to the caller
/// and must stay valid and untouched until the returned future resolves.
/// An output may alias its request's A input. The coalescer stages
/// buffers into worker-local contiguous arrays for the batched dispatch
/// and scatters results back, so callers never see a partially-written
/// output before their future is ready.
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_SERVICE_SERVER_H
#define MOMA_SERVICE_SERVER_H

#include "runtime/Autotuner.h"
#include "runtime/Dispatcher.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace moma {
namespace fhe {
struct Ciphertext;
} // namespace fhe
namespace service {

/// Serving configuration.
struct ServerOptions {
  /// Worker threads draining the queue. Each owns a private Dispatcher.
  unsigned Workers = 2;
  /// Most requests packed into one coalesced dispatch.
  size_t MaxBatch = 256;
  /// Requests admitted before submissions are rejected ("queue full"
  /// replies) — the overload backstop.
  size_t QueueCap = 1 << 16;
  /// Base plan knobs handed to every worker Dispatcher (backend,
  /// reduction, fuse depth, ... — the same defaults the Dispatcher API
  /// documents).
  rewrite::PlanOptions BasePlan;
  /// When true the server creates one shared Autotuner over the registry
  /// and every worker dispatches through it (first request per problem
  /// pays one timing sweep; concurrent workers single-flight on it).
  bool UseAutotuner = false;
  runtime::AutotunerOptions TunerOpts;
  /// Deadline applied to every submission that does not pass its own
  /// (microseconds from submit; 0 = no deadline). An expired request
  /// still queued when a worker next scans is rejected with
  /// ErrorCode::DeadlineExceeded; a request already staged into an
  /// in-flight batch is always served — batches are never torn.
  std::uint64_t DefaultDeadlineUs = 0;
};

/// Typed failure taxonomy for Reply — stable across error-message
/// wording, so callers branch on the code and log the string.
enum class ErrorCode {
  Ok = 0,           ///< request served
  QueueFull,        ///< admission refused: queue at QueueCap
  ShuttingDown,     ///< admission refused: server stopping
  DeadlineExceeded, ///< expired while queued (never torn from a batch)
  DispatchFailed,   ///< the batched dispatch itself failed (Error set)
  InvalidRequest,   ///< the dispatcher rejected the request's arguments
};

/// Stable lower-case name for \p C ("ok", "queue-full", ...).
const char *errorCodeName(ErrorCode C);

/// What a request's future resolves to. Latency accounting: Done is
/// stamped just before the promise is fulfilled, so (Done - submit time)
/// is the request's queue + execute latency.
struct Reply {
  bool Ok = false;
  ErrorCode Code = ErrorCode::Ok; ///< typed failure class
  std::string Error; ///< dispatcher diagnostics on failure
  std::chrono::steady_clock::time_point Done;
};

/// The serving layer. Thread-safe: any number of client threads may
/// submit concurrently; the destructor stops accepting, flushes every
/// queued request, and joins the workers.
class Server {
public:
  explicit Server(runtime::KernelRegistry &Reg,
                  ServerOptions Opts = ServerOptions());
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  // -- Element-wise modular BLAS (flat arrays of N elements, elemWords(Q)
  // words each; same data convention as the Dispatcher) ------------------
  // Every submission takes an optional per-request deadline in
  // microseconds from submit time (0 = ServerOptions::DefaultDeadlineUs).

  std::future<Reply> vadd(const mw::Bignum &Q, const std::uint64_t *A,
                          const std::uint64_t *B, std::uint64_t *C,
                          size_t N, std::uint64_t DeadlineUs = 0);
  std::future<Reply> vmul(const mw::Bignum &Q, const std::uint64_t *A,
                          const std::uint64_t *B, std::uint64_t *C,
                          size_t N, std::uint64_t DeadlineUs = 0);

  // -- NTT engine --------------------------------------------------------

  /// One polynomial product C = A * B over Z_q[x]/(x^n -+ 1); A/B/C hold
  /// NPoints coefficients. Same-(q, n, ring) requests coalesce into one
  /// batched dispatch.
  std::future<Reply> polyMul(const mw::Bignum &Q, const std::uint64_t *A,
                             const std::uint64_t *B, std::uint64_t *C,
                             size_t NPoints,
                             rewrite::NttRing Ring = rewrite::NttRing::Cyclic,
                             std::uint64_t DeadlineUs = 0);
  /// In-place forward/inverse transform of one NPoints-point polynomial.
  std::future<Reply> nttForward(const mw::Bignum &Q, std::uint64_t *Data,
                                size_t NPoints,
                                rewrite::NttRing Ring =
                                    rewrite::NttRing::Cyclic,
                                std::uint64_t DeadlineUs = 0);
  std::future<Reply> nttInverse(const mw::Bignum &Q, std::uint64_t *Data,
                                size_t NPoints,
                                rewrite::NttRing Ring =
                                    rewrite::NttRing::Cyclic,
                                std::uint64_t DeadlineUs = 0);

  // -- RNS multi-modulus -------------------------------------------------

  /// One wide polynomial product over Z_M[x]/(x^n -+ 1) through \p Ctx
  /// (which must outlive the future). Coalesces per (context, n, ring).
  std::future<Reply> rnsPolyMul(const runtime::RnsContext &Ctx,
                                const std::uint64_t *A,
                                const std::uint64_t *B, std::uint64_t *C,
                                size_t NPoints,
                                rewrite::NttRing Ring =
                                    rewrite::NttRing::Cyclic,
                                std::uint64_t DeadlineUs = 0);

  // -- FHE ciphertext ops ------------------------------------------------

  /// One ciphertext tensor product Out = A * B (degree-1 operands,
  /// degree-2 result; see fhe::ciphertextMul). All three ciphertexts —
  /// and the FheContext chain they reference — must outlive the future;
  /// Out may alias an operand. Same-(context, shape, ring) requests
  /// coalesce onto one worker wakeup, though each product still runs as
  /// its own dispatcher-call sequence: ciphertexts carry per-request
  /// lazy-domain state, so cross-request staging would destroy the very
  /// NTT elision the tensor API provides.
  std::future<Reply> submitCtMul(fhe::Ciphertext &A, fhe::Ciphertext &B,
                                 fhe::Ciphertext &Out,
                                 std::uint64_t DeadlineUs = 0);

  /// Blocks until every admitted request has been served (the queue is
  /// empty and no worker is executing).
  void drain();

  /// Serving counters.
  struct Stats {
    std::uint64_t Requests = 0;   ///< submissions admitted to the queue
    std::uint64_t Rejected = 0;   ///< submissions refused (full/stopping)
    std::uint64_t Dispatches = 0; ///< batched dispatches executed
    std::uint64_t Coalesced = 0;  ///< requests served in a batch of >= 2
    std::uint64_t MaxBatchSize = 0; ///< largest batch dispatched
    std::uint64_t DeadlineExpired = 0; ///< queued requests past deadline
  };
  Stats stats() const;

  /// One consistent snapshot of the degradation ladder for monitoring:
  /// registry retry/failure counters, the per-worker dispatcher fallback
  /// counters summed, and the server's own rejection/deadline/queue
  /// numbers. Cheap enough to poll (atomics plus two mutexes).
  struct Health {
    bool Degraded = false; ///< any plan currently failed-and-not-rebuilt
    std::uint64_t FallbackBinds = 0;      ///< interp bindings created
    std::uint64_t FallbackDispatches = 0; ///< dispatches served degraded
    std::uint64_t Promotions = 0;         ///< degraded -> JIT rebinds
    std::uint64_t TunerFallbacks = 0;     ///< tuner failure -> base plan
    std::uint64_t Retries = 0;            ///< registry transient retries
    std::uint64_t FailedBuilds = 0;       ///< builds past the retry budget
    std::uint64_t Rejected = 0;           ///< admission rejections
    std::uint64_t DeadlineExpired = 0;    ///< queued-past-deadline replies
    size_t QueueDepth = 0;                ///< requests waiting right now
  };
  Health health() const;

  const ServerOptions &options() const { return Opts; }
  runtime::KernelRegistry &registry() { return Reg; }
  /// The shared tuner (null unless UseAutotuner).
  runtime::Autotuner *tuner() { return Tuner.get(); }

private:
  /// The batched dispatcher call a coalescing key stands for: C = op(A, B)
  /// over \p Rows rows. Contract: C may alias A (staged batches pass one
  /// array as both), and B is null for one-input ops.
  using BatchCall =
      std::function<bool(runtime::Dispatcher &, const std::uint64_t *A,
                         const std::uint64_t *B, std::uint64_t *C,
                         size_t Rows)>;

  /// One queued request: a coalescing key, the call it stands for, and
  /// the request's rows. Requests with equal Key strings share Call and
  /// RowWords, so any set of them is one Call over their concatenated
  /// rows.
  struct Request {
    std::string Key;
    BatchCall Call;
    const std::uint64_t *A = nullptr;
    const std::uint64_t *B = nullptr; ///< null for one-input ops
    std::uint64_t *C = nullptr;       ///< output rows; may alias A
    size_t Rows = 0;
    /// Words per row. 0 marks an unstaged request, whose Call only ever
    /// runs on the request's own buffers.
    size_t RowWords = 0;
    bool HasDeadline = false;
    std::chrono::steady_clock::time_point Deadline; ///< if HasDeadline
    std::promise<Reply> Promise;
  };

  /// One worker: thread + private Dispatcher + staging buffers for
  /// coalesced batches (grow-only, reused across dispatches): SC holds
  /// the A rows and receives C, SB holds the B rows.
  struct Worker {
    std::unique_ptr<runtime::Dispatcher> D;
    std::vector<std::uint64_t> SB, SC;
    std::thread T;
  };

  /// Queues one request (or replies a typed rejection at once).
  /// \p DeadlineUs 0 means ServerOptions::DefaultDeadlineUs.
  std::future<Reply> submit(std::string Key, BatchCall Call,
                            const std::uint64_t *A, const std::uint64_t *B,
                            std::uint64_t *C, size_t Rows, size_t RowWords,
                            std::uint64_t DeadlineUs);
  void workerLoop(Worker &W);
  /// Moves every queued request whose deadline has passed (any key) into
  /// \p Expired and bumps Stats::DeadlineExpired for the new entries.
  /// Called under QMu; Pending stays put until replyExpired fulfills the
  /// promises.
  void sweepExpiredLocked(std::vector<Request> &Expired);
  /// Replies ErrorCode::DeadlineExceeded to every request in \p Expired,
  /// then decrements Pending and notifies DrainCv. Called WITHOUT QMu
  /// held.
  void replyExpired(std::vector<Request> &Expired);
  /// Moves the head request and every queued request sharing its key
  /// (up to MaxBatch total) into \p Batch, in arrival order. Called
  /// under QMu with a non-empty queue.
  void takeBatchLocked(std::vector<Request> &Batch);
  /// Serves one coalesced batch (all sharing Batch[0].Key) on \p W.
  void execute(Worker &W, std::vector<Request> &Batch);
  /// Runs \p Batch with no per-kind code. A batch of one, or of unstaged
  /// requests, runs each request's own Call on its own buffers (the
  /// first failure fails the batch). Any other batch copies every A row
  /// into W.SC and every B row into W.SB, runs one Call over the summed
  /// rows with C = W.SC, and scatters the C rows back. Returns false
  /// with \p Error and \p Code set — \p Code classified from the
  /// dispatcher's typed lastErrorCode() rather than by matching message
  /// strings.
  bool dispatchBatch(Worker &W, std::vector<Request> &Batch,
                     std::string &Error, ErrorCode &Code);

  runtime::KernelRegistry &Reg;
  ServerOptions Opts;
  std::unique_ptr<runtime::Autotuner> Tuner;

  mutable std::mutex QMu; ///< guards Queue, Pending, Stop, S
  std::condition_variable QCv;    ///< work available / shutdown
  std::condition_variable DrainCv; ///< Pending reached zero
  std::deque<Request> Queue;
  size_t Pending = 0; ///< admitted but not yet replied
  bool Stop = false;
  Stats S;
  std::vector<std::unique_ptr<Worker>> Workers;
};

} // namespace service
} // namespace moma

#endif // MOMA_SERVICE_SERVER_H

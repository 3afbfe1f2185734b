//===- service/Server.cpp - Concurrent multi-tenant serving layer ----------===//

#include "service/Server.h"

#include "fhe/Fhe.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <utility>

using namespace moma;
using namespace moma::service;

namespace {

/// Key of a polynomial-shaped request: op tag, modulus hex or context
/// identity, point count, ring.
std::string polyKey(const char *Op, const std::string &Id, size_t NPoints,
                    rewrite::NttRing Ring) {
  return std::string(Op) + "/" + Id + "/" + std::to_string(NPoints) + "/" +
         (Ring == rewrite::NttRing::Negacyclic ? 'n' : 'c');
}

/// The address of \p P as a key component (identity, not value).
std::string identity(const void *P) {
  return std::to_string(reinterpret_cast<std::uintptr_t>(P));
}

/// A reply stamped now; Ok exactly when \p Code is.
Reply makeReply(ErrorCode Code, std::string Error = {}) {
  Reply R;
  R.Ok = Code == ErrorCode::Ok;
  R.Code = Code;
  R.Error = std::move(Error);
  R.Done = std::chrono::steady_clock::now();
  return R;
}

} // namespace

const char *moma::service::errorCodeName(ErrorCode C) {
  switch (C) {
  case ErrorCode::Ok:
    return "ok";
  case ErrorCode::QueueFull:
    return "queue-full";
  case ErrorCode::ShuttingDown:
    return "shutting-down";
  case ErrorCode::DeadlineExceeded:
    return "deadline-exceeded";
  case ErrorCode::DispatchFailed:
    return "dispatch-failed";
  case ErrorCode::InvalidRequest:
    return "invalid-request";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

Server::Server(runtime::KernelRegistry &Reg, ServerOptions O)
    : Reg(Reg), Opts(std::move(O)) {
  if (Opts.Workers == 0)
    Opts.Workers = 1;
  if (Opts.MaxBatch == 0)
    Opts.MaxBatch = 1;
  if (Opts.UseAutotuner)
    Tuner = std::make_unique<runtime::Autotuner>(Reg, Opts.TunerOpts);
  for (unsigned I = 0; I < Opts.Workers; ++I) {
    auto W = std::make_unique<Worker>();
    W->D = std::make_unique<runtime::Dispatcher>(Reg, Tuner.get(),
                                                 Opts.BasePlan);
    Workers.push_back(std::move(W));
  }
  // Start the threads only once every Worker exists: a worker observes
  // nothing but its own slot and the shared queue state.
  for (auto &W : Workers)
    W->T = std::thread([this, WP = W.get()] { workerLoop(*WP); });
}

Server::~Server() {
  {
    std::lock_guard<std::mutex> G(QMu);
    Stop = true;
  }
  QCv.notify_all();
  for (auto &W : Workers)
    if (W->T.joinable())
      W->T.join();
}

//===----------------------------------------------------------------------===//
// Submission
//===----------------------------------------------------------------------===//

std::future<Reply> Server::submit(std::string Key, BatchCall Call,
                                  const std::uint64_t *A,
                                  const std::uint64_t *B, std::uint64_t *C,
                                  size_t Rows, size_t RowWords,
                                  std::uint64_t DeadlineUs) {
  Request R;
  R.Key = std::move(Key);
  R.Call = std::move(Call);
  R.A = A;
  R.B = B;
  R.C = C;
  R.Rows = Rows;
  R.RowWords = RowWords;
  const std::uint64_t Budget =
      DeadlineUs ? DeadlineUs : Opts.DefaultDeadlineUs;
  if (Budget) {
    R.HasDeadline = true;
    R.Deadline = std::chrono::steady_clock::now() +
                 std::chrono::microseconds(Budget);
  }
  std::future<Reply> F = R.Promise.get_future();
  ErrorCode Code;
  {
    std::lock_guard<std::mutex> G(QMu);
    if (!Stop && Queue.size() < Opts.QueueCap) {
      ++S.Requests;
      ++Pending;
      Queue.push_back(std::move(R));
      QCv.notify_one();
      return F;
    }
    Code = Stop ? ErrorCode::ShuttingDown : ErrorCode::QueueFull;
    ++S.Rejected;
  }
  R.Promise.set_value(makeReply(
      Code, Code == ErrorCode::ShuttingDown
                ? "server: submission rejected (shutting down)"
                : "server: submission rejected (queue full)"));
  return F;
}

// Element-wise requests are one row per element, so requests of any
// lengths under one modulus concatenate into a single flat dispatch.
std::future<Reply> Server::vadd(const mw::Bignum &Q, const std::uint64_t *A,
                                const std::uint64_t *B, std::uint64_t *C,
                                size_t N, std::uint64_t DeadlineUs) {
  return submit(
      "va/" + Q.toHex(),
      [Q](runtime::Dispatcher &D, auto *A, auto *B, auto *C, size_t Rows) {
        return D.vadd(Q, A, B, C, Rows);
      },
      A, B, C, N, runtime::Dispatcher::elemWords(Q), DeadlineUs);
}

std::future<Reply> Server::vmul(const mw::Bignum &Q, const std::uint64_t *A,
                                const std::uint64_t *B, std::uint64_t *C,
                                size_t N, std::uint64_t DeadlineUs) {
  return submit(
      "vm/" + Q.toHex(),
      [Q](runtime::Dispatcher &D, auto *A, auto *B, auto *C, size_t Rows) {
        return D.vmul(Q, A, B, C, Rows);
      },
      A, B, C, N, runtime::Dispatcher::elemWords(Q), DeadlineUs);
}

// Polynomial requests are one row per polynomial.
std::future<Reply> Server::polyMul(const mw::Bignum &Q,
                                   const std::uint64_t *A,
                                   const std::uint64_t *B, std::uint64_t *C,
                                   size_t NPoints, rewrite::NttRing Ring,
                                   std::uint64_t DeadlineUs) {
  return submit(
      polyKey("pm", Q.toHex(), NPoints, Ring),
      [Q, NPoints, Ring](runtime::Dispatcher &D, auto *A, auto *B, auto *C,
                         size_t Rows) {
        return D.polyMul(Q, A, B, C, NPoints, Rows, Ring);
      },
      A, B, C, 1, NPoints * runtime::Dispatcher::elemWords(Q), DeadlineUs);
}

// The transforms run in place: A = C = Data.
std::future<Reply> Server::nttForward(const mw::Bignum &Q,
                                      std::uint64_t *Data, size_t NPoints,
                                      rewrite::NttRing Ring,
                                      std::uint64_t DeadlineUs) {
  return submit(
      polyKey("nf", Q.toHex(), NPoints, Ring),
      [Q, NPoints, Ring](runtime::Dispatcher &D, auto *, auto *, auto *C,
                         size_t Rows) {
        return D.nttForward(Q, C, NPoints, Rows, Ring);
      },
      Data, nullptr, Data, 1, NPoints * runtime::Dispatcher::elemWords(Q),
      DeadlineUs);
}

std::future<Reply> Server::nttInverse(const mw::Bignum &Q,
                                      std::uint64_t *Data, size_t NPoints,
                                      rewrite::NttRing Ring,
                                      std::uint64_t DeadlineUs) {
  return submit(
      polyKey("ni", Q.toHex(), NPoints, Ring),
      [Q, NPoints, Ring](runtime::Dispatcher &D, auto *, auto *, auto *C,
                         size_t Rows) {
        return D.nttInverse(Q, C, NPoints, Rows, Ring);
      },
      Data, nullptr, Data, 1, NPoints * runtime::Dispatcher::elemWords(Q),
      DeadlineUs);
}

std::future<Reply> Server::rnsPolyMul(const runtime::RnsContext &Ctx,
                                      const std::uint64_t *A,
                                      const std::uint64_t *B,
                                      std::uint64_t *C, size_t NPoints,
                                      rewrite::NttRing Ring,
                                      std::uint64_t DeadlineUs) {
  // Context identity (not value) keys the batch: requests through the
  // same RnsContext share limb bases and tables by construction.
  return submit(
      polyKey("rp", identity(&Ctx), NPoints, Ring),
      [&Ctx, NPoints, Ring](runtime::Dispatcher &D, auto *A, auto *B,
                            auto *C, size_t Rows) {
        return D.rnsPolyMul(Ctx, A, B, C, NPoints, Rows, Ring);
      },
      A, B, C, 1, NPoints * Ctx.wideWords(), DeadlineUs);
}

std::future<Reply> Server::submitCtMul(fhe::Ciphertext &A,
                                       fhe::Ciphertext &B,
                                       fhe::Ciphertext &Out,
                                       std::uint64_t DeadlineUs) {
  // Malformed products are rejected at the door with the typed code —
  // no queue slot, no worker wakeup.
  if (!A.valid() || !B.valid() || A.size() != 2 || B.size() != 2 ||
      &A.context() != &B.context()) {
    {
      std::lock_guard<std::mutex> G(QMu);
      ++S.Rejected;
    }
    std::promise<Reply> P;
    P.set_value(makeReply(ErrorCode::InvalidRequest,
                          "server: ctMul needs two degree-1 ciphertexts "
                          "over one chain"));
    return P.get_future();
  }
  // Unstaged (RowWords = 0): ciphertexts carry per-request lazy-domain
  // state, so staging them would undo the NTT elision.
  const runtime::RnsTensor &T = A.Polys[0];
  return submit(
      polyKey("cm", identity(&T.context()), T.nPoints(), T.ring()),
      [&A, &B, &Out](runtime::Dispatcher &D, auto *, auto *, auto *,
                     size_t) { return fhe::ciphertextMul(D, A, B, Out); },
      nullptr, nullptr, nullptr, 1, 0, DeadlineUs);
}

void Server::drain() {
  std::unique_lock<std::mutex> L(QMu);
  DrainCv.wait(L, [&] { return Pending == 0; });
}

Server::Stats Server::stats() const {
  std::lock_guard<std::mutex> G(QMu);
  return S;
}

Server::Health Server::health() const {
  Health H;
  // Dispatcher fallback counters are atomics (readable while workers
  // dispatch); the registry takes its own lock for stats().
  for (const auto &W : Workers) {
    runtime::Dispatcher::DegradeCounters DC = W->D->degradeCounters();
    H.FallbackBinds += DC.FallbackBinds;
    H.FallbackDispatches += DC.FallbackDispatches;
    H.Promotions += DC.Promotions;
    H.TunerFallbacks += DC.TunerFallbacks;
  }
  runtime::KernelRegistry::Stats RS = Reg.stats();
  H.Retries = RS.Retries;
  H.FailedBuilds = RS.FailedBuilds;
  H.Degraded = Reg.degraded();
  std::lock_guard<std::mutex> G(QMu);
  H.Rejected = S.Rejected;
  H.DeadlineExpired = S.DeadlineExpired;
  H.QueueDepth = Queue.size();
  return H;
}

void Server::sweepExpiredLocked(std::vector<Request> &Expired) {
  const size_t Before = Expired.size();
  const auto Now = std::chrono::steady_clock::now();
  for (auto It = Queue.begin(); It != Queue.end();) {
    if (It->HasDeadline && Now >= It->Deadline) {
      Expired.push_back(std::move(*It));
      It = Queue.erase(It);
    } else {
      ++It;
    }
  }
  S.DeadlineExpired += Expired.size() - Before;
}

void Server::replyExpired(std::vector<Request> &Expired) {
  if (Expired.empty())
    return;
  for (Request &R : Expired)
    R.Promise.set_value(makeReply(ErrorCode::DeadlineExceeded,
                                  "server: deadline exceeded while queued"));
  {
    // Pending drops only after the promises are fulfilled, preserving
    // the drain() invariant: Pending == 0 => every future is ready.
    std::lock_guard<std::mutex> G(QMu);
    Pending -= Expired.size();
  }
  DrainCv.notify_all();
  Expired.clear();
}

//===----------------------------------------------------------------------===//
// Worker: coalesce and dispatch
//===----------------------------------------------------------------------===//

void Server::takeBatchLocked(std::vector<Request> &Batch) {
  const std::string Key = Queue.front().Key;
  for (auto It = Queue.begin();
       It != Queue.end() && Batch.size() < Opts.MaxBatch;) {
    if (It->Key == Key) {
      Batch.push_back(std::move(*It));
      It = Queue.erase(It);
    } else {
      ++It;
    }
  }
}

void Server::workerLoop(Worker &W) {
  std::unique_lock<std::mutex> L(QMu);
  for (;;) {
    QCv.wait(L, [&] { return Stop || !Queue.empty(); });
    if (Queue.empty())
      return; // stopping, and everything admitted has been taken

    // Reject everything already past its deadline — any key, so a
    // stalled dispatch elsewhere (slow compile, injected delay) never
    // leaves expired requests waiting behind an unrelated batch. The
    // batch is taken under the same lock hold, so a request is either
    // rejected while still queued or served whole, never torn from a
    // batch mid-flight.
    std::vector<Request> Expired, Batch;
    sweepExpiredLocked(Expired);
    // Work-conserving: dispatch what is queued now instead of holding
    // the batch open for arrivals. Batches grow with load — whatever
    // queued while every worker was busy.
    if (!Queue.empty())
      takeBatchLocked(Batch);

    L.unlock();
    replyExpired(Expired);
    if (!Batch.empty())
      execute(W, Batch);
    L.lock();
  }
}

void Server::execute(Worker &W, std::vector<Request> &Batch) {
  std::string Error;
  ErrorCode Code = ErrorCode::Ok;
  const bool Ok = dispatchBatch(W, Batch, Error, Code);

  const Reply R =
      Ok ? makeReply(ErrorCode::Ok)
         : makeReply(Code == ErrorCode::Ok ? ErrorCode::DispatchFailed : Code,
                     Error.empty() ? "server: dispatch failed" : Error);
  for (auto &Req : Batch)
    Req.Promise.set_value(R);

  {
    std::lock_guard<std::mutex> G(QMu);
    ++S.Dispatches;
    if (Batch.size() > 1)
      S.Coalesced += Batch.size();
    S.MaxBatchSize = std::max<std::uint64_t>(S.MaxBatchSize, Batch.size());
    Pending -= Batch.size(); // after the promises: drain() => futures ready
  }
  DrainCv.notify_all();
}

bool Server::dispatchBatch(Worker &W, std::vector<Request> &Batch,
                           std::string &Error, ErrorCode &Code) {
  // Chaos hook: a whole coalesced batch failing at dispatch (the
  // stand-in for a worker losing its backend mid-flight). Every request
  // in the batch gets the same typed DispatchFailed reply.
  if (support::faultShouldFail("server.dispatch")) {
    Error = "server: fault injected at server.dispatch";
    Code = ErrorCode::DispatchFailed;
    return false;
  }
  runtime::Dispatcher &D = *W.D;
  const Request &R0 = Batch.front();
  bool Ok = false;
  if (Batch.size() == 1 || R0.RowWords == 0) {
    // Each request's own call on its own buffers: the zero-copy path for
    // a lone request, and the only path for unstaged requests (ciphertext
    // products share the worker wakeup but not their lazy-domain state).
    // The first failure fails the whole batch, so replies stay uniform.
    Ok = std::all_of(Batch.begin(), Batch.end(), [&](const Request &R) {
      return R.Call(D, R.A, R.B, R.C, R.Rows);
    });
  } else {
    // One call over the concatenated rows: A rows stage straight into
    // the output array (every call accepts C aliasing A), B rows beside
    // them, and C rows scatter back by offset.
    const size_t RW = R0.RowWords;
    size_t Rows = 0;
    for (const Request &R : Batch)
      Rows += R.Rows;
    W.SC.resize(Rows * RW);
    if (R0.B)
      W.SB.resize(Rows * RW);
    size_t Off = 0;
    for (const Request &R : Batch) {
      std::copy(R.A, R.A + R.Rows * RW, W.SC.data() + Off);
      if (R.B)
        std::copy(R.B, R.B + R.Rows * RW, W.SB.data() + Off);
      Off += R.Rows * RW;
    }
    Ok = R0.Call(D, W.SC.data(), R0.B ? W.SB.data() : nullptr, W.SC.data(),
                 Rows);
    if (Ok) {
      Off = 0;
      for (const Request &R : Batch) {
        std::copy(W.SC.data() + Off, W.SC.data() + Off + R.Rows * RW, R.C);
        Off += R.Rows * RW;
      }
    }
  }

  if (!Ok) {
    Error = D.error();
    // Typed classification straight from the dispatcher — replacing the
    // old blanket DispatchFailed (and any temptation to string-match).
    Code = D.lastErrorCode() == runtime::DispatchErrorCode::InvalidArgument
               ? ErrorCode::InvalidRequest
               : ErrorCode::DispatchFailed;
  }
  return Ok;
}

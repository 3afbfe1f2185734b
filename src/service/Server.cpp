//===- service/Server.cpp - Concurrent multi-tenant serving layer ----------===//

#include "service/Server.h"

#include "fhe/Fhe.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <utility>

using namespace moma;
using namespace moma::service;

namespace {

char ringTag(rewrite::NttRing Ring) {
  return Ring == rewrite::NttRing::Negacyclic ? 'n' : 'c';
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

std::future<Reply> Server::submit(Request R) {
  std::uint64_t Budget =
      R.DeadlineUs ? R.DeadlineUs : Opts.DefaultDeadlineUs;
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
  Reply Rej;
  Rej.Code = Code;
  Rej.Error = Code == ErrorCode::ShuttingDown
                  ? "server: submission rejected (shutting down)"
                  : "server: submission rejected (queue full)";
  Rej.Done = std::chrono::steady_clock::now();
  R.Promise.set_value(std::move(Rej));
  return F;
}

std::future<Reply> Server::vadd(const mw::Bignum &Q, const std::uint64_t *A,
                                const std::uint64_t *B, std::uint64_t *C,
                                size_t N, std::uint64_t DeadlineUs) {
  Request R;
  R.Kind = ReqKind::VAdd;
  R.Q = Q;
  R.A = A;
  R.B = B;
  R.C = C;
  R.N = N;
  R.Key = "va/" + Q.toHex();
  R.DeadlineUs = DeadlineUs;
  return submit(std::move(R));
}

std::future<Reply> Server::vmul(const mw::Bignum &Q, const std::uint64_t *A,
                                const std::uint64_t *B, std::uint64_t *C,
                                size_t N, std::uint64_t DeadlineUs) {
  Request R;
  R.Kind = ReqKind::VMul;
  R.Q = Q;
  R.A = A;
  R.B = B;
  R.C = C;
  R.N = N;
  R.Key = "vm/" + Q.toHex();
  R.DeadlineUs = DeadlineUs;
  return submit(std::move(R));
}

std::future<Reply> Server::polyMul(const mw::Bignum &Q,
                                   const std::uint64_t *A,
                                   const std::uint64_t *B, std::uint64_t *C,
                                   size_t NPoints, rewrite::NttRing Ring,
                                   std::uint64_t DeadlineUs) {
  Request R;
  R.Kind = ReqKind::PolyMul;
  R.Q = Q;
  R.Ring = Ring;
  R.A = A;
  R.B = B;
  R.C = C;
  R.N = NPoints;
  R.Key = "pm/" + Q.toHex() + "/" + std::to_string(NPoints) + "/" +
          ringTag(Ring);
  R.DeadlineUs = DeadlineUs;
  return submit(std::move(R));
}

std::future<Reply> Server::nttForward(const mw::Bignum &Q,
                                      std::uint64_t *Data, size_t NPoints,
                                      rewrite::NttRing Ring,
                                      std::uint64_t DeadlineUs) {
  Request R;
  R.Kind = ReqKind::NttForward;
  R.Q = Q;
  R.Ring = Ring;
  R.C = Data;
  R.N = NPoints;
  R.Key = "nf/" + Q.toHex() + "/" + std::to_string(NPoints) + "/" +
          ringTag(Ring);
  R.DeadlineUs = DeadlineUs;
  return submit(std::move(R));
}

std::future<Reply> Server::nttInverse(const mw::Bignum &Q,
                                      std::uint64_t *Data, size_t NPoints,
                                      rewrite::NttRing Ring,
                                      std::uint64_t DeadlineUs) {
  Request R;
  R.Kind = ReqKind::NttInverse;
  R.Q = Q;
  R.Ring = Ring;
  R.C = Data;
  R.N = NPoints;
  R.Key = "ni/" + Q.toHex() + "/" + std::to_string(NPoints) + "/" +
          ringTag(Ring);
  R.DeadlineUs = DeadlineUs;
  return submit(std::move(R));
}

std::future<Reply> Server::rnsPolyMul(const runtime::RnsContext &Ctx,
                                      const std::uint64_t *A,
                                      const std::uint64_t *B,
                                      std::uint64_t *C, size_t NPoints,
                                      rewrite::NttRing Ring,
                                      std::uint64_t DeadlineUs) {
  Request R;
  R.Kind = ReqKind::RnsPolyMul;
  R.Ctx = &Ctx;
  R.Ring = Ring;
  R.A = A;
  R.B = B;
  R.C = C;
  R.N = NPoints;
  // Context identity (not value) keys the batch: requests through the
  // same RnsContext share limb bases and tables by construction.
  R.Key = "rp/" +
          std::to_string(reinterpret_cast<std::uintptr_t>(&Ctx)) + "/" +
          std::to_string(NPoints) + "/" + ringTag(Ring);
  R.DeadlineUs = DeadlineUs;
  return submit(std::move(R));
}

std::future<Reply> Server::submitCtMul(fhe::Ciphertext &A,
                                       fhe::Ciphertext &B,
                                       fhe::Ciphertext &Out,
                                       std::uint64_t DeadlineUs) {
  Request R;
  // Malformed products are rejected at the door with the typed code —
  // no queue slot, no worker wakeup.
  if (!A.valid() || !B.valid() || A.size() != 2 || B.size() != 2 ||
      &A.context() != &B.context()) {
    std::future<Reply> F = R.Promise.get_future();
    {
      std::lock_guard<std::mutex> G(QMu);
      ++S.Rejected;
    }
    Reply Rej;
    Rej.Code = ErrorCode::InvalidRequest;
    Rej.Error = "server: ctMul needs two degree-1 ciphertexts over one "
                "chain";
    Rej.Done = std::chrono::steady_clock::now();
    R.Promise.set_value(std::move(Rej));
    return F;
  }
  R.Kind = ReqKind::CtMul;
  R.Ctx = &A.context();
  R.Ring = A.Polys[0].ring();
  R.CtA = &A;
  R.CtB = &B;
  R.CtOut = &Out;
  R.N = A.Polys[0].nPoints();
  R.Key = "cm/" +
          std::to_string(reinterpret_cast<std::uintptr_t>(R.Ctx)) + "/" +
          std::to_string(R.N) + "/" + ringTag(R.Ring);
  R.DeadlineUs = DeadlineUs;
  return submit(std::move(R));
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
  for (Request &R : Expired) {
    Reply Rep;
    Rep.Code = ErrorCode::DeadlineExceeded;
    Rep.Error = "server: deadline exceeded while queued";
    Rep.Done = std::chrono::steady_clock::now();
    R.Promise.set_value(std::move(Rep));
  }
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

  Reply R;
  R.Ok = Ok;
  if (!Ok) {
    R.Code = Code == ErrorCode::Ok ? ErrorCode::DispatchFailed : Code;
    R.Error = Error.empty() ? "server: dispatch failed" : Error;
  }
  R.Done = std::chrono::steady_clock::now();
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
  Request &R0 = Batch.front();
  bool Ok = false;

  switch (R0.Kind) {
  case ReqKind::VAdd:
  case ReqKind::VMul: {
    auto Call = [&](const std::uint64_t *A, const std::uint64_t *B,
                    std::uint64_t *C, size_t N) {
      return R0.Kind == ReqKind::VAdd ? D.vadd(R0.Q, A, B, C, N)
                                      : D.vmul(R0.Q, A, B, C, N);
    };
    if (Batch.size() == 1) {
      Ok = Call(R0.A, R0.B, R0.C, R0.N); // zero-copy fast path
      break;
    }
    // Element-wise ops are pointwise, so requests of any lengths under
    // one modulus concatenate into a single flat dispatch.
    const unsigned K = runtime::Dispatcher::elemWords(R0.Q);
    size_t Total = 0;
    for (const Request &R : Batch)
      Total += R.N;
    W.SA.resize(Total * K);
    W.SB.resize(Total * K);
    W.SC.resize(Total * K);
    size_t Off = 0;
    for (const Request &R : Batch) {
      std::copy(R.A, R.A + R.N * K, W.SA.data() + Off);
      std::copy(R.B, R.B + R.N * K, W.SB.data() + Off);
      Off += R.N * K;
    }
    Ok = Call(W.SA.data(), W.SB.data(), W.SC.data(), Total);
    if (Ok) {
      Off = 0;
      for (Request &R : Batch) {
        std::copy(W.SC.data() + Off, W.SC.data() + Off + R.N * K, R.C);
        Off += R.N * K;
      }
    }
    break;
  }

  case ReqKind::PolyMul: {
    if (Batch.size() == 1) {
      Ok = D.polyMul(R0.Q, R0.A, R0.B, R0.C, R0.N, 1, R0.Ring);
      break;
    }
    const unsigned K = runtime::Dispatcher::elemWords(R0.Q);
    const size_t Row = R0.N * K; // words per polynomial
    W.SA.resize(Batch.size() * Row);
    W.SB.resize(Batch.size() * Row);
    W.SC.resize(Batch.size() * Row);
    for (size_t I = 0; I < Batch.size(); ++I) {
      std::copy(Batch[I].A, Batch[I].A + Row, W.SA.data() + I * Row);
      std::copy(Batch[I].B, Batch[I].B + Row, W.SB.data() + I * Row);
    }
    Ok = D.polyMul(R0.Q, W.SA.data(), W.SB.data(), W.SC.data(), R0.N,
                   Batch.size(), R0.Ring);
    if (Ok)
      for (size_t I = 0; I < Batch.size(); ++I)
        std::copy(W.SC.data() + I * Row, W.SC.data() + (I + 1) * Row,
                  Batch[I].C);
    break;
  }

  case ReqKind::NttForward:
  case ReqKind::NttInverse: {
    const bool Fwd = R0.Kind == ReqKind::NttForward;
    if (Batch.size() == 1) {
      Ok = Fwd ? D.nttForward(R0.Q, R0.C, R0.N, 1, R0.Ring)
               : D.nttInverse(R0.Q, R0.C, R0.N, 1, R0.Ring);
      break;
    }
    const unsigned K = runtime::Dispatcher::elemWords(R0.Q);
    const size_t Row = R0.N * K;
    W.SA.resize(Batch.size() * Row);
    for (size_t I = 0; I < Batch.size(); ++I)
      std::copy(Batch[I].C, Batch[I].C + Row, W.SA.data() + I * Row);
    Ok = Fwd ? D.nttForward(R0.Q, W.SA.data(), R0.N, Batch.size(), R0.Ring)
             : D.nttInverse(R0.Q, W.SA.data(), R0.N, Batch.size(), R0.Ring);
    if (Ok)
      for (size_t I = 0; I < Batch.size(); ++I)
        std::copy(W.SA.data() + I * Row, W.SA.data() + (I + 1) * Row,
                  Batch[I].C);
    break;
  }

  case ReqKind::RnsPolyMul: {
    if (Batch.size() == 1) {
      Ok = D.rnsPolyMul(*R0.Ctx, R0.A, R0.B, R0.C, R0.N, 1, R0.Ring);
      break;
    }
    const size_t Row = R0.N * R0.Ctx->wideWords();
    W.SA.resize(Batch.size() * Row);
    W.SB.resize(Batch.size() * Row);
    W.SC.resize(Batch.size() * Row);
    for (size_t I = 0; I < Batch.size(); ++I) {
      std::copy(Batch[I].A, Batch[I].A + Row, W.SA.data() + I * Row);
      std::copy(Batch[I].B, Batch[I].B + Row, W.SB.data() + I * Row);
    }
    Ok = D.rnsPolyMul(*R0.Ctx, W.SA.data(), W.SB.data(), W.SC.data(), R0.N,
                      Batch.size(), R0.Ring);
    if (Ok)
      for (size_t I = 0; I < Batch.size(); ++I)
        std::copy(W.SC.data() + I * Row, W.SC.data() + (I + 1) * Row,
                  Batch[I].C);
    break;
  }

  case ReqKind::CtMul: {
    // Ciphertext products carry per-request lazy-domain state in their
    // tensors, so the coalesced batch shares a worker wakeup but each
    // product runs as its own dispatcher-call sequence — cross-request
    // staging would force every operand back to one domain and destroy
    // the NTT elision the tensor API provides. The first failure fails
    // the whole batch (uniform replies, same contract as other kinds).
    Ok = true;
    for (Request &R : Batch)
      if (!fhe::ciphertextMul(D, *R.CtA, *R.CtB, *R.CtOut)) {
        Ok = false;
        break;
      }
    break;
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

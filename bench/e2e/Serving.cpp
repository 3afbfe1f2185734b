//===- bench/e2e/Serving.cpp - fhe-serve and tenant-churn workloads -------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
//
// The two serving workloads drive one service::Server (Workers = 2, shared
// Autotuner) from one generator thread, using it in opposite ways:
//
//  * fhe-serve — heavy requests that all share one key: 60% submitCtMul,
//    40% rnsPolyMul, on one negacyclic context with n = 2048 and L = 4.
//    It stresses the coalescer, the RNS CRT edges, the FHE layer and the
//    word-size NTTs: latency under load for the paper's FHE use.
//  * tenant-churn — tiny requests (256-element vmul, n = 64 polyMul) from
//    96 tenants, each with its own modulus (32 each at 60, 124 and 252
//    bits). Keys differ, so little coalesces, and 192 bindings per worker
//    exceed the Dispatcher's 128-entry bound cache: the time goes to
//    queueing, binding and per-dispatch overhead, not to kernels.
//
// The measured phase is an open loop: requests are due at seeded
// exponential inter-arrivals at the workload's nominal rate, and each
// latency runs from the request's *scheduled* send time to Reply.Done, so
// a stall charges every request queued behind it. The nominal rates are
// frozen at about 40% (fhe-serve) and 25% (tenant-churn) of what one core
// of a 4-core Xeon serves, so latency tracks the cost of a request rather
// than how close a shared host's current speed brings the queue to
// saturation. Completed requests per CPU-second of the whole process give
// the rate.
//
//===----------------------------------------------------------------------===//

#include "Oracle.h"
#include "Workload.h"

#include "field/PrimeGen.h"
#include "field/RootOfUnity.h"
#include "service/Server.h"
#include "support/Format.h"

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <thread>

using namespace moma;
using namespace moma::e2e;
using runtime::KernelOp;
using service::Reply;

namespace {

/// Shared by both: the stack is one registry under one Server, and the
/// load generator is one thread plus a reaper that waits on replies.
class Serving : public Workload {
public:
  bool serves() const override { return true; }

  bool setup(const std::string &JitDir, Trace *T, std::uint32_t Parent,
             SetupStats &S, std::string &Err) override {
    double T0 = nowS();
    Reg = makeRegistry(JitDir);
    Srv = std::make_unique<service::Server>(*Reg, options());
    std::vector<TuneProblem> Ps = problems();
    if (!pretune(*Srv->tuner(), options().BasePlan, Ps, T, Parent,
                 Picks, S.TuneBusyS, Err))
      return false;
    {
      // Binds plans and builds NTT tables on both workers: 200 requests
      // sent ten times faster than the nominal rate.
      Scoped W(T, "workload.warmup", Parent);
      Ledger Warm;
      drive(10 * nominalRate(), 60, 200, Seed ^ 0x3A3Aull, nullptr, 0, Warm,
            false);
      if (Warm.Failed) {
        Err = "warm-up failed: " + Warm.Errors.front();
        return false;
      }
    }
    S.WallS = nowS() - T0;
    fillSetupStats(S, *Reg, *Srv->tuner(), Ps.size());
    return true;
  }

  void teardown() override {
    Srv.reset();
    Reg.reset();
  }

  std::uint64_t tunedSoFar() const override {
    return Srv->tuner()->stats().Tuned;
  }
  StackView stack() override {
    return {Reg.get(), Srv->tuner(), options().BasePlan};
  }

  void measure(double Seconds, Trace *T, std::uint32_t Parent, Ledger &L,
               MetricMap &M) override {
    service::Server::Stats S0 = Srv->stats();
    PhaseResult Open;
    {
      Scoped Span(T, "workload.open_loop", Parent);
      Open = drive(nominalRate(), Seconds, ~size_t(0), Seed ^ NominalSeed, T,
                   Span.id(), L, true);
    }
    service::Server::Stats S1 = Srv->stats();
    L.Attempted += Open.Sent;

    // Completions per CPU-second in each tenth of the phase, and their
    // median: a slow stretch of a shared host moves fewer than half.
    std::vector<double> Rates;
    for (size_t I = 0; I + 1 < Open.CpuMarks.size(); ++I) {
      const auto &A = Open.CpuMarks[I], &B = Open.CpuMarks[I + 1];
      size_t N = 0;
      for (double At : Open.DoneAt)
        N += At >= A.first && At < B.first;
      if (B.second > A.second)
        Rates.push_back(N / (B.second - A.second));
    }
    std::vector<double> &Lat = Open.LatS;
    M["p50_ms"] = {percentile(Lat, 0.50) * 1e3, "ms"};
    M["service.p99_ms"] = {percentile(Lat, 0.99) * 1e3, "ms"};
    M["req_per_cpu_s"] = {median(Rates), "req/cpu-s"};
    std::printf("  open loop: %llu requests at %.0f/s nominal, p50 %.3f ms, "
                "p90 %.3f ms, p99 %.3f ms (%zu samples), %.0f requests per "
                "CPU-second\n",
                static_cast<unsigned long long>(Open.Sent), nominalRate(),
                M["p50_ms"].Value, percentile(Lat, 0.90) * 1e3,
                M["service.p99_ms"].Value, Lat.size(),
                M["req_per_cpu_s"].Value);

    std::uint64_t Reqs = S1.Requests - S0.Requests;
    std::uint64_t Disp = S1.Dispatches - S0.Dispatches;
    M["service.reqs_per_dispatch"] = {Disp ? double(Reqs) / Disp : 0,
                                      "count"};
    M["service.max_batch"] = {double(S1.MaxBatchSize), "count"};
    M["service.queue_depth_max"] = {double(Open.MaxQueue), "count"};
    M["service.submit_us"] = {median(Open.SubmitS) * 1e6, "us"};
    M["service.rejected"] = {double(S1.Rejected - S0.Rejected), "count"};
    M["service.deadline_expired"] = {
        double(S1.DeadlineExpired - S0.DeadlineExpired), "count"};
    M["loadgen.lag_p99_ms"] = {percentile(Open.LagS, 0.99) * 1e3, "ms"};
    M["loadgen.sent"] = {double(Open.Sent), "count"};
    M["loadgen.completed"] = {double(Open.LatS.size()), "count"};
  }

  size_t replay(runtime::Dispatcher &D, size_t Count, Ledger &L) override {
    Rng R(Seed ^ NominalSeed);
    size_t N = 0;
    for (; N < std::min(Count, replayCap()); ++N) {
      ReqSpec S = draw(R);
      (void)unitOpen(R); // the arrival draw, keeping the sequence aligned
      prepare(0, S);
      if (!direct(D, 0, S))
        L.fail(std::string(kindName(S.Kind)) + " (replay): " + D.error());
    }
    return N;
  }

protected:
  struct ReqSpec {
    unsigned Kind = 0, Tenant = 0, InA = 0, InB = 0;
  };

  /// One request's kind and operands, drawn from the traffic seed.
  virtual ReqSpec draw(Rng &R) const = 0;
  virtual const char *kindName(unsigned Kind) const = 0;
  /// Request slots: a slot's buffers are reused once its reply is reaped.
  virtual size_t numSlots() const = 0;
  /// Fills slot \p Slot's inputs for \p S (generator thread, before the
  /// send time).
  virtual void prepare(size_t Slot, const ReqSpec &S) = 0;
  virtual std::future<Reply> submit(size_t Slot, const ReqSpec &S) = 0;
  /// The same request run synchronously through \p D.
  virtual bool direct(runtime::Dispatcher &D, size_t Slot,
                      const ReqSpec &S) = 0;
  /// After a successful reply (reaper thread): keeps a sample of outputs
  /// for verify().
  virtual void keep(size_t Slot, const ReqSpec &S) = 0;
  virtual std::vector<TuneProblem> problems() const = 0;
  virtual double nominalRate() const = 0;
  virtual size_t replayCap() const = 0;

  static service::ServerOptions options() {
    service::ServerOptions O;
    O.Workers = 2;
    // Batches at the nominal rates stay far below this cap; 256 would
    // only add size buckets for set-up to pre-tune.
    O.MaxBatch = 32;
    O.UseAutotuner = true;
    O.TunerOpts = benchTunerOptions();
    return O;
  }

  std::uint64_t Seed = 0;
  std::unique_ptr<runtime::KernelRegistry> Reg;
  std::unique_ptr<service::Server> Srv;

private:
  static constexpr std::uint64_t NominalSeed = 0x0BE11ull;

  struct PhaseResult {
    /// Per successful request: latency, completion time, generator lag,
    /// submit time.
    std::vector<double> LatS, DoneAt, LagS, SubmitS;
    std::uint64_t Sent = 0;
    size_t MaxQueue = 0;
    /// (time, CPU time of the whole process) at eleven evenly spaced marks
    /// over the phase. Per CPU-second, a rate does not depend on how many
    /// cores a shared host lends at the time.
    std::vector<std::pair<double, double>> CpuMarks;
  };
  struct InFlight {
    std::uint64_t Id = 0;
    size_t Slot = 0;
    ReqSpec Spec;
    Clock::time_point Due;
    std::uint32_t SpanId = 0;
    std::future<Reply> F;
  };

  /// Runs an open loop: requests due at exponential inter-arrivals of
  /// \p Rate per second, for \p Seconds or \p MaxReqs requests, whichever
  /// ends first. \p Keep lets keep() sample the replies.
  PhaseResult drive(double Rate, double Seconds, size_t MaxReqs,
                    std::uint64_t PhaseSeed, Trace *T, std::uint32_t Parent,
                    Ledger &L, bool Keep) {
    PhaseResult Res;
    const Clock::time_point Start =
        Clock::now() + std::chrono::milliseconds(2);
    const Clock::time_point End =
        Start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(Seconds));

    const size_t Slots = numSlots();
    std::mutex Mu; // guards Busy, Queue, GenDone
    std::condition_variable SlotCv, QueueCv;
    std::vector<char> Busy(Slots, 0);
    std::deque<InFlight> Queue;
    bool GenDone = false;

    // Replies are reaped in submission order; latency comes from the
    // server's Done stamp, so reaping order never skews it.
    std::thread Reaper([&] {
      for (;;) {
        InFlight R;
        {
          std::unique_lock<std::mutex> G(Mu);
          QueueCv.wait(G, [&] { return !Queue.empty() || GenDone; });
          if (Queue.empty())
            return;
          R = std::move(Queue.front());
          Queue.pop_front();
        }
        Reply Rep = R.F.get();
        double Done = toS(Rep.Done);
        if (T)
          T->recordAs(R.SpanId, "service.request", toS(R.Due), Done, Parent,
                      R.Id);
        if (Rep.Ok) {
          Res.LatS.push_back(Done - toS(R.Due));
          Res.DoneAt.push_back(Done);
          if (Keep)
            keep(R.Slot, R.Spec);
        } else {
          L.fail(formatv("%s: %s: %s", kindName(R.Spec.Kind),
                         service::errorCodeName(Rep.Code),
                         Rep.Error.c_str()));
        }
        {
          std::lock_guard<std::mutex> G(Mu);
          Busy[R.Slot] = 0;
        }
        SlotCv.notify_one();
      }
    });
    // Lets the reaper drain what was submitted and joins it, on every way
    // out of this function (before Res is returned).
    class JoinReaper {
    public:
      JoinReaper(std::mutex &Mu, bool &GenDone, std::condition_variable &Cv,
                 std::thread &Th)
          : Mu(Mu), GenDone(GenDone), Cv(Cv), Th(Th) {}
      JoinReaper(const JoinReaper &) = delete;
      JoinReaper &operator=(const JoinReaper &) = delete;
      ~JoinReaper() {
        {
          std::lock_guard<std::mutex> G(Mu);
          GenDone = true;
        }
        Cv.notify_one();
        Th.join();
      }

    private:
      std::mutex &Mu;
      bool &GenDone;
      std::condition_variable &Cv;
      std::thread &Th;
    };
    std::optional<JoinReaper> Join(std::in_place, Mu, GenDone, QueueCv,
                                   Reaper);

    Rng R(PhaseSeed);
    Clock::time_point NextHealth = Start;
    double At = 0, NextMark = toS(Start);
    for (std::uint64_t Id = 0; Id < MaxReqs; ++Id) {
      if (nowS() >= NextMark) {
        Res.CpuMarks.push_back({nowS(), processCpuS()});
        NextMark += Seconds / 10;
      }
      ReqSpec S = draw(R);
      At += -std::log(unitOpen(R)) / Rate;
      const Clock::time_point Due =
          Start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(At));
      if (Due >= End)
        break;
      size_t Slot = Id % Slots;
      {
        std::unique_lock<std::mutex> G(Mu);
        SlotCv.wait(G, [&] { return !Busy[Slot]; });
        Busy[Slot] = 1;
      }
      prepare(Slot, S);
      // Sleeping, not spinning: a spinning client would take CPU from the
      // workers. How late the wake-up runs is loadgen.lag_p99_ms, and it
      // counts in the request's latency.
      std::this_thread::sleep_until(Due);
      InFlight F;
      F.Id = Id + 1;
      F.Slot = Slot;
      F.Spec = S;
      F.Due = Due;
      F.SpanId = T ? T->reserve() : 0;
      double S0 = nowS();
      F.F = submit(Slot, S);
      double S1 = nowS();
      Res.LagS.push_back(S0 - toS(Due));
      Res.SubmitS.push_back(S1 - S0);
      if (T) {
        T->record("service.submit", S0, S1, F.SpanId, F.Id);
        // The queue depth the coalescer sees, sampled once a millisecond.
        if (Clock::now() >= NextHealth) {
          Res.MaxQueue = std::max(Res.MaxQueue, Srv->health().QueueDepth);
          NextHealth = Clock::now() + std::chrono::milliseconds(1);
        }
      }
      {
        std::lock_guard<std::mutex> G(Mu);
        Queue.push_back(std::move(F));
      }
      QueueCv.notify_one();
      ++Res.Sent;
    }
    Res.CpuMarks.push_back({nowS(), processCpuS()});
    Join.reset();
    return Res;
  }
};

//===----------------------------------------------------------------------===//
// fhe-serve
//===----------------------------------------------------------------------===//

class FheServe final : public Serving {
public:
  const char *name() const override { return "fhe-serve"; }

  void generate(std::uint64_t S) override {
    Seed = S;
    fhe::FheOptions O;
    O.NPoints = NPoints;
    O.NumLimbs = 4;
    O.PlainModulus = 65537;
    O.Ring = rewrite::NttRing::Negacyclic;
    std::string Err;
    if (!fhe::FheContext::create(O, FC, &Err)) {
      std::fprintf(stderr, "fhe-serve: %s\n", Err.c_str());
      std::exit(1);
    }
    // Operands are encrypted here, by the benchmark's own toy scheme
    // (Oracle.h): library encryption costs about a second per ciphertext
    // of host Bignum work and would dwarf the run.
    Rng R(Seed ^ 0xF4E5ull);
    Key = toyKeyGen(NPoints, R);
    const runtime::RnsContext &Ctx = FC.rns();
    for (size_t I = 0; I < Pool; ++I) {
      Msgs[I].resize(NPoints);
      for (std::uint64_t &M : Msgs[I])
        M = R.below(65537);
      Cts[I] = toyEncrypt(FC, Key, Msgs[I], R);
      WideA[I] = randomBatch(R, Ctx.modulus(), NPoints);
      WideB[I] = randomBatch(R, Ctx.modulus(), NPoints);
    }
    Slot.resize(numSlots());
    for (SlotBufs &B : Slot)
      B.C.assign(NPoints * Ctx.wideWords(), 0);
    ProbeOut.assign(NPoints, 0);
    OracleRng.reseed(Seed ^ 0x0AC1Eull);
  }

  std::vector<KernelCase> kernelCases() override {
    // The ciphertext product's per-limb pointwise multiply and add.
    const runtime::RnsContext &Ctx = FC.rns();
    const std::uint64_t *A = Cts[0].Polys[0].limbData(0);
    const std::uint64_t *B = Cts[1].Polys[0].limbData(0);
    return {{"ctmul_vmul_q60", KernelOp::MulMod, Ctx.limb(0), NPoints, A, B,
             ProbeOut.data()},
            {"ctmul_vadd_q60", KernelOp::AddMod, Ctx.limb(0), NPoints, A, B,
             ProbeOut.data()}};
  }

  bool nttShape(NttShape &S) const override {
    S = {FC.rns().limb(0), NPoints, 1, rewrite::NttRing::Negacyclic};
    return true;
  }

  void verify(Trace *T, std::uint32_t Parent, Ledger &L) override {
    // Ciphertext products are read back through the inverse transforms of
    // a fresh dispatcher, then decrypted by the benchmark's own arithmetic
    // and compared with the plaintext product.
    runtime::Dispatcher D(*Reg, Srv->tuner());
    for (CtSample &Sm : CtKept) {
      Scoped S(T, "oracle.ct_decrypt", Parent);
      std::vector<std::uint64_t> Got;
      bool Ok = true;
      for (runtime::RnsTensor &P : Sm.Out.Polys)
        Ok = Ok && D.rnsNttInverse(P);
      if (!Ok || !toyDecrypt(FC, Key, Sm.Out, Got) ||
          Got != plainProduct(Msgs[Sm.A], Msgs[Sm.B], 65537))
        L.fail("ctMul: decrypted product differs from the plaintext "
               "product");
    }
    for (const PolySample &Sm : PolyKept) {
      Scoped S(T, "oracle.poly_eval", Parent);
      if (!wideNegacyclicProductHolds(FC.rns(), WideA[Sm.A].data(),
                                      WideB[Sm.B].data(), Sm.C.data(),
                                      NPoints, OracleRng))
        L.fail("rnsPolyMul: product fails the evaluation check");
    }
  }

  void probeLayers(Trace *T, std::uint32_t Parent, MetricMap &M) override {
    const runtime::RnsContext &Ctx = FC.rns();
    runtime::Dispatcher D(*Reg, Srv->tuner());
    const rewrite::NttRing Neg = rewrite::NttRing::Negacyclic;
    runtime::RnsTensor TA(Ctx, NPoints, 1, Neg), TB(Ctx, NPoints, 1, Neg),
        TC(Ctx, NPoints, 1, Neg);
    std::vector<std::uint64_t> Wide(NPoints * Ctx.wideWords());
    const int Reps = 15;
    // Median over repetitions of one call, in microseconds.
    auto Time = [&](const char *Span, auto &&Before, auto &&Call) {
      std::vector<double> Us;
      for (int I = 0; I < Reps; ++I) {
        Before();
        double T0 = nowS();
        Call();
        double T1 = nowS();
        if (T)
          T->record(Span, T0, T1, Parent);
        Us.push_back((T1 - T0) * 1e6);
      }
      return median(Us);
    };
    auto Nothing = [] {};
    M["rns.from_wide_us"] = {
        Time("rns.from_wide", Nothing,
             [&] { D.fromWide(WideA[0].data(), TA); }),
        "us"};
    M["rns.to_wide_us"] = {
        Time("rns.to_wide", Nothing, [&] { D.toWide(TA, Wide.data()); }),
        "us"};
    M["rns.flat_polymul_us"] = {
        Time("rns.flat_polymul", Nothing,
             [&] {
               D.rnsPolyMul(Ctx, WideA[0].data(), WideB[0].data(),
                            Wide.data(), NPoints, 1, Neg);
             }),
        "us"};
    // Resident operands in coefficient form: the product pays the forward
    // transforms and pointwise multiplies, but no CRT edge.
    M["rns.resident_polymul_us"] = {
        Time("rns.resident_polymul",
             [&] {
               D.fromWide(WideA[0].data(), TA);
               D.fromWide(WideB[0].data(), TB);
             },
             [&] { D.rnsPolyMul(TA, TB, TC); }),
        "us"};
    fhe::Ciphertext A, B, Out;
    std::uint64_t Transforms = 0;
    M["fhe.ctmul_ms"] = {Time("fhe.ctmul",
                              [&] {
                                A = Cts[0];
                                B = Cts[1];
                                Transforms = D.dispatchStats().Transforms;
                              },
                              [&] { fhe::ciphertextMul(D, A, B, Out); }) /
                             1e3,
                         "ms"};
    M["fhe.ctmul_transforms"] = {
        double(D.dispatchStats().Transforms - Transforms), "count"};
  }

protected:
  ReqSpec draw(Rng &R) const override {
    ReqSpec S;
    S.Kind = R.below(10) < 6 ? CtMul : PolyMul;
    S.InA = static_cast<unsigned>(R.below(Pool));
    S.InB = static_cast<unsigned>(R.below(Pool));
    return S;
  }
  const char *kindName(unsigned Kind) const override {
    return Kind == CtMul ? "ctMul" : "rnsPolyMul";
  }
  size_t numSlots() const override { return 64; }

  void prepare(size_t I, const ReqSpec &S) override {
    // Fresh coefficient-form operands per request: the product moves its
    // operands into NTT form, so reusing them would skip the transforms
    // (and two in-flight products must never share an operand).
    if (S.Kind == CtMul) {
      Slot[I].A = Cts[S.InA];
      Slot[I].B = Cts[S.InB];
    }
  }

  std::future<Reply> submit(size_t I, const ReqSpec &S) override {
    SlotBufs &B = Slot[I];
    if (S.Kind == CtMul)
      return Srv->submitCtMul(B.A, B.B, B.Out);
    return Srv->rnsPolyMul(FC.rns(), WideA[S.InA].data(), WideB[S.InB].data(),
                           B.C.data(), NPoints, rewrite::NttRing::Negacyclic);
  }

  bool direct(runtime::Dispatcher &D, size_t I, const ReqSpec &S) override {
    SlotBufs &B = Slot[I];
    if (S.Kind == CtMul)
      return fhe::ciphertextMul(D, B.A, B.B, B.Out);
    return D.rnsPolyMul(FC.rns(), WideA[S.InA].data(), WideB[S.InB].data(),
                        B.C.data(), NPoints, 1, rewrite::NttRing::Negacyclic);
  }

  void keep(size_t I, const ReqSpec &S) override {
    // Every 8th reply per kind, up to a cap: a decryption check costs
    // tens of milliseconds.
    if (S.Kind == CtMul) {
      if (CtSeen++ % 8 == 0 && CtKept.size() < 12)
        CtKept.push_back({S.InA, S.InB, std::move(Slot[I].Out)});
    } else if (PolySeen++ % 4 == 0 && PolyKept.size() < 32) {
      PolyKept.push_back({S.InA, S.InB, Slot[I].C});
    }
  }

  std::vector<TuneProblem> problems() const override {
    // Every limb has the same width, so one limb stands for the chain. A
    // ctMul dispatches one row at a time; rnsPolyMul requests coalesce
    // into batches of up to MaxBatch rows.
    const mw::Bignum &Q = FC.rns().limb(0);
    const size_t MaxBatch = options().MaxBatch;
    std::vector<TuneProblem> Ps;
    addTransform(Ps, Q, NPoints, 1, MaxBatch, rewrite::NttRing::Negacyclic);
    addElementwise(Ps, KernelOp::MulMod, Q, NPoints, 1, MaxBatch);
    addElementwise(Ps, KernelOp::AddMod, Q, NPoints, 1, 1);
    return Ps;
  }

  double nominalRate() const override { return 100; }
  size_t replayCap() const override { return 64; }

private:
  static constexpr size_t NPoints = 2048;
  static constexpr size_t Pool = 8;
  enum : unsigned { CtMul = 0, PolyMul = 1 };
  struct SlotBufs {
    fhe::Ciphertext A, B, Out;
    std::vector<std::uint64_t> C;
  };
  struct CtSample {
    unsigned A, B;
    fhe::Ciphertext Out;
  };
  struct PolySample {
    unsigned A, B;
    std::vector<std::uint64_t> C;
  };

  fhe::FheContext FC;
  ToyKey Key;
  std::vector<std::uint64_t> Msgs[Pool];
  fhe::Ciphertext Cts[Pool];
  std::vector<std::uint64_t> WideA[Pool], WideB[Pool];
  std::vector<SlotBufs> Slot;
  std::vector<std::uint64_t> ProbeOut;
  std::uint64_t CtSeen = 0, PolySeen = 0;
  std::vector<CtSample> CtKept;
  std::vector<PolySample> PolyKept;
  Rng OracleRng;
};

//===----------------------------------------------------------------------===//
// tenant-churn
//===----------------------------------------------------------------------===//

class TenantChurn final : public Serving {
public:
  const char *name() const override { return "tenant-churn"; }

  void generate(std::uint64_t S) override {
    Seed = S;
    // Tenant moduli are part of the workload, not of the seed: the seed
    // picks the data and the request stream.
    const unsigned Widths[] = {60, 124, 252};
    Rng R(Seed ^ 0xC4124ull);
    for (unsigned T = 0; T < NumTenants; ++T) {
      Tenant &Tn = Tenants[T];
      Tn.Q = field::nttPrime(Widths[T / 32], 16, 7000 + T);
      Tn.Root = field::rootOfUnity(Tn.Q, PolyPoints);
      Tn.VA = randomBatch(R, Tn.Q, VecElems);
      Tn.VB = randomBatch(R, Tn.Q, VecElems);
      Tn.PA = randomBatch(R, Tn.Q, PolyPoints);
      Tn.PB = randomBatch(R, Tn.Q, PolyPoints);
    }
    Slot.assign(numSlots(), std::vector<std::uint64_t>(VecElems * 4, 0));
    OracleRng.reseed(Seed ^ 0x0AC1Eull);
  }

  std::vector<KernelCase> kernelCases() override {
    std::vector<KernelCase> Out;
    for (unsigned T = 0; T < NumTenants; T += 32) {
      Tenant &Tn = Tenants[T];
      Out.push_back({formatv("vmul_m%u", Tn.Q.bitWidth()), KernelOp::MulMod,
                     Tn.Q, VecElems, Tn.VA.data(), Tn.VB.data(),
                     Slot[0].data()});
    }
    return Out;
  }

  bool nttShape(NttShape &S) const override {
    S = {Tenants[NumTenants - 1].Q, PolyPoints, 1, rewrite::NttRing::Cyclic};
    return true;
  }

  void verify(Trace *T, std::uint32_t Parent, Ledger &L) override {
    for (const Sample &Sm : Kept) {
      const Tenant &Tn = Tenants[Sm.Tenant];
      if (Sm.Kind == VMul) {
        Scoped S(T, "oracle.elements", Parent);
        if (elementMismatches(KernelOp::MulMod, Tn.Q, Tn.VA.data(),
                              Tn.VB.data(), Sm.C.data(), VecElems, 0, 61))
          L.fail(formatv("vmul (tenant %u): every-61st element check "
                         "failed",
                         Sm.Tenant));
      } else {
        Scoped S(T, "oracle.poly_eval", Parent);
        if (!polyProductHolds(Tn.Q, Tn.Root, Tn.PA.data(), Tn.PB.data(),
                              Sm.C.data(), PolyPoints, OracleRng))
          L.fail(formatv("polyMul (tenant %u): product fails the "
                         "evaluation check",
                         Sm.Tenant));
      }
    }
  }

protected:
  ReqSpec draw(Rng &R) const override {
    ReqSpec S;
    S.Kind = R.below(2) ? PolyMul : VMul;
    S.Tenant = static_cast<unsigned>(R.below(NumTenants));
    return S;
  }
  const char *kindName(unsigned Kind) const override {
    return Kind == VMul ? "vmul" : "polyMul";
  }
  size_t numSlots() const override { return 1024; }
  void prepare(size_t, const ReqSpec &) override {}

  std::future<Reply> submit(size_t I, const ReqSpec &S) override {
    const Tenant &Tn = Tenants[S.Tenant];
    if (S.Kind == VMul)
      return Srv->vmul(Tn.Q, Tn.VA.data(), Tn.VB.data(), Slot[I].data(),
                       VecElems);
    return Srv->polyMul(Tn.Q, Tn.PA.data(), Tn.PB.data(), Slot[I].data(),
                        PolyPoints);
  }

  bool direct(runtime::Dispatcher &D, size_t I, const ReqSpec &S) override {
    const Tenant &Tn = Tenants[S.Tenant];
    if (S.Kind == VMul)
      return D.vmul(Tn.Q, Tn.VA.data(), Tn.VB.data(), Slot[I].data(),
                    VecElems);
    return D.polyMul(Tn.Q, Tn.PA.data(), Tn.PB.data(), Slot[I].data(),
                     PolyPoints, 1);
  }

  void keep(size_t I, const ReqSpec &S) override {
    if (Seen++ % 16 != 0 || Kept.size() >= 1500)
      return;
    size_t Words = (S.Kind == VMul ? VecElems : PolyPoints) *
                   ((Tenants[S.Tenant].Q.bitWidth() + 63) / 64);
    Kept.push_back({S.Kind, S.Tenant,
                    std::vector<std::uint64_t>(Slot[I].begin(),
                                               Slot[I].begin() + Words)});
  }

  std::vector<TuneProblem> problems() const override {
    // The tuner keys on the modulus width, so the first tenant of each
    // width stands for all 32.
    const size_t MaxBatch = options().MaxBatch;
    std::vector<TuneProblem> Ps;
    for (unsigned T = NumTenants; T > 0; T -= 32) {
      const mw::Bignum &Q = Tenants[T - 32].Q;
      addTransform(Ps, Q, PolyPoints, 1, MaxBatch, rewrite::NttRing::Cyclic);
      addElementwise(Ps, KernelOp::MulMod, Q, PolyPoints, 1, MaxBatch);
      addElementwise(Ps, KernelOp::MulMod, Q, VecElems, 1, MaxBatch);
    }
    return Ps;
  }

  double nominalRate() const override { return 3000; }
  size_t replayCap() const override { return 4096; }

private:
  static constexpr unsigned NumTenants = 96;
  static constexpr size_t VecElems = 256, PolyPoints = 64;
  enum : unsigned { VMul = 0, PolyMul = 1 };
  struct Tenant {
    mw::Bignum Q, Root;
    std::vector<std::uint64_t> VA, VB, PA, PB;
  };
  struct Sample {
    unsigned Kind, Tenant;
    std::vector<std::uint64_t> C;
  };

  Tenant Tenants[NumTenants];
  std::vector<std::vector<std::uint64_t>> Slot;
  std::uint64_t Seen = 0;
  std::vector<Sample> Kept;
  Rng OracleRng;
};

} // namespace

std::unique_ptr<Workload> moma::e2e::makeFheServe() {
  return std::make_unique<FheServe>();
}
std::unique_ptr<Workload> moma::e2e::makeTenantChurn() {
  return std::make_unique<TenantChurn>();
}

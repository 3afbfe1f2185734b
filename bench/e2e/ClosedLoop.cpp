//===- bench/e2e/ClosedLoop.cpp - blas-wide and ntt-zkp workloads ---------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
//
// The two closed-loop workloads: one client thread calls the Dispatcher,
// whose Autotuner and KernelRegistry it owns; no Server is in the path.
//
//  * blas-wide — the paper's BLAS (§5.2): vmul and vadd at the evaluation
//    moduli of 128/256/512-bit containers on 2^16-element batches (in
//    cache), plus 128-bit on a 2^24-element batch (768 MiB over three
//    arrays, beyond the last-level cache). vmul is multiply-bound, the
//    streaming vadd bandwidth-bound; nearly all time is in the generated
//    kernel. 1024-bit is left out: its cold tuning alone takes over a
//    minute.
//  * ntt-zkp — cyclic polyMul at a 256-bit (ZKP scalar-field sized)
//    modulus, n = 2^12 (the paper's Fig. 1/5a size) and n = 2^14 (512 KB
//    per polynomial, above L2), batch 4: the fused stage groups, twiddle
//    tables and butterfly kernel, and nothing of the Server, CRT or wide
//    BLAS paths.
//
//===----------------------------------------------------------------------===//

#include "Oracle.h"
#include "Workload.h"

#include "field/PrimeGen.h"
#include "field/RootOfUnity.h"
#include "support/Format.h"

#include <cstdio>

using namespace moma;
using namespace moma::e2e;
using runtime::KernelOp;

namespace {

/// Shared by both: the stack is one registry, tuner, and dispatcher.
class ClosedLoop : public Workload {
public:
  bool setup(const std::string &JitDir, Trace *T, std::uint32_t Parent,
             SetupStats &S, std::string &Err) override {
    double T0 = nowS();
    Reg = makeRegistry(JitDir);
    Tuner = std::make_unique<runtime::Autotuner>(*Reg, benchTunerOptions());
    D = std::make_unique<runtime::Dispatcher>(*Reg, Tuner.get());
    std::vector<TuneProblem> Ps = problems();
    if (!pretune(*Tuner, rewrite::PlanOptions(), Ps, T, Parent, Picks,
                 S.TuneBusyS, Err))
      return false;
    {
      Scoped W(T, "workload.warmup", Parent);
      if (!warmup(Err))
        return false;
    }
    S.WallS = nowS() - T0;
    fillSetupStats(S, *Reg, *Tuner, Ps.size());
    return true;
  }

  void teardown() override {
    D.reset();
    Tuner.reset();
    Reg.reset();
  }

  std::uint64_t tunedSoFar() const override { return Tuner->stats().Tuned; }
  StackView stack() override {
    return {Reg.get(), Tuner.get(), rewrite::PlanOptions()};
  }

  void measure(double Seconds, Trace *T, std::uint32_t Parent, Ledger &L,
               MetricMap &M) override {
    // Passes interleave the cases, so slow drift on a shared host lands
    // on every case alike instead of on whichever ran last.
    const int Passes = 4;
    const size_t NCases = numCases();
    const double Budget = Seconds / (Passes * NCases);
    std::vector<CaseTimes> Times(NCases);
    for (size_t C = 0; C < NCases; ++C)
      Times[C].Name = caseName(C);
    std::uint64_t Sent = 0, Done = 0;
    for (int P = 0; P < Passes; ++P) {
      Scoped PassSpan(T, "workload.pass", Parent);
      for (size_t C = 0; C < NCases; ++C) {
        double Start = nowS();
        do {
          double Cpu0 = threadCpuS(), T0 = nowS();
          bool Ok = call(*D, C, false);
          double T1 = nowS(), Cpu1 = threadCpuS();
          ++Sent;
          if (T)
            T->record(caseSpan(C), T0, T1, PassSpan.id(), Sent);
          ++L.Attempted;
          if (!Ok) {
            L.fail(formatv("%s: %s", caseName(C).c_str(), D->error().c_str()));
            continue;
          }
          ++Done;
          Times[C].CallS.push_back(T1 - T0);
          Times[C].CallCpuS.push_back(Cpu1 - Cpu0);
          if (!spotCheck(C))
            L.fail(caseName(C) + ": output disagrees with the oracle");
        } while (nowS() - Start < Budget);
      }
    }
    for (size_t C = 0; C < NCases; ++C)
      std::printf("  %-16s %6zu calls  median %9.3f ms  %s\n",
                  Times[C].Name.c_str(), Times[C].CallS.size(),
                  median(Times[C].CallS) * 1e3,
                  rateNote(C, Times[C]).c_str());
    closedLoopMetrics(Times, M);
    M["loadgen.sent"] = {static_cast<double>(Sent), "count"};
    M["loadgen.completed"] = {static_cast<double>(Done), "count"};
  }

  /// The closed loop's request sequence is its cases in turn.
  size_t replay(runtime::Dispatcher &RD, size_t Count, Ledger &L) override {
    size_t N = 0;
    for (; N < Count && N < numCases(); ++N)
      if (!call(RD, N, false))
        L.fail(caseName(N) + " (replay): " + RD.error());
    return N;
  }

protected:
  virtual std::vector<TuneProblem> problems() const = 0;
  virtual size_t numCases() const = 0;
  virtual std::string caseName(size_t C) const = 0;
  virtual const char *caseSpan(size_t C) const = 0;
  /// One request of case \p C through \p RD (a warm-up request may be a
  /// shorter one that binds the same plans).
  virtual bool call(runtime::Dispatcher &RD, size_t C, bool Warmup) = 0;
  /// A cheap oracle check of the call just made.
  virtual bool spotCheck(size_t C) = 0;
  virtual std::string rateNote(size_t C, const CaseTimes &T) const = 0;

  std::unique_ptr<runtime::KernelRegistry> Reg;
  std::unique_ptr<runtime::Autotuner> Tuner;
  std::unique_ptr<runtime::Dispatcher> D;

private:
  bool warmup(std::string &Err) {
    for (size_t C = 0; C < numCases(); ++C)
      if (!call(*D, C, /*Warmup=*/true)) {
        Err = D->error();
        return false;
      }
    return true;
  }
};

//===----------------------------------------------------------------------===//
// blas-wide
//===----------------------------------------------------------------------===//

class BlasWide final : public ClosedLoop {
public:
  const char *name() const override { return "blas-wide"; }

  void generate(std::uint64_t Seed) override {
    Rng R(Seed ^ 0xB1A5B1A5ull);
    const unsigned Bits[] = {128, 256, 512, 128};
    const char *Names[] = {"b128", "b256", "b512", "b128big"};
    for (int I = 0; I < 4; ++I) {
      Buffer &B = Bufs[I];
      B.Name = Names[I];
      B.Q = field::evalModulus(Bits[I]);
      B.N = I == 3 ? size_t(1) << 24 : size_t(1) << 16;
      B.K = (B.Q.bitWidth() + 63) / 64;
      B.A = randomBatch(R, B.Q, B.N);
      B.B = randomBatch(R, B.Q, B.N);
      B.C.assign(B.N * B.K, 0);
    }
  }

  std::vector<KernelCase> kernelCases() override {
    std::vector<KernelCase> Out;
    for (size_t C = 0; C < numCases(); ++C) {
      Buffer &B = buf(C);
      Out.push_back({caseName(C), opOf(C), B.Q, B.N, B.A.data(), B.B.data(),
                     B.C.data()});
    }
    return Out;
  }
  bool nttShape(NttShape &) const override { return false; }

  void verify(Trace *T, std::uint32_t Parent, Ledger &L) override {
    // Every 61st element of one more call per case, against Bignum.
    for (size_t C = 0; C < numCases(); ++C) {
      Scoped S(T, "oracle.elements", Parent);
      ++L.Attempted;
      const Buffer &B = buf(C);
      if (!call(*D, C, false))
        L.fail(caseName(C) + " (verify): " + D->error());
      else if (size_t Bad = elementMismatches(opOf(C), B.Q, B.A.data(),
                                              B.B.data(), B.C.data(), B.N,
                                              0, 61))
        L.fail(formatv("%s: %zu of every-61st elements wrong",
                       caseName(C).c_str(), Bad));
    }
  }

protected:
  std::vector<TuneProblem> problems() const override {
    std::vector<TuneProblem> Ps;
    // Widest first: the 512-bit sweeps are the longest, so the pool
    // starts on them.
    for (size_t C = numCases(); C-- > 0;)
      addElementwise(Ps, opOf(C), buf(C).Q, buf(C).N, 1, 1);
    return Ps;
  }

  size_t numCases() const override { return 8; }
  std::string caseName(size_t C) const override {
    return std::string(opOf(C) == KernelOp::MulMod ? "vmul_" : "vadd_") +
           buf(C).Name;
  }
  const char *caseSpan(size_t C) const override {
    return opOf(C) == KernelOp::MulMod ? "dispatcher.vmul" : "dispatcher.vadd";
  }

  bool call(runtime::Dispatcher &RD, size_t C, bool Warmup) override {
    // A warm-up binds the same decision on a short prefix (the buffers
    // were touched when generated).
    Buffer &B = buf(C);
    size_t N = Warmup ? std::min<size_t>(B.N, 4096) : B.N;
    return opOf(C) == KernelOp::MulMod
               ? RD.vmul(B.Q, B.A.data(), B.B.data(), B.C.data(), N)
               : RD.vadd(B.Q, B.A.data(), B.B.data(), B.C.data(), N);
  }

  bool spotCheck(size_t C) override {
    // 64 elements 61 apart, the window advancing call by call, so the
    // calls of a run together cover the every-61st set.
    Buffer &B = buf(C);
    size_t &First = Cursor[C];
    size_t End = std::min(B.N, First + 64 * 61);
    bool Ok = elementMismatches(opOf(C), B.Q, B.A.data(), B.B.data(),
                                B.C.data(), End, First, 61) == 0;
    First = End >= B.N ? 0 : End;
    return Ok;
  }

  std::string rateNote(size_t C, const CaseTimes &T) const override {
    return formatv("%9.1f Melem/s", buf(C).N / median(T.CallS) / 1e6);
  }

private:
  struct Buffer {
    const char *Name = "";
    mw::Bignum Q;
    size_t N = 0;
    unsigned K = 0;
    std::vector<std::uint64_t> A, B, C;
  };
  /// Cases 0-3 are vmul over Bufs[0..3], cases 4-7 vadd over the same.
  KernelOp opOf(size_t C) const {
    return C < 4 ? KernelOp::MulMod : KernelOp::AddMod;
  }
  Buffer &buf(size_t C) { return Bufs[C % 4]; }
  const Buffer &buf(size_t C) const { return Bufs[C % 4]; }

  Buffer Bufs[4];
  size_t Cursor[8] = {};
};

//===----------------------------------------------------------------------===//
// ntt-zkp
//===----------------------------------------------------------------------===//

class NttZkp final : public ClosedLoop {
public:
  const char *name() const override { return "ntt-zkp"; }

  void generate(std::uint64_t Seed) override {
    Rng R(Seed ^ 0x2E77ull);
    Q = field::evalModulus(256);
    const size_t Sizes[] = {size_t(1) << 12, size_t(1) << 14};
    for (int I = 0; I < 2; ++I) {
      Shape &S = Shapes[I];
      S.NPoints = Sizes[I];
      for (auto &P : S.In)
        P = {randomBatch(R, Q, S.NPoints * Batch),
             randomBatch(R, Q, S.NPoints * Batch)};
      S.C.assign(S.NPoints * Batch * K, 0);
      // Sample rows are allocated (and touched) here, so peak RSS does not
      // depend on how many calls a run gets through.
      S.Kept.assign(MaxKept, Sample{0, 0, std::vector<std::uint64_t>(
                                              S.NPoints * K, 0)});
    }
    OracleRng.reseed(Seed ^ 0x0AC1Eull);
  }

  std::vector<KernelCase> kernelCases() override {
    std::vector<KernelCase> Out;
    for (Shape &S : Shapes)
      Out.push_back({formatv("pointwise_n%zu", S.NPoints), KernelOp::MulMod,
                     Q, S.NPoints * Batch, S.In[0].first.data(),
                     S.In[0].second.data(), S.C.data()});
    return Out;
  }
  bool nttShape(NttShape &S) const override {
    S = {Q, Shapes[1].NPoints, Batch, rewrite::NttRing::Cyclic};
    return true;
  }

  void verify(Trace *T, std::uint32_t Parent, Ledger &L) override {
    mw::Bignum Roots[2] = {field::rootOfUnity(Q, Shapes[0].NPoints),
                           field::rootOfUnity(Q, Shapes[1].NPoints)};
    for (int I = 0; I < 2; ++I) {
      const Shape &Sh = Shapes[I];
      for (unsigned J = 0; J < Sh.NKept; ++J) {
        Scoped S(T, "oracle.poly_eval", Parent);
        const Sample &Sm = Sh.Kept[J];
        size_t Off = Sm.Row * Sh.NPoints * K;
        if (!polyProductHolds(Q, Roots[I], Sh.In[Sm.Pair].first.data() + Off,
                              Sh.In[Sm.Pair].second.data() + Off,
                              Sm.C.data(), Sh.NPoints, OracleRng))
          L.fail(formatv("polyMul n=%zu: product fails the evaluation check",
                         Sh.NPoints));
      }
    }
  }

protected:
  std::vector<TuneProblem> problems() const override {
    std::vector<TuneProblem> Ps;
    for (size_t I = 2; I-- > 0;) {
      addTransform(Ps, Q, Shapes[I].NPoints, Batch, Batch,
                   rewrite::NttRing::Cyclic);
      addElementwise(Ps, KernelOp::MulMod, Q, Shapes[I].NPoints * Batch, 1,
                     1);
    }
    return Ps;
  }

  size_t numCases() const override { return 2; }
  std::string caseName(size_t C) const override {
    return formatv("polymul_n%zu", Shapes[C].NPoints);
  }
  const char *caseSpan(size_t) const override {
    return "dispatcher.polyMul";
  }

  bool call(runtime::Dispatcher &RD, size_t C, bool) override {
    Shape &S = Shapes[C];
    auto &P = S.In[S.Calls++ % 2];
    return RD.polyMul(Q, P.first.data(), P.second.data(), S.C.data(),
                      S.NPoints, Batch);
  }

  bool spotCheck(size_t C) override {
    // Keeps every third call's output row for verify() (so both input
    // pairs and every row come up); the evaluation check costs O(n)
    // Bignum operations, too slow to run inline.
    Shape &S = Shapes[C];
    std::uint64_t Call = S.Calls - 1;
    if (Call % 3 != 0 || S.NKept == MaxKept)
      return true;
    Sample &Sm = S.Kept[S.NKept++];
    Sm.Pair = Call % 2;
    Sm.Row = (Call / 3) % Batch;
    size_t Row = S.NPoints * K;
    std::copy(S.C.begin() + Sm.Row * Row, S.C.begin() + (Sm.Row + 1) * Row,
              Sm.C.begin());
    return true;
  }

  std::string rateNote(size_t, const CaseTimes &T) const override {
    return formatv("%9.1f polys/s", Batch / median(T.CallS));
  }

private:
  static constexpr size_t Batch = 4;
  static constexpr unsigned K = 4; // words per 252-bit coefficient
  static constexpr unsigned MaxKept = 16;
  struct Sample {
    size_t Pair = 0, Row = 0;
    std::vector<std::uint64_t> C;
  };
  struct Shape {
    size_t NPoints = 0;
    std::pair<std::vector<std::uint64_t>, std::vector<std::uint64_t>> In[2];
    std::vector<std::uint64_t> C;
    std::uint64_t Calls = 0;
    std::vector<Sample> Kept;
    unsigned NKept = 0;
  };

  mw::Bignum Q;
  Shape Shapes[2];
  Rng OracleRng;
};

} // namespace

std::unique_ptr<Workload> moma::e2e::makeBlasWide() {
  return std::make_unique<BlasWide>();
}
std::unique_ptr<Workload> moma::e2e::makeNttZkp() {
  return std::make_unique<NttZkp>();
}

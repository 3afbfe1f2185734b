//===- bench/e2e/Workload.cpp - shared set-up machinery -------------------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "support/Format.h"

using namespace moma;
using namespace moma::e2e;
using runtime::Autotuner;
using runtime::KernelOp;

namespace {

/// The tuner keys decisions on the modulus width, not its value, and on
/// the size bucket (for transforms: of NPoints/2 * Batch butterflies).
unsigned bucketOf(const TuneProblem &P) {
  return Autotuner::sizeBucket(P.NPoints ? P.NPoints / 2 * P.Batch : P.Hint);
}

bool sameDecision(const TuneProblem &A, const TuneProblem &B) {
  return A.Op == B.Op && A.Q.bitWidth() == B.Q.bitWidth() &&
         A.NPoints == B.NPoints && A.Ring == B.Ring &&
         bucketOf(A) == bucketOf(B);
}

void addUnique(std::vector<TuneProblem> &Ps, const TuneProblem &P) {
  for (const TuneProblem &O : Ps)
    if (sameDecision(O, P))
      return;
  Ps.push_back(P);
}

} // namespace

void moma::e2e::addElementwise(std::vector<TuneProblem> &Ps, KernelOp Op,
                               const mw::Bignum &Q, size_t Unit,
                               size_t MinBatch, size_t MaxBatch) {
  for (size_t B = MinBatch; B <= MaxBatch; ++B) {
    TuneProblem P;
    P.Op = Op;
    P.Q = Q;
    P.Hint = Unit * B;
    addUnique(Ps, P);
  }
}

void moma::e2e::addTransform(std::vector<TuneProblem> &Ps,
                             const mw::Bignum &Q, size_t NPoints,
                             size_t MinBatch, size_t MaxBatch,
                             rewrite::NttRing Ring) {
  for (size_t B = MinBatch; B <= MaxBatch; ++B) {
    TuneProblem P;
    P.Op = KernelOp::Butterfly;
    P.Q = Q;
    P.NPoints = NPoints;
    P.Batch = B;
    P.Ring = Ring;
    addUnique(Ps, P);
  }
}

std::unique_ptr<runtime::KernelRegistry>
moma::e2e::makeRegistry(const std::string &JitDir) {
  jit::HostJitOptions JO;
  JO.CacheDir = JitDir;
  auto Reg = std::make_unique<runtime::KernelRegistry>(JO);
  // The sim-GPU backend emulates the device on one host thread. The
  // benchmark's own threads (client, reaper, two Server workers) already
  // fill a 4-core host; a worker pool on top would time how the host
  // schedules threads, not the generated code, and on a host whose cores
  // are shared with other machines that swings from run to run.
  sim::DeviceProfile P = sim::deviceHostDefault();
  P.HostThreads = 1;
  Reg->setDeviceProfile(P);
  return Reg;
}

void moma::e2e::fillSetupStats(SetupStats &S, runtime::KernelRegistry &Reg,
                               Autotuner &Tu, size_t Problems) {
  Autotuner::Stats TS = Tu.stats();
  jit::HostJit::Stats JS = Reg.jit().stats();
  S.Problems = static_cast<unsigned>(Problems);
  S.Candidates = TS.Candidates;
  S.JitCompiles = JS.Compiles;
  S.JitDiskHits = JS.DiskHits;
  S.RegistryBuilds = Reg.stats().Builds;
}

runtime::AutotunerOptions moma::e2e::benchTunerOptions() {
  runtime::AutotunerOptions O;
  // The minimum of five timings, not three: picks then repeat from run to
  // run whenever the candidates differ by more than the host's jitter.
  O.Repeats = 5;
  // A cold set-up, which the benchmark repeats three times per run, is
  // dominated by host-compiler runs: one per (reduction, prune, schedule,
  // backend) combination of every kernel. Reduction, pruning and
  // scheduling stay at the paper's defaults (Barrett, on, off), which
  // cuts the compiles eightfold; the machine-dependent axes — backend,
  // launch geometry and fusion depth — are swept. With the sim-GPU device
  // on one host thread (makeRegistry) the block dimension only reshapes
  // its loop, so three of the five are enough.
  O.TuneReduction = false;
  O.TunePrune = false;
  O.TuneSchedule = false;
  O.BlockDims = {64, 256, 1024};
  return O;
}

bool moma::e2e::pretune(Autotuner &Tu, const rewrite::PlanOptions &Base,
                        const std::vector<TuneProblem> &Ps, Trace *T,
                        std::uint32_t Parent, std::vector<Pick> &Picks,
                        double &BusyS, std::string &Err) {
  // One problem at a time, on this thread: candidates are timed with no
  // compiler running beside them, and set-up time does not depend on how
  // many cores a shared host lends.
  Picks.assign(Ps.size(), Pick());
  BusyS = 0;
  for (size_t I = 0; I < Ps.size(); ++I) {
    const TuneProblem &P = Ps[I];
    rewrite::PlanOptions B = Base;
    B.Ring = P.Ring;
    double T0 = nowS();
    const runtime::TuneDecision *D =
        P.NPoints ? Tu.chooseNtt(P.Q, B, P.NPoints, P.Batch)
                  : Tu.choose(P.Op, P.Q, B, P.Hint);
    double T1 = nowS();
    BusyS += T1 - T0;
    if (T)
      T->record("autotuner.choose", T0, T1, Parent, I + 1);
    if (!D) {
      Err = Tu.error();
      return false;
    }
    Pick &Out = Picks[I];
    Out.Key = runtime::PlanKey::forModulus(P.Op, P.Q, D->Opts);
    Out.NsPerElem = D->NsPerElem;
    Out.Problem =
        runtime::PlanKey::forModulus(P.Op, P.Q, B).problemStr() +
        (P.NPoints ? formatv(" ntt%zux%zu%s", P.NPoints, P.Batch,
                             P.Ring == rewrite::NttRing::Negacyclic ? "/neg"
                                                                    : "")
                   : formatv(" n%zu", P.Hint));
  }
  return true;
}

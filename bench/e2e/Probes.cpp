//===- bench/e2e/Probes.cpp - outside-in per-layer probes -----------------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "Probes.h"

#include "codegen/CEmitter.h"
#include "codegen/GridEmitter.h"
#include "codegen/VectorEmitter.h"
#include "field/PrimeGen.h"
#include "kernels/ScalarKernels.h"
#include "rewrite/Stats.h"
#include "runtime/Backend.h"
#include "support/Format.h"

#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

// The registry compiles vector plans with extra flags; the build passes
// the library's own value through so the replay compiles the same way.
#ifndef MOMA_VEC_EXTRA_FLAGS
#define MOMA_VEC_EXTRA_FLAGS "-O3"
#endif

extern char **environ;

using namespace moma;
using namespace moma::e2e;
using runtime::KernelOp;
using runtime::PlanKey;

//===----------------------------------------------------------------------===//
// Host ceilings
//===----------------------------------------------------------------------===//

int moma::e2e::ceilingProbeMain() {
  using u128 = unsigned __int128;
  long L3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  size_t Llc = L3 > 0 ? static_cast<size_t>(L3) : size_t(32) << 20;
  // STREAM's sizing rule: the copy's arrays together span at least four
  // times the last-level cache, so neither side is served from it.
  size_t Bytes = std::min(std::max(2 * Llc, size_t(64) << 20),
                          size_t(1) << 30);
  size_t N = Bytes / sizeof(std::uint64_t);
  std::vector<std::uint64_t> Src(N, 1), Dst(N, 0); // first touch here
  double BestCopy = std::numeric_limits<double>::infinity();
  for (int Rep = 0; Rep < 5; ++Rep) {
    Src[Rep] = Rep;
    double T0 = nowS();
    std::memcpy(Dst.data(), Src.data(), Bytes);
    BestCopy = std::min(BestCopy, nowS() - T0);
  }
  volatile std::uint64_t Sink = Dst[N / 2] + Dst[4];

  // Eight independent multiply chains: enough to keep the multiplier's
  // pipeline full, so the rate is its throughput, not its latency.
  const std::uint64_t Iters = std::uint64_t(1) << 25;
  double BestMul = std::numeric_limits<double>::infinity();
  for (int Rep = 0; Rep < 3; ++Rep) {
    std::uint64_t X[8];
    for (int K = 0; K < 8; ++K)
      X[K] = Src[K] + 0x9E3779B97F4A7C15ull * (K + 1);
    double T0 = nowS();
    for (std::uint64_t I = 0; I < Iters; ++I)
      for (int K = 0; K < 8; ++K) {
        u128 P = static_cast<u128>(X[K]) * 0xD1B54A32D192ED03ull;
        X[K] = static_cast<std::uint64_t>(P) ^
               static_cast<std::uint64_t>(P >> 64);
      }
    BestMul = std::min(BestMul, nowS() - T0);
    for (int K = 0; K < 8; ++K)
      Sink = Sink + X[K];
  }
  std::printf("llc_mib=%.1f array_mib=%.1f copy_gbps=%.6f mul64_gops=%.6f\n",
              Llc / 1048576.0, Bytes / 1048576.0,
              2.0 * Bytes / BestCopy / 1e9, 8.0 * Iters / BestMul / 1e9);
  return 0;
}

bool moma::e2e::probeCeiling(const char *Self, HostCeiling &H,
                             std::string &Err) {
  int Pipe[2];
  if (pipe(Pipe) != 0) {
    Err = "pipe failed";
    return false;
  }
  posix_spawn_file_actions_t Fa;
  posix_spawn_file_actions_init(&Fa);
  posix_spawn_file_actions_adddup2(&Fa, Pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&Fa, Pipe[0]);
  char Flag[] = "--ceiling-probe";
  std::string Path = Self;
  char *Argv[] = {&Path[0], Flag, nullptr};
  pid_t Pid = 0;
  int Rc = posix_spawn(&Pid, Self, &Fa, nullptr, Argv, environ);
  posix_spawn_file_actions_destroy(&Fa);
  close(Pipe[1]);
  if (Rc != 0) {
    close(Pipe[0]);
    Err = std::string("cannot start the ceiling probe: ") + strerror(Rc);
    return false;
  }
  std::string Out;
  char Buf[256];
  for (ssize_t N; (N = read(Pipe[0], Buf, sizeof(Buf))) > 0;)
    Out.append(Buf, static_cast<size_t>(N));
  close(Pipe[0]);
  int Status = 0;
  waitpid(Pid, &Status, 0);
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0 ||
      std::sscanf(Out.c_str(),
                  "llc_mib=%lf array_mib=%lf copy_gbps=%lf mul64_gops=%lf",
                  &H.LlcMiB, &H.ArrayMiB, &H.CopyGbps, &H.Mul64Gops) != 4) {
    Err = "ceiling probe failed: " + Out;
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Compile path
//===----------------------------------------------------------------------===//

namespace {

/// The scalar kernel a plan key names, as the registry builds it.
ir::Kernel kernelFor(const PlanKey &Key, mw::Reduction Red) {
  kernels::ScalarKernelSpec Spec{Key.ContainerBits, Key.ModBits, Red};
  ir::Kernel K;
  switch (Key.Op) {
  case KernelOp::AddMod:
    K = kernels::buildAddModKernel(Spec);
    break;
  case KernelOp::SubMod:
    K = kernels::buildSubModKernel(Spec);
    break;
  case KernelOp::Butterfly:
    K = kernels::buildButterflyKernel(Spec);
    break;
  case KernelOp::Axpy:
    K = kernels::buildAxpyKernel(Spec);
    break;
  default:
    K = kernels::buildMulModKernel(Spec);
    break;
  }
  K.Name = formatv("%s_c%u_m%u", K.Name.c_str(), Key.ContainerBits,
                   Key.ModBits);
  return K;
}

std::string emitFor(const rewrite::LoweredKernel &L,
                    rewrite::ExecBackend B) {
  switch (B) {
  case rewrite::ExecBackend::SimGpu:
    return codegen::emitGridC(L).Source;
  case rewrite::ExecBackend::Vector:
    return codegen::emitVectorC(L).Source;
  default:
    return codegen::emitC(L).Source;
  }
}

} // namespace

void moma::e2e::probeCompilePath(const std::vector<Pick> &Picks,
                                 const std::string &Dir, Trace *T,
                                 std::uint32_t Parent, MetricMap &M) {
  std::map<std::string, PlanKey> Variants; // distinct picked plans
  std::map<std::string, PlanKey> Kernels;  // distinct (op, widths)
  for (const Pick &P : Picks) {
    Variants.emplace(P.Key.str(), P.Key);
    Kernels.emplace(P.Key.problemStr(), P.Key);
  }

  // Exact IR sizes of each kernel under the default plan: they move only
  // when a rewrite pass changes, never with the run-to-run tuner picks.
  unsigned Stmts = 0, Muls = 0;
  for (const auto &E : Kernels) {
    rewrite::LoweredKernel L = rewrite::lowerWithPlan(
        kernelFor(E.second, mw::Reduction::Barrett), rewrite::PlanOptions());
    rewrite::OpStats S = rewrite::countOps(L.K);
    std::printf("  rewrite %-26s %6u stmts %5u muls\n", E.first.c_str(),
                S.Total, S.multiplies());
    Stmts += S.Total;
    Muls += S.multiplies();
  }

  jit::HostJitOptions JO;
  JO.CacheDir = Dir + "/jit";
  jit::HostJit Jit(JO);
  double LowerS = 0, EmitS = 0, CompileS = 0;
  size_t SourceBytes = 0;
  for (const auto &E : Variants) {
    const PlanKey &Key = E.second;
    ir::Kernel K = kernelFor(Key, Key.Opts.Red);
    double T0 = nowS();
    rewrite::LoweredKernel L = rewrite::lowerWithPlan(K, Key.Opts);
    double T1 = nowS();
    std::string Src = emitFor(L, Key.Opts.Backend);
    double T2 = nowS();
    bool Vec = Key.Opts.Backend == rewrite::ExecBackend::Vector;
    bool Ok = Jit.load(Src, Vec ? MOMA_VEC_EXTRA_FLAGS : "") != nullptr;
    double T3 = nowS();
    if (T) {
      T->record("rewrite.lower", T0, T1, Parent);
      T->record("codegen.emit", T1, T2, Parent);
      T->record("jit.compile", T2, T3, Parent);
    }
    if (!Ok)
      std::printf("  jit replay of %s failed: %s\n", E.first.c_str(),
                  Jit.error().c_str());
    LowerS += T1 - T0;
    EmitS += T2 - T1;
    CompileS += T3 - T2;
    SourceBytes += Src.size();
  }

  std::unique_ptr<runtime::KernelRegistry> Reg =
      makeRegistry(Dir + "/registry");
  double BuildS = 0;
  for (const auto &E : Variants) {
    double T0 = nowS();
    (void)Reg->get(E.second);
    double T1 = nowS();
    if (T)
      T->record("registry.build", T0, T1, Parent);
    BuildS += T1 - T0;
  }

  M["rewrite.lower_ms"] = {LowerS * 1e3, "ms"};
  M["rewrite.stmts"] = {double(Stmts), "count"};
  M["rewrite.muls"] = {double(Muls), "count"};
  M["codegen.emit_ms"] = {EmitS * 1e3, "ms"};
  M["codegen.source_kb"] = {SourceBytes / 1024.0, "KB"};
  M["jit.compile_s"] = {CompileS, "s"};
  M["jit.compiles"] = {double(Jit.stats().Compiles), "count"};
  M["registry.build_s"] = {BuildS, "s"};
  M["registry.builds"] = {double(Reg->stats().Builds), "count"};
}

//===----------------------------------------------------------------------===//
// Kernels, NTT, Dispatcher
//===----------------------------------------------------------------------===//

void moma::e2e::probeKernels(const StackView &S,
                             const std::vector<KernelCase> &Cases,
                             const HostCeiling &H, Trace *T,
                             std::uint32_t Parent, MetricMap &M) {
  std::vector<double> Ns, MulFrac;
  double BwFrac = 0, Footprint = 0;
  for (const KernelCase &C : Cases) {
    const runtime::TuneDecision *D = S.Tuner->choose(C.Op, C.Q, S.Base, C.N);
    if (!D)
      continue;
    PlanKey Key = PlanKey::forModulus(C.Op, C.Q, D->Opts);
    std::shared_ptr<const runtime::CompiledPlan> Plan = S.Reg->get(Key);
    if (!Plan)
      continue;
    runtime::PlanAux Aux = runtime::makePlanAux(*Plan, C.Q);
    runtime::BatchArgs Args;
    Args.Outs = {C.C};
    Args.Ins = {C.A, C.B};
    Args.Aux = Aux.ptrs();
    runtime::ExecutionBackend &EB = S.Reg->backendFor(Key);
    std::vector<double> Sec;
    double Start = nowS();
    while (Sec.size() < 3 || (nowS() - Start < 0.2 && Sec.size() < 1000)) {
      double T0 = nowS();
      if (!EB.runBatch(*Plan, Args, C.N, 1))
        break;
      double T1 = nowS();
      if (T)
        T->record("backend.run_batch", T0, T1, Parent);
      Sec.push_back(T1 - T0);
    }
    if (Sec.empty())
      continue;
    double ElemPerS = C.N / median(Sec);
    unsigned MulsPerElem = rewrite::countOps(Plan->Lowered.K).multiplies();
    double BytesPerElem = 3.0 * Plan->ElemWords * sizeof(std::uint64_t);
    Ns.push_back(1e9 / ElemPerS);
    double MulF = MulsPerElem * ElemPerS / (H.Mul64Gops * 1e9);
    // A single-word kernel keeps its product as one IR operation, with no
    // word multiplies to hold against the ceiling.
    if (MulsPerElem > 0)
      MulFrac.push_back(MulF);
    double BwF = BytesPerElem * ElemPerS / (H.CopyGbps * 1e9);
    if (C.N * BytesPerElem > Footprint) {
      Footprint = C.N * BytesPerElem;
      BwFrac = BwF;
    }
    std::printf("  kernel %-18s %-44s %9.3f ns/elem  %3u muls/elem  "
                "mul %.3f  bw %.3f of ceiling\n",
                C.Name.c_str(), Key.Opts.str().c_str(), 1e9 / ElemPerS,
                MulsPerElem, MulF, BwF);
  }
  M["kernel.ns_per_elem"] = {geomean(Ns), "ns"};
  M["kernel.mul_ceiling_frac"] = {geomean(MulFrac), "ratio"};
  M["kernel.bw_ceiling_frac"] = {BwFrac, "ratio"};
}

void moma::e2e::probeNtt(const StackView &S, Workload &W, Trace *T,
                         std::uint32_t Parent, MetricMap &M) {
  NttShape Sh;
  if (!W.nttShape(Sh))
    return; // no transforms in this workload: the metrics stay zero
  runtime::Dispatcher D(*S.Reg, S.Tuner, S.Base);
  Rng R(0x177);
  std::vector<std::uint64_t> Data =
      randomBatch(R, Sh.Q, Sh.NPoints * Sh.Batch);
  std::vector<double> Sec;
  for (int I = 0; I < 16; ++I) {
    double T0 = nowS();
    bool Ok = D.nttForward(Sh.Q, Data.data(), Sh.NPoints, Sh.Batch, Sh.Ring);
    double T1 = nowS();
    if (!Ok)
      return;
    if (T)
      T->record("dispatcher.ntt_forward", T0, T1, Parent);
    if (I > 0) // the first call binds
      Sec.push_back(T1 - T0);
  }
  unsigned LogN = 0;
  while ((size_t(1) << LogN) < Sh.NPoints)
    ++LogN;
  double Fwd = median(Sec);
  M["ntt.fwd_ms"] = {Fwd * 1e3, "ms"};
  M["ntt.butterfly_ns"] = {Fwd * 1e9 / (Sh.NPoints / 2 * LogN * Sh.Batch),
                           "ns"};
}

void moma::e2e::probeDispatcher(const StackView &S, Workload &W, Ledger &L,
                                Trace *T, std::uint32_t Parent,
                                MetricMap &M) {
  std::vector<KernelCase> Cases = W.kernelCases();
  const KernelCase &C0 = Cases.front();
  const unsigned Words = (C0.Q.bitWidth() + 63) / 64;
  runtime::Dispatcher D(*S.Reg, S.Tuner, S.Base);
  auto Call = [&](const mw::Bignum &Q, const std::uint64_t *A,
                  const std::uint64_t *B, std::uint64_t *Out) {
    return C0.Op == KernelOp::MulMod ? D.vmul(Q, A, B, Out, 1)
                                     : D.vadd(Q, A, B, Out, 1);
  };

  // A warm one-element call: the fixed cost every dispatch pays.
  std::vector<std::uint64_t> Out(Words);
  (void)Call(C0.Q, C0.A, C0.B, Out.data()); // binds (and tunes bucket 64)
  std::vector<double> Us;
  for (int I = 0; I < 200; ++I) {
    double T0 = nowS();
    (void)Call(C0.Q, C0.A, C0.B, Out.data());
    double T1 = nowS();
    if (T)
      T->record("dispatcher.call", T0, T1, Parent);
    Us.push_back((T1 - T0) * 1e6);
  }
  M["dispatcher.call_us"] = {median(Us), "us"};

  // First call with a new modulus of a width that is already built: the
  // bind (decision lookup, plan lookup, broadcast constants), no compile.
  std::vector<std::uint64_t> Zero(Words, 0);
  Us.clear();
  for (unsigned I = 0; I < 8; ++I) {
    mw::Bignum Q = field::nttPrime(C0.Q.bitWidth(), 16, 0xB14D + I);
    double T0 = nowS();
    (void)Call(Q, Zero.data(), Zero.data(), Out.data());
    double T1 = nowS();
    if (T)
      T->record("dispatcher.bind", T0, T1, Parent);
    Us.push_back((T1 - T0) * 1e6);
  }
  M["dispatcher.bind_us"] = {median(Us), "us"};

  // The measured phase's request sequence, serially through one fresh
  // dispatcher: no queue, no coalescing, no second worker.
  runtime::Dispatcher RD(*S.Reg, S.Tuner, S.Base);
  double T0 = nowS();
  size_t N = W.replay(RD, 4096, L);
  double T1 = nowS();
  L.Attempted += N;
  if (T)
    T->record("dispatcher.replay", T0, T1, Parent);
  runtime::Dispatcher::DispatchStats DS = RD.dispatchStats();
  M["dispatcher.replay_us_per_req"] = {(T1 - T0) * 1e6 / N, "us"};
  M["dispatcher.bound_evictions"] = {
      double(RD.cacheCounters().BoundEvictions), "count"};
  M["dispatcher.transforms_per_req"] = {double(DS.Transforms) / N, "count"};
  M["dispatcher.stage_groups_per_req"] = {double(DS.StageGroups) / N,
                                          "count"};
}

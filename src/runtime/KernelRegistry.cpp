//===- runtime/KernelRegistry.cpp - Compiled-plan cache -------------------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "runtime/KernelRegistry.h"

#include "codegen/GridEmitter.h"
#include "codegen/VectorEmitter.h"
#include "kernels/NttKernels.h"
#include "kernels/ScalarKernels.h"
#include "runtime/Backend.h"
#include "support/Error.h"
#include "support/FaultInjection.h"
#include "support/Format.h"

#include <algorithm>
#include <cassert>

using namespace moma;
using namespace moma::runtime;

// Per-plan extra driver flags for vector artifacts: the fused entry's
// lane block only pays off when the host compiler vectorizes it, so they
// compile at -O3 with the native ISA when the configure-time probe found
// -march=native usable (CMake defines the macro either way; -O3 alone is
// the fallback).
#ifndef MOMA_VEC_EXTRA_FLAGS
#define MOMA_VEC_EXTRA_FLAGS "-O3"
#endif

namespace {

ir::Kernel buildOpKernel(const PlanKey &Key) {
  kernels::ScalarKernelSpec Spec{Key.ContainerBits, Key.ModBits,
                                 Key.Opts.Red};
  switch (Key.Op) {
  case KernelOp::AddMod:
    return kernels::buildAddModKernel(Spec);
  case KernelOp::SubMod:
    return kernels::buildSubModKernel(Spec);
  case KernelOp::MulMod:
    return kernels::buildMulModKernel(Spec);
  case KernelOp::Butterfly:
    return kernels::buildButterflyKernel(Spec);
  case KernelOp::Axpy:
    return kernels::buildAxpyKernel(Spec);
  case KernelOp::RnsDecompose:
    return kernels::buildRnsDecomposeKernel(Spec, Key.WideWords);
  case KernelOp::RnsRecombineStep:
    return kernels::buildRnsRecombineStepKernel(Spec);
  case KernelOp::RnsRescaleStep:
    return kernels::buildRnsRescaleStepKernel(Spec);
  }
  moma_unreachable("unknown kernel op");
}

/// Resolves \p Name in \p M, or sets \p Error with the loader's dlerror()
/// reason, so a stripped or mis-emitted module does not report a bare
/// "missing".
void *resolveSymbol(const jit::JitModule &M, const std::string &Name,
                    std::string &Error) {
  std::string DlErr;
  void *Sym = M.symbol(Name, &DlErr);
  if (!Sym)
    Error = formatv("KernelRegistry: symbol '%s' missing from %s: %s",
                    Name.c_str(), M.soPath().c_str(),
                    DlErr.empty() ? "resolved to null" : DlErr.c_str());
  return Sym;
}

/// The RNS CRT edge kernels mix port widths by design (a wide element on
/// one side, a single-word limb residue on the other); every other op
/// keeps the uniform elemWords ABI.
bool kernelOpMixesWidths(KernelOp Op) {
  return Op == KernelOp::RnsDecompose || Op == KernelOp::RnsRecombineStep;
}

} // namespace

std::vector<std::uint64_t> moma::runtime::packWordsMsbFirst(const mw::Bignum &V,
                                                            unsigned Words) {
  assert(V.bitWidth() <= Words * 64 && "value does not fit its port");
  std::vector<std::uint64_t> Out(Words);
  for (unsigned I = 0; I < Words; ++I)
    Out[I] = V.limb(Words - 1 - I);
  return Out;
}

mw::Bignum moma::runtime::unpackWordsMsbFirst(const std::uint64_t *W,
                                              unsigned Words) {
  mw::Bignum Acc;
  for (unsigned I = 0; I < Words; ++I)
    Acc = (Acc << 64) + mw::Bignum(W[I]);
  return Acc;
}

PlanAux moma::runtime::makePlanAux(const CompiledPlan &P,
                                   const mw::Bignum &Q) {
  assert(Q.bitWidth() == P.Key.ModBits && "modulus width must match plan");
  PlanAux Aux;
  size_t QAt = P.Lowered.Inputs.size() - P.AuxWords.size();
  for (size_t I = 0; I < P.AuxWords.size(); ++I) {
    const std::string &Name = P.Lowered.Inputs[QAt + I].Name;
    mw::Bignum V;
    if (Name == "q") {
      V = Q;
    } else if (Name == "mu") {
      V = mw::Bignum::powerOfTwo(2 * P.Key.ModBits + 3) / Q;
    } else if (Name == "qinv") {
      assert(Q.isOdd() && "Montgomery plans need an odd modulus");
      mw::Bignum R = mw::Bignum::powerOfTwo(P.Key.ContainerBits);
      V = R - Q.invMod(R);
    } else if (Name == "r2") {
      mw::Bignum R = mw::Bignum::powerOfTwo(P.Key.ContainerBits);
      V = (R * R) % Q;
    } else if (Name == "gmu") {
      // The RNS decompose kernel's generalized Barrett constant: the
      // shift is the container width itself (the reduction takes the
      // full product's high half), so gmu = floor(2^lambda / q).
      V = mw::Bignum::powerOfTwo(P.Key.ContainerBits) / Q;
    } else {
      fatalError("makePlanAux: unknown auxiliary port '" + Name + "'");
    }
    Aux.Buffers.push_back(packWordsMsbFirst(V, P.AuxWords[I]));
  }
  return Aux;
}

KernelRegistry::KernelRegistry(jit::HostJitOptions JitOpts)
    : Jit(std::move(JitOpts)), Profile(sim::deviceHostDefault()),
      Vector(new VectorBackend()), Interp(new InterpBackend()) {}

KernelRegistry::~KernelRegistry() {
  // Stop the recovery-probe thread before any member it touches goes
  // away; probes in flight finish their get() first.
  std::thread Probe;
  {
    std::lock_guard<std::mutex> L(ProbeMu);
    ProbeStop = true;
    Probe = std::move(ProbeThread);
  }
  ProbeCv.notify_all();
  if (Probe.joinable())
    Probe.join();
}

ExecutionBackend &KernelRegistry::backendFor(const PlanKey &Key) {
  switch (Key.Opts.Backend) {
  case rewrite::ExecBackend::SimGpu: {
    std::lock_guard<std::mutex> L(BackendMu);
    if (!SimGpu)
      SimGpu.reset(new SimGpuBackend(Profile));
    return *SimGpu;
  }
  case rewrite::ExecBackend::Vector:
    return *Vector;
  case rewrite::ExecBackend::Interp:
    break;
  }
  return *Interp;
}

void KernelRegistry::setRetryPolicy(const RetryPolicy &P) {
  std::lock_guard<std::mutex> L(Mu);
  Retry = P;
  if (Retry.MaxAttempts == 0)
    Retry.MaxAttempts = 1;
  if (Retry.BackoffMultiplier == 0)
    Retry.BackoffMultiplier = 1;
}

void KernelRegistry::setNegativeTtlUs(std::uint64_t Us) {
  std::lock_guard<std::mutex> L(Mu);
  NegativeTtlUs = Us;
  if (Us == 0)
    Negative.clear();
}

bool KernelRegistry::degraded() const {
  std::lock_guard<std::mutex> L(Mu);
  return !Degraded.empty();
}

std::vector<std::string> KernelRegistry::degradedKeys() const {
  std::lock_guard<std::mutex> L(Mu);
  return std::vector<std::string>(Degraded.begin(), Degraded.end());
}

void KernelRegistry::setDeviceProfile(const sim::DeviceProfile &P) {
  std::lock_guard<std::mutex> L(BackendMu);
  Profile = P;
  SimGpu.reset(); // rebuilt lazily against the new profile
}

KernelRegistry::Stats KernelRegistry::stats() const {
  std::lock_guard<std::mutex> L(Mu);
  return S;
}

void KernelRegistry::setCacheCap(size_t Max) {
  std::lock_guard<std::mutex> L(Mu);
  CacheCap = std::max<size_t>(1, Max);
  evictLocked();
}

size_t KernelRegistry::cacheCap() const {
  std::lock_guard<std::mutex> L(Mu);
  return CacheCap;
}

size_t KernelRegistry::size() const {
  std::lock_guard<std::mutex> L(Mu);
  return Plans.size();
}

void KernelRegistry::evictLocked() {
  // O(n) min-scan on the LastUse tick, the Dispatcher's bounded-cache
  // idiom. Dispatch batches in flight hold the plan shared_ptr, so
  // eviction never invalidates running work — the registry just forgets
  // the plan and the next request rebuilds it (typically a HostJit disk
  // hit, not a recompile).
  while (Plans.size() > CacheCap) {
    auto Victim = Plans.begin();
    for (auto It = Plans.begin(); It != Plans.end(); ++It)
      if (It->second.LastUse < Victim->second.LastUse)
        Victim = It;
    Plans.erase(Victim);
    ++S.Evictions;
  }
}

std::shared_ptr<const CompiledPlan> KernelRegistry::get(const PlanKey &Key) {
  Err.clear();
  std::string K = Key.str();

  // Fast path, negative cache, and single-flight admission under one lock.
  std::shared_ptr<Flight> F;
  bool Leader = false;
  RetryPolicy RP;
  {
    std::lock_guard<std::mutex> L(Mu);
    auto It = Plans.find(K);
    if (It != Plans.end()) {
      ++S.Hits;
      It->second.LastUse = ++UseTick;
      return It->second.Plan;
    }
    // A terminally-failed key fast-fails until its TTL passes: a hot
    // broken kernel must not convoy every worker thread through a doomed
    // compile-and-retry sequence (the re-stampede fix).
    auto NIt = Negative.find(K);
    if (NIt != Negative.end()) {
      if (std::chrono::steady_clock::now() < NIt->second.Until) {
        ++S.NegativeHits;
        std::string Msg = NIt->second.Error;
        Err.set(Msg);
        return nullptr;
      }
      Negative.erase(NIt);
    }
    auto FIt = InFlight.find(K);
    if (FIt != InFlight.end()) {
      F = FIt->second;
    } else {
      F = std::make_shared<Flight>();
      InFlight.emplace(K, F);
      Leader = true;
    }
    RP = Retry;
  }

  if (!Leader) {
    // Another thread is building this key: wait and share its result, so
    // N threads racing on a cold key cost one rewrite pipeline and one
    // compiler invocation total — and one retry/backoff sequence on
    // transient failure, not N.
    std::unique_lock<std::mutex> FL(F->M);
    F->CV.wait(FL, [&] { return F->Done; });
    if (!F->Plan) {
      Err.set(F->Error);
      return nullptr;
    }
    std::lock_guard<std::mutex> L(Mu);
    ++S.Hits;
    return F->Plan;
  }

  // Leader: snapshot the profile bound the build validates against, run
  // the pipeline with no registry locks held — retrying transient
  // failures with bounded exponential backoff — then publish and wake
  // followers.
  unsigned MaxTPB;
  {
    std::lock_guard<std::mutex> L(BackendMu);
    MaxTPB = Profile.MaxThreadsPerBlock;
  }
  std::string Error;
  std::shared_ptr<CompiledPlan> P;
  std::uint64_t BackoffUs = RP.InitialBackoffUs;
  for (unsigned Attempt = 1;; ++Attempt) {
    {
      std::lock_guard<std::mutex> L(Mu);
      ++S.Attempts;
    }
    bool Transient = false;
    Error.clear();
    P = build(Key, MaxTPB, Error, Transient);
    if (P || !Transient || Attempt >= RP.MaxAttempts)
      break;
    {
      std::lock_guard<std::mutex> L(Mu);
      ++S.Retries;
    }
    if (BackoffUs > 0)
      std::this_thread::sleep_for(std::chrono::microseconds(BackoffUs));
    BackoffUs = std::min<std::uint64_t>(
        BackoffUs * RP.BackoffMultiplier, RP.MaxBackoffUs);
  }
  {
    std::lock_guard<std::mutex> L(Mu);
    if (P) {
      ++S.Builds;
      Plans[K] = Entry{P, ++UseTick};
      Degraded.erase(K);
      Negative.erase(K);
      evictLocked();
    } else {
      ++S.FailedBuilds;
      Degraded.insert(K);
      if (NegativeTtlUs > 0)
        Negative[K] =
            NegativeEntry{Error, std::chrono::steady_clock::now() +
                                     std::chrono::microseconds(NegativeTtlUs)};
    }
    InFlight.erase(K);
  }
  {
    std::lock_guard<std::mutex> FL(F->M);
    F->Done = true;
    F->Plan = P;
    F->Error = Error;
  }
  F->CV.notify_all();
  if (!P)
    Err.set(Error);
  return P;
}

std::shared_ptr<const CompiledPlan>
KernelRegistry::tryPromote(const PlanKey &Key) {
  std::string K = Key.str();
  {
    std::lock_guard<std::mutex> L(Mu);
    auto It = Plans.find(K);
    if (It != Plans.end()) {
      ++S.Hits;
      It->second.LastUse = ++UseTick;
      return It->second.Plan;
    }
    // Inside the negative TTL the failure is still fresh; don't churn.
    auto NIt = Negative.find(K);
    if (NIt != Negative.end() &&
        std::chrono::steady_clock::now() < NIt->second.Until)
      return nullptr;
    // A build or probe is already running; its result will land in Plans.
    if (InFlight.count(K))
      return nullptr;
  }
  enqueueProbe(Key);
  return nullptr;
}

void KernelRegistry::enqueueProbe(const PlanKey &Key) {
  std::lock_guard<std::mutex> L(ProbeMu);
  if (ProbeStop || !ProbeQueued.insert(Key.str()).second)
    return;
  ProbeQueue.push_back(Key);
  if (!ProbeThread.joinable())
    ProbeThread = std::thread([this] { probeLoop(); });
  ProbeCv.notify_one();
}

void KernelRegistry::probeLoop() {
  for (;;) {
    PlanKey Key;
    {
      std::unique_lock<std::mutex> L(ProbeMu);
      ProbeCv.wait(L, [&] { return ProbeStop || !ProbeQueue.empty(); });
      if (ProbeStop)
        return;
      Key = ProbeQueue.front();
      ProbeQueue.pop_front();
      ProbeQueued.erase(Key.str());
    }
    {
      std::lock_guard<std::mutex> L(Mu);
      ++S.Probes;
    }
    // A plain get(): success publishes the plan (clearing the degraded
    // mark), failure refreshes the negative entry, and either way the
    // next tryPromote sees the fresh state.
    get(Key);
  }
}

std::shared_ptr<CompiledPlan> KernelRegistry::build(const PlanKey &Key,
                                                    unsigned MaxTPB,
                                                    std::string &Error,
                                                    bool &Transient) {
  // Everything up to the JIT handoff is deterministic validation and pure
  // rewriting: failures there are permanent (retrying cannot help).
  Transient = false;
  if (Key.Opts.TargetWordBits != 64) {
    // The flat-batch ABI is 64-bit words; 16/32-bit lowerings remain
    // available through the direct emitters.
    Error = "KernelRegistry: batched dispatch requires 64-bit words";
    return nullptr;
  }
  if (Key.ModBits + 4 > Key.ContainerBits) {
    Error = formatv("KernelRegistry: modulus (%u bits) does not fit "
                    "container (%u bits) with four free top bits",
                    Key.ModBits, Key.ContainerBits);
    return nullptr;
  }

  bool IsSimGpu = Key.Opts.Backend == rewrite::ExecBackend::SimGpu;
  if (IsSimGpu && (Key.Opts.BlockDim == 0 || Key.Opts.BlockDim > MaxTPB)) {
    // The CUDA rule the paper relies on (5.1): at most MaxThreadsPerBlock
    // = 1024 threads per block. Checked at plan build so a bad geometry
    // is a clean error instead of a launch abort.
    Error = formatv("KernelRegistry: block dimension %u outside "
                    "[1, %u] for the sim-GPU backend",
                    Key.Opts.BlockDim, MaxTPB);
    return nullptr;
  }

  // The injected stand-in for "the build machinery itself is broken"
  // (registry-level chaos testing, distinct from the JIT's own sites).
  // Classified transient: real analogues are resource exhaustion.
  if (support::faultShouldFail("registry.build")) {
    Error = "KernelRegistry: fault injected at registry.build";
    Transient = true;
    return nullptr;
  }

  auto P = std::make_shared<CompiledPlan>();
  P->Key = Key;
  ir::Kernel K = buildOpKernel(Key);
  K.Name = formatv("%s_c%u_m%u", K.Name.c_str(), Key.ContainerBits,
                   Key.ModBits);
  if (Key.WideWords)
    K.Name += formatv("_W%u", Key.WideWords);
  P->Lowered = rewrite::lowerWithPlan(K, Key.Opts);

  // Port layout: outputs, per-element data inputs, then the broadcast
  // tail starting at the modulus port. Derived from the lowered kernel
  // alone, so it runs before any backend-specific work and the interp
  // path below can return without touching the JIT.
  P->NumOutputs = static_cast<unsigned>(P->Lowered.Outputs.size());
  P->ElemWords = (Key.ModBits + 63) / 64;
  size_t QAt = codegen::broadcastStart(P->Lowered);
  if (QAt == P->Lowered.Inputs.size()) {
    Error = "KernelRegistry: kernel has no modulus port";
    return nullptr;
  }
  P->NumDataInputs = static_cast<unsigned>(QAt);
  for (size_t I = QAt; I < P->Lowered.Inputs.size(); ++I)
    P->AuxWords.push_back(P->Lowered.Inputs[I].storedWords());
  for (const rewrite::LoweredPort &Port : P->Lowered.Outputs)
    if (Port.storedWords() != P->ElemWords) {
      Error = "KernelRegistry: output port width mismatch";
      return nullptr;
    }
  // The RNS CRT kernels mix widths on the input side by design (wide
  // element vs word-sized residue); their drivers always dispatch with
  // explicit per-input strides, so the uniform check is skipped there.
  // The butterfly's Shoup companion wq = floor(w * 2^lambda / q) spans
  // the whole container, which is one word more than an element when the
  // modulus leaves a container word free (a 130-bit q, say).
  if (!kernelOpMixesWidths(Key.Op))
    for (size_t I = 0; I < QAt; ++I) {
      const rewrite::LoweredPort &Port = P->Lowered.Inputs[I];
      unsigned Want =
          Port.Name == "wq" ? Key.ContainerBits / 64 : P->ElemWords;
      if (Port.storedWords() != Want) {
        Error = "KernelRegistry: data input port width mismatch";
        return nullptr;
      }
    }
  // The 8-port bound is the interpreter's port frame (InterpBackend walks
  // every element and butterfly through an 8-slot array); the grid and
  // vector ABIs pass port arrays and share the bound, so a plan runs on
  // every rung of the degradation ladder or on none.
  if (P->numPorts() > 8) {
    Error = "KernelRegistry: unsupported port shape";
    return nullptr;
  }

  if (Key.Opts.Backend == rewrite::ExecBackend::Interp) {
    // The terminal-fallback artifact: no emit, no compile, no dlopen —
    // the scalar kernel itself is the executable, run per element by
    // InterpBackend through ir::interpret. Nothing on this path can fail
    // transiently, which is the property the degradation ladder rests
    // on. The lowered kernel is still the port-layout source of truth
    // (stored word counts, aux tail) shared with every compiled backend.
    P->InterpKernel = std::make_shared<ir::Kernel>(std::move(K));
    return P;
  }

  // One emitter per compiled backend: grid source for sim-GPU, vector
  // source otherwise. The sim-GPU block dimension and the fusion depth
  // are launch parameters, so plans differing only in them share one
  // module through HostJit's source-identity dedup while remaining
  // distinct cache entries.
  P->Emitted = IsSimGpu ? codegen::emitGridC(P->Lowered)
                        : codegen::emitVectorC(P->Lowered);

  // Vector artifacts carry per-plan extra flags: the JIT's default -O1
  // keeps plan builds fast, but the lane block needs the optimizer (and
  // the native ISA when available) to actually turn into SIMD. The flags
  // are part of HostJit's content hash and in-memory key, so the -O1 and
  // -O3 worlds never serve each other's objects.
  P->Module = Jit.load(P->Emitted.Source,
                       IsSimGpu ? "" : MOMA_VEC_EXTRA_FLAGS);
  if (!P->Module) {
    // Compiler and loader trouble is the canonical transient failure
    // class (crashed cc, full /tmp, OOM killer): retry with backoff.
    Error = "KernelRegistry: " + Jit.error();
    Transient = true;
    return nullptr;
  }
  P->Fn = resolveSymbol(*P->Module, P->Emitted.Symbol, Error);
  if (!P->Fn)
    return nullptr;
  if (!P->Emitted.FusedSymbol.empty()) {
    P->GroupFn = resolveSymbol(*P->Module, P->Emitted.FusedSymbol, Error);
    if (!P->GroupFn)
      return nullptr;
  }

  // The emitted signature must agree with the lowered port layout
  // computed above.
  if (P->numPorts() != P->Emitted.Ports.size()) {
    Error = "KernelRegistry: unsupported port shape";
    return nullptr;
  }
  return P;
}

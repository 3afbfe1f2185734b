//===- runtime/Autotuner.cpp - Per-problem variant selection --------------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "runtime/Autotuner.h"

#include "runtime/Backend.h"
#include "runtime/NttPipeline.h"
#include "support/FaultInjection.h"
#include "support/Format.h"
#include "support/Rng.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

using namespace moma;
using namespace moma::runtime;
using mw::Bignum;

//===----------------------------------------------------------------------===//
// Minimal JSON reader for the tune-cache format. Only what save() emits is
// required, but the reader accepts general objects/arrays and skips
// unknown keys so hand-edited caches keep loading.
//===----------------------------------------------------------------------===//

namespace {

/// The tune-cache format save() writes and the only one load() accepts.
constexpr unsigned CacheVersion = 5;

struct JValue {
  enum Kind { Null, Bool, Num, Str, Arr, Obj } K = Null;
  bool B = false;
  double N = 0;
  std::string S;
  std::vector<JValue> A;
  std::vector<std::pair<std::string, JValue>> O;

  const JValue *field(const std::string &Name) const {
    if (K != Obj)
      return nullptr;
    for (const auto &P : O)
      if (P.first == Name)
        return &P.second;
    return nullptr;
  }
};

class JParser {
public:
  explicit JParser(const std::string &Text)
      : C(Text.data()), E(Text.data() + Text.size()) {}

  bool parse(JValue &Out) {
    Out = value();
    skipWs();
    return Ok && C == E;
  }

private:
  void skipWs() {
    while (C != E && (*C == ' ' || *C == '\t' || *C == '\n' || *C == '\r'))
      ++C;
  }
  bool eat(char Want) {
    skipWs();
    if (C == E || *C != Want) {
      Ok = false;
      return false;
    }
    ++C;
    return true;
  }
  bool lit(const char *Word) {
    for (const char *P = Word; *P; ++P, ++C)
      if (C == E || *C != *P) {
        Ok = false;
        return false;
      }
    return true;
  }

  JValue value() {
    skipWs();
    JValue V;
    if (!Ok || C == E) {
      Ok = false;
      return V;
    }
    switch (*C) {
    case '{': {
      ++C;
      V.K = JValue::Obj;
      skipWs();
      if (C != E && *C == '}') {
        ++C;
        return V;
      }
      do {
        JValue Key = value();
        if (!Ok || Key.K != JValue::Str || !eat(':'))
          return V;
        V.O.emplace_back(Key.S, value());
        skipWs();
      } while (Ok && C != E && *C == ',' && (++C, true));
      eat('}');
      return V;
    }
    case '[': {
      ++C;
      V.K = JValue::Arr;
      skipWs();
      if (C != E && *C == ']') {
        ++C;
        return V;
      }
      do {
        V.A.push_back(value());
        skipWs();
      } while (Ok && C != E && *C == ',' && (++C, true));
      eat(']');
      return V;
    }
    case '"': {
      ++C;
      V.K = JValue::Str;
      while (C != E && *C != '"') {
        if (*C == '\\' && C + 1 != E) {
          ++C;
          switch (*C) {
          case 'n':
            V.S += '\n';
            break;
          case 't':
            V.S += '\t';
            break;
          default:
            V.S += *C; // covers \" \\ \/ — all save() can need
          }
        } else {
          V.S += *C;
        }
        ++C;
      }
      if (!eat('"'))
        Ok = false;
      return V;
    }
    case 't':
      V.K = JValue::Bool;
      V.B = true;
      lit("true");
      return V;
    case 'f':
      V.K = JValue::Bool;
      lit("false");
      return V;
    case 'n':
      lit("null");
      return V;
    default: {
      char *End = nullptr;
      V.K = JValue::Num;
      V.N = std::strtod(C, &End);
      if (End == C || End > E) {
        Ok = false;
        return V;
      }
      C = End;
      return V;
    }
    }
  }

  const char *C, *E;
  bool Ok = true;
};

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-element data-input count for each op (a,b / x,y,w / a,x,y).
unsigned numDataInputs(KernelOp Op) {
  switch (Op) {
  case KernelOp::Butterfly:
  case KernelOp::Axpy:
    return 3;
  default:
    return 2;
  }
}

unsigned numOutputs(KernelOp Op) {
  return Op == KernelOp::Butterfly ? 2 : 1;
}

} // namespace

Autotuner::Autotuner(KernelRegistry &Reg, AutotunerOptions Opts)
    : Reg(Reg), O(std::move(Opts)) {
  if (!O.CachePath.empty())
    (void)load(O.CachePath); // a missing cache file is a cold start
}

unsigned Autotuner::sizeBucket(size_t SizeHint) {
  unsigned B = 64;
  while (B < SizeHint && B < 16384)
    B *= 2;
  return B;
}

std::string Autotuner::decisionKey(KernelOp Op, const Bignum &Q,
                                   const rewrite::PlanOptions &Base,
                                   unsigned Bucket) const {
  PlanKey K = PlanKey::forModulus(Op, Q, Base);
  // Beyond the problem itself, pin every knob the sweep will NOT explore
  // (canonicalized, so folded knobs never split entries): two dispatchers
  // with conflicting base plans must never share a decision. The size
  // bucket is always part of the key — the serial/sim-GPU crossover is a
  // function of the batch size.
  std::string Key = K.problemStr() + formatv("/n%u", Bucket);
  Key += K.Opts.MulAlg == mw::MulAlgorithm::Karatsuba ? "/karatsuba"
                                                      : "/schoolbook";
  if (!O.TuneReduction)
    Key += std::string("/") + mw::reductionName(K.Opts.Red);
  if (!O.TunePrune)
    Key += K.Opts.Prune ? "/prune" : "/noprune";
  if (!O.TuneSchedule)
    Key += K.Opts.Schedule ? "/schedule" : "/noschedule";
  if (!O.TuneBackend) {
    Key += std::string("/") + rewrite::execBackendName(K.Opts.Backend);
    if (K.Opts.Backend == rewrite::ExecBackend::Vector)
      Key += formatv("/v%u", K.Opts.VectorWidth);
    else if (K.Opts.Backend != rewrite::ExecBackend::Serial)
      Key += formatv("/b%u", K.Opts.BlockDim);
  }
  return Key;
}

Autotuner::Stats Autotuner::stats() const {
  std::lock_guard<std::mutex> L(Mu);
  return S;
}

size_t Autotuner::numDecisions() const {
  std::lock_guard<std::mutex> L(Mu);
  return Decisions.size();
}

const TuneDecision *Autotuner::serveOrTune(
    const std::string &Problem,
    const std::function<bool(TuneDecision &, unsigned &, std::string &)>
        &Sweep) {
  // Admission: serve a pinned decision, wait out another thread's sweep
  // on this problem (then re-check — its decision is usually ours to
  // serve), or become the leader. A leader whose sweep fails leaves no
  // decision behind; a waiting follower then retries as a fresh leader,
  // which matches what independent sequential calls would do.
  {
    std::unique_lock<std::mutex> L(Mu);
    for (;;) {
      auto It = Decisions.find(Problem);
      if (It != Decisions.end()) {
        ++S.Reused;
        return &It->second;
      }
      if (!Tuning.count(Problem))
        break;
      TuneCV.wait(L);
    }
    Tuning.insert(Problem);
  }

  // Leader: run the timing sweep with no tuner locks held — candidates
  // compile through the (thread-safe) registry, so other problems keep
  // tuning and serving concurrently.
  TuneDecision D;
  unsigned CandsTimed = 0;
  std::string Error;
  bool Ok = Sweep(D, CandsTimed, Error);

  const TuneDecision *Ret = nullptr;
  {
    std::lock_guard<std::mutex> L(Mu);
    Tuning.erase(Problem);
    S.Candidates += CandsTimed;
    if (Ok) {
      ++S.Tuned;
      auto Ins = Decisions.emplace(Problem, D);
      Ret = &Ins.first->second;
      if (!O.CachePath.empty())
        (void)saveLocked(O.CachePath);
    }
  }
  TuneCV.notify_all();
  if (!Ok)
    Err.set(Error);
  return Ret;
}

const TuneDecision *Autotuner::choose(KernelOp Op, const Bignum &Q,
                                      const rewrite::PlanOptions &Base,
                                      size_t SizeHint) {
  Err.clear();
  unsigned Bucket = sizeBucket(SizeHint ? SizeHint : O.CalibrationElems);
  std::string Problem = decisionKey(Op, Q, Base, Bucket);
  return serveOrTune(Problem, [&](TuneDecision &D, unsigned &Timed,
                                  std::string &Error) {
    return tuneProblem(Op, Q, Base, Bucket, D, Timed, Error);
  });
}

std::vector<rewrite::PlanOptions>
Autotuner::candidates(KernelOp Op, const Bignum &Q,
                      const rewrite::PlanOptions &Base, bool SweepFuse,
                      std::string *Err) const {
  // Candidate knob grid. Dimensions the options disable stay at the base
  // plan's value; the reduction dimension only exists for multiplying
  // kernels (PlanKey canonicalization folds it away otherwise).
  std::vector<mw::Reduction> Reds = {Base.Red};
  if (O.TuneReduction && kernelOpMultiplies(Op))
    Reds = {mw::Reduction::Barrett, mw::Reduction::Montgomery};
  if (!Q.isOdd()) {
    // Montgomery needs -q^-1 mod 2^lambda; for an even modulus only the
    // Barrett candidates are meaningful.
    Reds = {mw::Reduction::Barrett};
    if (Base.Red == mw::Reduction::Montgomery) {
      if (Err)
        *Err = "Autotuner: Montgomery base plan needs an odd modulus";
      return {};
    }
  }
  std::vector<bool> Prunes = {Base.Prune};
  if (O.TunePrune)
    Prunes = {true, false};
  std::vector<bool> Scheds = {Base.Schedule};
  if (O.TuneSchedule)
    Scheds = {false, true};
  // Backend × geometry candidates. Sweeping is a timing-only cost beyond
  // one extra compile per knob combination: block dim and lane width are
  // launch parameters of their ABIs, so every sim-GPU geometry shares one
  // module and every vector lane width shares another.
  struct BackendCand {
    rewrite::ExecBackend Backend;
    unsigned BlockDim;
    unsigned VectorWidth;
  };
  std::vector<BackendCand> Backends = {
      {Base.Backend, Base.BlockDim, Base.VectorWidth}};
  if (O.TuneBackend) {
    Backends = {{rewrite::ExecBackend::Serial, 0, 0}};
    for (unsigned BD : O.BlockDims)
      Backends.push_back({rewrite::ExecBackend::SimGpu, BD, 0});
    for (unsigned VW : O.VectorWidths)
      Backends.push_back({rewrite::ExecBackend::Vector, 0, VW});
  }
  // The stage-fusion axis only exists for transform-shaped problems;
  // like block dim it is a launch parameter, so the sweep adds timing
  // runs but no compiles.
  std::vector<unsigned> Fuses = {Base.FuseDepth};
  if (SweepFuse && O.TuneFuseDepth && !O.FuseDepths.empty())
    Fuses = O.FuseDepths;

  std::vector<rewrite::PlanOptions> Out;
  for (mw::Reduction Red : Reds)
    for (bool Prune : Prunes)
      for (bool Sched : Scheds)
        for (const BackendCand &BC : Backends)
          for (unsigned FD : Fuses) {
            rewrite::PlanOptions C = Base;
            C.Red = Red;
            C.Prune = Prune;
            C.Schedule = Sched;
            C.Backend = BC.Backend;
            C.BlockDim = BC.BlockDim;
            C.VectorWidth = BC.VectorWidth;
            C.FuseDepth = FD;
            Out.push_back(C);
          }
  return Out;
}

bool Autotuner::tuneProblem(KernelOp Op, const Bignum &Q,
                            const rewrite::PlanOptions &Base,
                            unsigned Bucket, TuneDecision &Out,
                            unsigned &CandsTimed,
                            std::string &Error) const {
  std::vector<rewrite::PlanOptions> Cands =
      candidates(Op, Q, Base, /*SweepFuse=*/false, &Error);
  if (Cands.empty())
    return false;

  // One calibration batch shared by every candidate: random reduced
  // elements, deterministic per problem, sized to the problem's batch
  // class so the serial/sim-GPU ranking reflects real dispatch sizes.
  unsigned ElemWords = (Q.bitWidth() + 63) / 64;
  size_t N = std::min<size_t>(Bucket, std::max(1u, O.MaxCalibrationElems));
  Rng R(0x7C5EDull ^ (Q.bitWidth() * 1315423911ull) ^
        static_cast<std::uint64_t>(Op));
  unsigned NumIns = numDataInputs(Op), NumOuts = numOutputs(Op);
  std::vector<std::vector<std::uint64_t>> Ins(NumIns), Outs(NumOuts);
  for (auto &Buf : Ins) {
    Buf.reserve(N * ElemWords);
    for (size_t I = 0; I < N; ++I) {
      auto W = packWordsMsbFirst(Bignum::random(R, Q), ElemWords);
      Buf.insert(Buf.end(), W.begin(), W.end());
    }
  }
  for (auto &Buf : Outs)
    Buf.assign(N * ElemWords, 0);

  TuneDecision Best;
  Best.NsPerElem = std::numeric_limits<double>::infinity();
  bool Any = false;
  std::string FirstError;

  for (const rewrite::PlanOptions &C : Cands) {
    PlanKey Key = PlanKey::forModulus(Op, Q, C);
    std::shared_ptr<const CompiledPlan> Plan = Reg.get(Key);
    if (!Plan) {
      if (FirstError.empty())
        FirstError = Reg.error();
      continue;
    }
    PlanAux Aux = makePlanAux(*Plan, Q);
    BatchArgs Args;
    for (auto &Buf : Outs)
      Args.Outs.push_back(Buf.data());
    for (auto &Buf : Ins)
      Args.Ins.push_back(Buf.data());
    Args.Aux = Aux.ptrs();

    ExecutionBackend &EB = Reg.backendFor(Key);
    ++CandsTimed;
    // Chaos hook: a candidate whose timing run dies (a kernel crash would
    // take the process, but a backend refusal is survivable) just drops
    // out of the sweep like any other failed candidate.
    if (support::faultShouldFail("autotuner.time")) {
      if (FirstError.empty())
        FirstError = "Autotuner: fault injected at autotuner.time";
      continue;
    }
    double BestSec = std::numeric_limits<double>::infinity();
    bool RunOk = true;
    for (unsigned Rep = 0; Rep < O.Repeats && RunOk; ++Rep) {
      double T0 = nowSeconds();
      RunOk = EB.runBatch(*Plan, Args, N, /*Rows=*/1, &FirstError);
      BestSec = std::min(BestSec, nowSeconds() - T0);
    }
    if (!RunOk)
      continue;
    double Ns = BestSec * 1e9 / static_cast<double>(N);
    if (Ns < Best.NsPerElem) {
      // Keep the canonicalized form so the decision round-trips
      // through PlanKey and the JSON cache unchanged.
      Best.Opts = Key.Opts;
      Best.NsPerElem = Ns;
    }
    Any = true;
  }

  if (!Any) {
    Error = "Autotuner: every candidate failed: " + FirstError;
    return false;
  }
  Out = Best;
  return true;
}

const TuneDecision *Autotuner::chooseNtt(const Bignum &Q,
                                         const rewrite::PlanOptions &Base,
                                         size_t NPoints, size_t Batch) {
  Err.clear();
  if (NPoints < 2 || (NPoints & (NPoints - 1)) != 0) {
    Err.set("Autotuner: NTT size must be a power of two >= 2");
    return nullptr;
  }
  unsigned LogN = 0;
  while ((size_t(1) << LogN) < NPoints)
    ++LogN;
  // The size class is butterflies per stage dispatch — what one backend
  // launch actually executes — and the transform size is its own key
  // dimension: the winning fusion depth is a function of log2(n).
  size_t Hint = (NPoints / 2) * std::max<size_t>(1, Batch);
  unsigned Bucket = sizeBucket(Hint);
  std::string Problem =
      decisionKey(KernelOp::Butterfly, Q, Base, Bucket) +
      formatv("/ntt%u", LogN);
  // The ring is a semantic axis, never swept: negacyclic problems get
  // their own decisions (the ψ edge folds shift the stage-group cost
  // profile, so the winning depth may differ).
  if (Base.Ring == rewrite::NttRing::Negacyclic)
    Problem += "/neg";
  if (!O.TuneFuseDepth)
    Problem += formatv(
        "/f%u", PlanKey::forModulus(KernelOp::Butterfly, Q, Base)
                    .Opts.FuseDepth);
  return serveOrTune(Problem, [&](TuneDecision &D, unsigned &Timed,
                                  std::string &Error) {
    return tuneNttProblem(Q, Base, NPoints, Bucket, D, Timed, Error);
  });
}

bool Autotuner::tuneNttProblem(const Bignum &Q,
                               const rewrite::PlanOptions &Base,
                               size_t NPoints, unsigned Bucket,
                               TuneDecision &Out, unsigned &CandsTimed,
                               std::string &Error) const {
  std::vector<rewrite::PlanOptions> Cands =
      candidates(KernelOp::Butterfly, Q, Base, /*SweepFuse=*/true, &Error);
  if (Cands.empty())
    return false;

  // Twiddle tables per reduction domain the candidate set needs, built
  // once and shared across every timing run (matching how the dispatcher
  // serves transforms). Built for the base plan's ring, so negacyclic
  // candidates are timed with the ψ edge folds they will actually run.
  NttTables Tables[2]; // [0] Barrett/plain, [1] Montgomery
  bool Built[2] = {false, false};
  for (const rewrite::PlanOptions &C : Cands) {
    int D = C.Red == mw::Reduction::Montgomery ? 1 : 0;
    if (Built[D])
      continue;
    std::string TablesErr;
    if (!buildNttTables(Q, NPoints, C.Red, Tables[D], &TablesErr,
                        Base.Ring)) {
      Error = "Autotuner: " + TablesErr;
      return false;
    }
    Built[D] = true;
  }

  // Calibration shape: the real transform size, batched up to the
  // element budget so stage dispatches see representative grid sizes.
  unsigned ElemWords = (Q.bitWidth() + 63) / 64;
  size_t CalBatch = std::max<size_t>(
      1, std::max(1u, O.MaxCalibrationElems) / NPoints);
  size_t ImpliedBatch = std::max<size_t>(1, (2 * size_t(Bucket)) / NPoints);
  CalBatch = std::min(CalBatch, ImpliedBatch);
  size_t Elems = NPoints * CalBatch;

  Rng R(0x7C5EDull ^ (Q.bitWidth() * 1315423911ull) ^ (NPoints * 31ull));
  std::vector<std::uint64_t> Data;
  Data.reserve(Elems * ElemWords);
  for (size_t I = 0; I < Elems; ++I) {
    auto W = packWordsMsbFirst(Bignum::random(R, Q), ElemWords);
    Data.insert(Data.end(), W.begin(), W.end());
  }
  std::vector<std::uint64_t> Scratch(Elems * ElemWords);

  TuneDecision Best;
  Best.NsPerElem = std::numeric_limits<double>::infinity();
  bool Any = false;
  std::string FirstError;

  for (const rewrite::PlanOptions &C : Cands) {
    PlanKey Key = PlanKey::forModulus(KernelOp::Butterfly, Q, C);
    std::shared_ptr<const CompiledPlan> Plan = Reg.get(Key);
    if (!Plan) {
      if (FirstError.empty())
        FirstError = Reg.error();
      continue;
    }
    PlanAux Aux = makePlanAux(*Plan, Q);
    std::vector<const std::uint64_t *> AuxPtrs = Aux.ptrs();
    const NttTables &T =
        Tables[Key.Opts.Red == mw::Reduction::Montgomery ? 1 : 0];
    ExecutionBackend &EB = Reg.backendFor(Key);
    ++CandsTimed;
    // Chaos hook, as in tuneProblem: a failed timing run drops the
    // candidate, and an all-candidates failure surfaces as a tuner error.
    if (support::faultShouldFail("autotuner.time")) {
      if (FirstError.empty())
        FirstError = "Autotuner: fault injected at autotuner.time";
      continue;
    }
    double BestSec = std::numeric_limits<double>::infinity();
    bool RunOk = true;
    for (unsigned Rep = 0; Rep < O.Repeats && RunOk; ++Rep) {
      // Re-transforming transformed data is fine — inputs are arbitrary
      // reduced vectors, and every candidate sees the same evolution.
      double T0 = nowSeconds();
      RunOk = runTransform(EB, *Plan, T, AuxPtrs, Data.data(),
                           Scratch.data(), NPoints, CalBatch,
                           /*Inverse=*/false, &FirstError);
      BestSec = std::min(BestSec, nowSeconds() - T0);
    }
    if (!RunOk)
      continue;
    double Ns = BestSec * 1e9 / static_cast<double>(Elems);
    if (Ns < Best.NsPerElem) {
      Best.Opts = Key.Opts;
      Best.NsPerElem = Ns;
    }
    Any = true;
  }

  if (!Any) {
    Error = "Autotuner: every candidate failed: " + FirstError;
    return false;
  }
  Out = Best;
  return true;
}

bool Autotuner::save(const std::string &Path) const {
  std::lock_guard<std::mutex> L(Mu);
  return saveLocked(Path);
}

bool Autotuner::saveLocked(const std::string &Path) const {
  std::ostringstream SS;
  SS << "{\n  \"version\": " << CacheVersion << ",\n  \"entries\": [";
  bool First = true;
  for (const auto &E : Decisions) {
    const TuneDecision &D = E.second;
    SS << (First ? "" : ",") << "\n    {"
       << "\"problem\": \"" << E.first << "\", "
       << "\"word_bits\": " << D.Opts.TargetWordBits << ", "
       << "\"reduction\": \"" << mw::reductionName(D.Opts.Red) << "\", "
       << "\"mulalg\": \""
       << (D.Opts.MulAlg == mw::MulAlgorithm::Karatsuba ? "karatsuba"
                                                        : "schoolbook")
       << "\", "
       << "\"prune\": " << (D.Opts.Prune ? "true" : "false") << ", "
       << "\"schedule\": " << (D.Opts.Schedule ? "true" : "false") << ", "
       << "\"backend\": \"" << rewrite::execBackendName(D.Opts.Backend)
       << "\", "
       << "\"block_dim\": " << D.Opts.BlockDim << ", "
       << "\"vector_width\": " << D.Opts.VectorWidth << ", "
       << "\"fuse_depth\": " << D.Opts.FuseDepth << ", "
       << "\"ring\": \"" << rewrite::nttRingName(D.Opts.Ring) << "\", "
       << "\"ns_per_elem\": " << formatv("%.3f", D.NsPerElem) << "}";
    First = false;
  }
  SS << "\n  ]\n}\n";
  std::ofstream Out(Path);
  Out << SS.str();
  return static_cast<bool>(Out);
}

bool Autotuner::load(const std::string &Path) {
  std::ifstream In(Path);
  if (!In) {
    Err.set("Autotuner: cannot open " + Path);
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  JValue Root;
  if (!JParser(SS.str()).parse(Root) || Root.K != JValue::Obj) {
    Err.set("Autotuner: " + Path + " is not valid tune-cache JSON");
    return false;
  }
  // Only the current format loads: decisions are cheap to regenerate, so
  // an older file is a cold start that the next tune overwrites.
  const JValue *Version = Root.field("version");
  if (!Version || Version->K != JValue::Num || Version->N != CacheVersion) {
    Err.set(formatv("Autotuner: %s is not a version-%u tune cache; delete "
                    "it to re-tune",
                    Path.c_str(), CacheVersion));
    return false;
  }
  const JValue *Entries = Root.field("entries");
  if (!Entries || Entries->K != JValue::Arr) {
    Err.set("Autotuner: " + Path + " has no entries array");
    return false;
  }
  std::lock_guard<std::mutex> L(Mu);
  for (const JValue &E : Entries->A) {
    const JValue *Problem = E.field("problem");
    const JValue *Red = E.field("reduction");
    if (!Problem || Problem->K != JValue::Str || !Red ||
        Red->K != JValue::Str)
      continue; // tolerate foreign entries
    TuneDecision D;
    D.FromCache = true;
    D.Opts.Red = Red->S == "montgomery" ? mw::Reduction::Montgomery
                                        : mw::Reduction::Barrett;
    if (const JValue *V = E.field("word_bits"))
      D.Opts.TargetWordBits = static_cast<unsigned>(V->N);
    if (const JValue *V = E.field("mulalg"))
      D.Opts.MulAlg = V->S == "karatsuba" ? mw::MulAlgorithm::Karatsuba
                                          : mw::MulAlgorithm::Schoolbook;
    if (const JValue *V = E.field("prune"))
      D.Opts.Prune = V->B;
    if (const JValue *V = E.field("schedule"))
      D.Opts.Schedule = V->B;
    if (const JValue *V = E.field("backend"))
      D.Opts.Backend = V->S == "simgpu"   ? rewrite::ExecBackend::SimGpu
                       : V->S == "vector" ? rewrite::ExecBackend::Vector
                       : V->S == "interp" ? rewrite::ExecBackend::Interp
                                          : rewrite::ExecBackend::Serial;
    if (const JValue *V = E.field("block_dim"))
      D.Opts.BlockDim = static_cast<unsigned>(V->N);
    if (const JValue *V = E.field("vector_width"))
      D.Opts.VectorWidth = static_cast<unsigned>(V->N);
    if (const JValue *V = E.field("fuse_depth"))
      D.Opts.FuseDepth = std::max(1u, static_cast<unsigned>(V->N));
    if (const JValue *V = E.field("ring"))
      D.Opts.Ring = V->S == "negacyclic" ? rewrite::NttRing::Negacyclic
                                         : rewrite::NttRing::Cyclic;
    if (const JValue *V = E.field("ns_per_elem"))
      D.NsPerElem = V->N;
    // Freshly tuned decisions win over persisted ones.
    Decisions.emplace(Problem->S, D);
  }
  return true;
}

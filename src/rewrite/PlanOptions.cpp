//===- rewrite/PlanOptions.cpp - Unified generation-plan knobs ------------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "rewrite/PlanOptions.h"

#include "rewrite/PassManager.h"
#include "rewrite/Schedule.h"
#include "support/Error.h"
#include "support/Format.h"

using namespace moma;
using namespace moma::rewrite;

const char *moma::rewrite::execBackendName(ExecBackend B) {
  switch (B) {
  case ExecBackend::SimGpu:
    return "simgpu";
  case ExecBackend::Vector:
    return "vector";
  case ExecBackend::Interp:
    return "interp";
  case ExecBackend::Serial:
    break;
  }
  return "serial";
}

const char *moma::rewrite::nttRingName(NttRing R) {
  return R == NttRing::Negacyclic ? "negacyclic" : "cyclic";
}

std::string PlanOptions::str() const {
  std::string S =
      formatv("w%u/%s/%s/%s/%s", TargetWordBits, mw::reductionName(Red),
              MulAlg == mw::MulAlgorithm::Karatsuba ? "karatsuba"
                                                    : "schoolbook",
              Prune ? "prune" : "noprune",
              Schedule ? "schedule" : "noschedule");
  // Serial plans keep the historical five-token form so every cache key
  // minted before the backend knob existed still names the same plan.
  // Vector plans carry the lane count instead of a block dimension.
  if (Backend == ExecBackend::Vector)
    S += formatv("/vec/v%u", VectorWidth);
  else if (Backend == ExecBackend::Interp)
    S += "/interp"; // no launch geometry: the interpreter has none
  else if (Backend != ExecBackend::Serial)
    S += formatv("/%s/b%u", execBackendName(Backend), BlockDim);
  // Depth 1 is the historical radix-2 shape; only deeper fusion extends
  // the key, so pre-fusion cache keys stay readable.
  if (FuseDepth > 1)
    S += formatv("/f%u", FuseDepth);
  // Cyclic is the historical ring; only negacyclic plans extend the key.
  if (Ring == NttRing::Negacyclic)
    S += "/neg";
  // Only pass specs other than the default pipeline extend the key.
  if (!normalizedPasses().empty())
    S += "/p=" + normalizedPasses();
  return S;
}

LoweredKernel moma::rewrite::lowerWithPlan(const ir::Kernel &K,
                                           const PlanOptions &Opts) {
  LoweredKernel L = lowerToWords(K, Opts.lowerOptions());
  if (Opts.Prune) {
    PassPipeline P;
    std::string Err;
    if (!parsePipeline(Opts.Passes, P, &Err))
      fatalError(formatv("lowerWithPlan: %s", Err.c_str()));
    P.runLowered(L);
  }
  if (Opts.Schedule)
    scheduleForPressure(L.K, Opts.TargetWordBits);
  return L;
}

//===- rewrite/PlanOptions.cpp - Unified generation-plan knobs ------------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "rewrite/PlanOptions.h"

#include "rewrite/PassManager.h"
#include "rewrite/Schedule.h"
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
    break;
  }
  return "interp";
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
  // Every key names its backend. Only sim-GPU plans carry launch
  // geometry: the vector lane block is fixed, and the interpreter has
  // none.
  if (Backend == ExecBackend::SimGpu)
    S += formatv("/simgpu/b%u", BlockDim);
  else if (Backend == ExecBackend::Vector)
    S += "/vec";
  else
    S += "/interp";
  // Depth 1 is the historical radix-2 shape; only deeper fusion extends
  // the key, so pre-fusion cache keys stay readable.
  if (FuseDepth > 1)
    S += formatv("/f%u", FuseDepth);
  // Cyclic is the historical ring; only negacyclic plans extend the key.
  if (Ring == NttRing::Negacyclic)
    S += "/neg";
  return S;
}

LoweredKernel moma::rewrite::lowerWithPlan(const ir::Kernel &K,
                                           const PlanOptions &Opts) {
  LoweredKernel L = lowerToWords(K, Opts.lowerOptions());
  if (Opts.Prune)
    pruningPipeline().runLowered(L);
  if (Opts.Schedule)
    scheduleForPressure(L.K, Opts.TargetWordBits);
  return L;
}

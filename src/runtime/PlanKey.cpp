//===- runtime/PlanKey.cpp - Canonical plan-cache keys --------------------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "runtime/PlanKey.h"

#include "support/Error.h"
#include "support/Format.h"

#include <algorithm>

using namespace moma;
using namespace moma::runtime;

const char *moma::runtime::kernelOpName(KernelOp Op) {
  switch (Op) {
  case KernelOp::AddMod:
    return "addmod";
  case KernelOp::SubMod:
    return "submod";
  case KernelOp::MulMod:
    return "mulmod";
  case KernelOp::Butterfly:
    return "butterfly";
  case KernelOp::Axpy:
    return "axpy";
  case KernelOp::RnsDecompose:
    return "rnsdec";
  case KernelOp::RnsRecombineStep:
    return "rnsrec";
  case KernelOp::RnsRescaleStep:
    return "rnsresc";
  }
  moma_unreachable("unknown kernel op");
}

unsigned PlanKey::canonicalContainerBits(unsigned ModBits, unsigned WordBits) {
  unsigned Container = WordBits;
  while (Container < ModBits + 4)
    Container *= 2;
  return Container;
}

void PlanKey::foldArithmeticKnobs(KernelOp Op, rewrite::PlanOptions &Opts) {
  // The reduction knob only shapes mulmod and axpy (the butterfly
  // multiplies by Shoup's method under either value); the multiply rule
  // also shapes the butterfly. Addmod/submod and the RNS CRT kernels,
  // whose generalized Barrett sequence is baked in, fold both.
  bool ReducesByKnob = Op == KernelOp::MulMod || Op == KernelOp::Axpy;
  if (!ReducesByKnob)
    Opts.Red = mw::Reduction::Barrett;
  if (!ReducesByKnob && Op != KernelOp::Butterfly)
    Opts.MulAlg = mw::MulAlgorithm::Schoolbook;
}

PlanKey PlanKey::forModulus(KernelOp Op, const mw::Bignum &Q,
                            const rewrite::PlanOptions &Opts) {
  if (Q.bitWidth() < 2)
    fatalError("PlanKey: modulus must be at least two bits");
  PlanKey K;
  K.Op = Op;
  K.ModBits = Q.bitWidth();
  K.ContainerBits = canonicalContainerBits(K.ModBits, Opts.TargetWordBits);
  K.Opts = Opts;
  foldArithmeticKnobs(Op, K.Opts);
  // Launch geometry is a SimGpu-only knob: fold it to 0 on every other
  // backend (one cache entry regardless of the caller's block dim), and
  // give SimGpu plans the paper's 256-thread default when left unset.
  // Keys stay canonical either way.
  if (K.Opts.Backend != rewrite::ExecBackend::SimGpu)
    K.Opts.BlockDim = 0;
  else if (K.Opts.BlockDim == 0)
    K.Opts.BlockDim = 256;
  // Stage fusion only exists for the NTT stage kernel: fold the knob to 1
  // everywhere else so a fused base plan never splits the element-wise
  // cache entries. Butterfly plans clamp into the emitters' supported
  // window (0 reads as "unset" -> 1).
  if (Op != KernelOp::Butterfly || K.Opts.FuseDepth == 0)
    K.Opts.FuseDepth = 1;
  else
    K.Opts.FuseDepth =
        std::min(K.Opts.FuseDepth, rewrite::PlanOptions::MaxFuseDepth);
  // The ring axis likewise only exists for the NTT stage kernel: the
  // negacyclic twist is a table fold, not a different element kernel.
  if (Op != KernelOp::Butterfly)
    K.Opts.Ring = rewrite::NttRing::Cyclic;
  return K;
}

PlanKey PlanKey::forRns(KernelOp Op, const mw::Bignum &Q, unsigned WideWords,
                        const rewrite::PlanOptions &Opts) {
  PlanKey K = forModulus(Op, Q, Opts);
  if (Op == KernelOp::RnsDecompose) {
    // The decompose kernel reduces a WideWords-word value to one limb
    // residue: the container is sized by the wide side, the modulus by
    // the limb, so both widths live in one key.
    if (WideWords < 1)
      fatalError("PlanKey: RnsDecompose needs the wide word count");
    K.WideWords = WideWords;
    K.ContainerBits =
        canonicalContainerBits(WideWords * 64 - 4, Opts.TargetWordBits);
  }
  return K;
}

std::string PlanKey::problemStr() const {
  std::string Wide = WideWords ? formatv("/W%u", WideWords) : std::string();
  return formatv("%s/c%u/m%u%s/w%u", kernelOpName(Op), ContainerBits,
                 ModBits, Wide.c_str(), Opts.TargetWordBits);
}

std::string PlanKey::str() const {
  std::string Wide = WideWords ? formatv("/W%u", WideWords) : std::string();
  return formatv("%s/c%u/m%u%s/%s", kernelOpName(Op), ContainerBits, ModBits,
                 Wide.c_str(), Opts.str().c_str());
}

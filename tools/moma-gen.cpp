//===- tools/moma-gen.cpp - command-line kernel generator ----------------------===//
//
// The reproduction's equivalent of the paper artifact's entry point
// (benchmark.sh -d <bits> ...): generate a cryptographic kernel at a
// chosen bit-width and print IR, C, or CUDA — or run the runtime
// autotuner for the configuration and report the pinned variant.
//
// Usage:
//   moma-gen -k <addmod|submod|mulmod|butterfly|axpy|vadd|vsub|vmul
//               |rnsdec|rnsrec|rnsresc>
//            -d <container-bits>         (default 128)
//            [-m <modulus-bits>]         (default container-4; e.g. 377;
//                                         limb bits for rnsdec/rnsrec)
//            [-w <machine-word-bits>]    (16, 32 or 64; default 64)
//            [--karatsuba]               (Eq. 9 multiply rule)
//            [--reduction barrett|montgomery]  (default barrett;
//                                         mulmod/axpy only: the butterfly
//                                         multiplies by Shoup's method)
//            [--no-prune]                (skip the §4 zero-word pruning)
//            [--schedule]                (pressure-aware list scheduling)
//            [--backend simgpu|vector]   (print the runtime translation
//                                         unit for that backend)
//            [--block-dim <n>]           (simgpu threads/block, <= 1024)
//            [--fuse-depth <k>]          (NTT stage fusion, 1..3; butterfly)
//            [--ring cyclic|negacyclic]  (NTT ring; butterfly tune/keys)
//            [--rns-limbs <L>]           (RNS base size for rnsdec/rnsrec)
//            [--device h100|rtx4090|v100|host] (simgpu device profile)
//            [--emit ir|c|cuda|stats|pass-stats|tune]  (default c)
//            [--tune-cache <path>]       (persist/reuse autotune JSON)
//
// `--emit c` without `--backend` prints the scalar C function (the
// paper's listing form, in -w machine words); with `--backend simgpu` it
// prints the grid-shaped source (the §5.1 CUDA thread mapping as host-JIT
// C; butterfly kernels include the fused radix-2^k stage-group entry) and
// with `--backend vector` the vector source (the batch element loop, plus
// the fused entry with batch rows in SIMD lanes for butterflies). The
// CUDA output and the runtime translation units spell 64-bit ports, so
// `--emit cuda` and `--backend` need `-w 64`. `--emit tune` sweeps the
// backend and block-dim axes alongside reduction/pruning/scheduling —
// butterfly kernels tune the transform-shaped problem (a batched
// 256-point NTT through the fused pipeline, via Autotuner::chooseNtt), so
// the fusion depth is swept and reported alongside the backend.
//
// Every pruned plan runs the one pruning pipeline (rewrite/PassManager.h),
// and `--no-prune` skips it. `--emit pass-stats` lowers the kernel, runs
// the pipeline and reports what each of its passes did.
//
// The reduction and multiply-rule knobs a kernel ignores are folded the
// way the runtime's PlanKey folds them before anything is lowered, so
// every output names and shows the variant the runtime would build.
//
// `rnsdec` / `rnsrec` are the RNS layer's generated CRT edge kernels
// (runtime/RnsContext.h): -m gives the word-sized limb width (default
// 60) and --rns-limbs the base size; the tool builds the real base to
// derive the wide width, then prints the kernel like any other.
// `rnsresc` is the modulus-switching step kernel (drop-a-limb rescale,
// runtime/RnsTensor.h): uniform single-word ports at the limb width, so
// only -m applies.
//
// Examples:
//   moma-gen -k mulmod -d 256 --emit cuda
//   moma-gen -k mulmod -d 256 --reduction montgomery --emit c
//   moma-gen -k butterfly -d 512 -m 377 --emit stats   # BLS12-381 class
//   moma-gen -k butterfly -d 128 --backend simgpu --emit c
//   moma-gen -k mulmod -m 252 --backend vector --emit c
//   moma-gen -k butterfly -m 60 --ring negacyclic --emit tune
//   moma-gen -k mulmod -m 380 --emit tune --tune-cache tune.json
//   moma-gen -k vmul -m 252 --device rtx4090 --emit tune
//   moma-gen -k rnsdec -m 60 --rns-limbs 8 --emit stats
//   moma-gen -k rnsdec -m 60 --emit pass-stats
//   moma-gen -k rnsresc -m 60 --emit c
//
//===----------------------------------------------------------------------===//

#include "codegen/CEmitter.h"
#include "codegen/CudaEmitter.h"
#include "codegen/GridEmitter.h"
#include "codegen/VectorEmitter.h"
#include "field/PrimeGen.h"
#include "ir/Printer.h"
#include "kernels/BlasKernels.h"
#include "kernels/ScalarKernels.h"
#include "rewrite/PassManager.h"
#include "rewrite/PlanOptions.h"
#include "rewrite/Schedule.h"
#include "rewrite/Stats.h"
#include "runtime/Autotuner.h"
#include "runtime/RnsContext.h"
#include "support/FaultInjection.h"
#include "support/Format.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace moma;

namespace {

[[noreturn]] void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s -k <kernel> [-d bits] [-m modbits] [-w wordbits]\n"
      "          [--karatsuba] [--reduction barrett|montgomery]\n"
      "          (--reduction shapes mulmod/axpy, never the butterfly)\n"
      "          [--no-prune] [--schedule]\n"
      "          [--backend simgpu|vector] [--block-dim <n>]\n"
      "          [--fuse-depth <k>] [--ring cyclic|negacyclic]\n"
      "          [--rns-limbs <L>] [--device h100|rtx4090|v100|host]\n"
      "          [--emit ir|c|cuda|stats|pass-stats|tune]\n"
      "          [--tune-cache <path>] [--inject <site:policy>]\n"
      "kernels: addmod submod mulmod butterfly axpy vadd vsub vmul\n"
      "         rnsdec rnsrec rnsresc\n",
      Argv0);
  std::exit(2);
}

const sim::DeviceProfile *deviceFor(const std::string &Name) {
  if (Name == "h100")
    return &sim::deviceH100();
  if (Name == "rtx4090")
    return &sim::deviceRTX4090();
  if (Name == "v100")
    return &sim::deviceV100();
  if (Name == "host")
    return &sim::deviceHostDefault();
  return nullptr;
}

/// Maps a kernel name onto the runtime op whose knob folds it takes.
bool kernelOpFor(const std::string &Name, runtime::KernelOp &Op) {
  if (Name == "addmod" || Name == "vadd")
    Op = runtime::KernelOp::AddMod;
  else if (Name == "submod" || Name == "vsub")
    Op = runtime::KernelOp::SubMod;
  else if (Name == "mulmod" || Name == "vmul")
    Op = runtime::KernelOp::MulMod;
  else if (Name == "butterfly")
    Op = runtime::KernelOp::Butterfly;
  else if (Name == "axpy")
    Op = runtime::KernelOp::Axpy;
  else if (Name == "rnsdec")
    Op = runtime::KernelOp::RnsDecompose;
  else if (Name == "rnsrec")
    Op = runtime::KernelOp::RnsRecombineStep;
  else if (Name == "rnsresc")
    Op = runtime::KernelOp::RnsRescaleStep;
  else
    return false;
  return true;
}

} // namespace

int main(int argc, char **argv) {
  std::string KernelName = "mulmod", Emit = "c", TuneCache;
  std::string DeviceName = "host";
  unsigned Bits = 128, ModBits = 0, WordBits = 64, RnsLimbs = 0;
  rewrite::PlanOptions Plan;
  bool BackendGiven = false;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc)
        usage(argv[0]);
      return argv[++I];
    };
    if (Arg == "-k")
      KernelName = Next();
    else if (Arg == "-d")
      Bits = std::strtoul(Next(), nullptr, 10);
    else if (Arg == "-m")
      ModBits = std::strtoul(Next(), nullptr, 10);
    else if (Arg == "-w")
      WordBits = std::strtoul(Next(), nullptr, 10);
    else if (Arg == "--karatsuba")
      Plan.MulAlg = mw::MulAlgorithm::Karatsuba;
    else if (Arg == "--reduction") {
      std::string R = Next();
      if (R == "barrett")
        Plan.Red = mw::Reduction::Barrett;
      else if (R == "montgomery")
        Plan.Red = mw::Reduction::Montgomery;
      else
        usage(argv[0]);
    } else if (Arg == "--no-prune")
      Plan.Prune = false;
    else if (Arg == "--schedule")
      Plan.Schedule = true;
    else if (Arg == "--backend") {
      std::string B = Next();
      if (B == "simgpu")
        Plan.Backend = rewrite::ExecBackend::SimGpu;
      else if (B == "vector")
        Plan.Backend = rewrite::ExecBackend::Vector;
      else
        usage(argv[0]);
      BackendGiven = true;
    } else if (Arg == "--block-dim")
      Plan.BlockDim = std::strtoul(Next(), nullptr, 10);
    else if (Arg == "--fuse-depth")
      Plan.FuseDepth = std::strtoul(Next(), nullptr, 10);
    else if (Arg == "--ring") {
      std::string Rg = Next();
      if (Rg == "cyclic")
        Plan.Ring = rewrite::NttRing::Cyclic;
      else if (Rg == "negacyclic")
        Plan.Ring = rewrite::NttRing::Negacyclic;
      else
        usage(argv[0]);
    } else if (Arg == "--rns-limbs")
      RnsLimbs = std::strtoul(Next(), nullptr, 10);
    else if (Arg == "--device") {
      DeviceName = Next();
      if (!deviceFor(DeviceName))
        usage(argv[0]);
    } else if (Arg == "--emit")
      Emit = Next();
    else if (Arg == "--tune-cache")
      TuneCache = Next();
    else if (Arg == "--inject") {
      // `site:policy` on the command line, `site=policy` in the
      // MOMA_FAULTS grammar — only the first ':' separates the site.
      std::string Spec = Next();
      size_t Colon = Spec.find(':');
      if (Colon == std::string::npos)
        usage(argv[0]);
      Spec[Colon] = '=';
      std::string Err;
      if (!support::FaultInjection::instance().configureFromSpec(Spec,
                                                                 &Err)) {
        std::fprintf(stderr, "moma-gen: bad --inject spec: %s\n",
                     Err.c_str());
        return 2;
      }
    } else
      usage(argv[0]);
  }
  if (WordBits != 16 && WordBits != 32 && WordBits != 64)
    usage(argv[0]);
  Plan.TargetWordBits = WordBits;
  runtime::KernelOp Op;
  if (!kernelOpFor(KernelName, Op))
    usage(argv[0]);
  if (WordBits != 64 && (BackendGiven || Emit == "cuda")) {
    std::fprintf(stderr,
                 "moma-gen: -w %u: the CUDA output and the runtime "
                 "translation units use 64-bit words; drop -w or use "
                 "--emit ir|c|stats|pass-stats without --backend\n",
                 WordBits);
    return 2;
  }
  runtime::PlanKey::foldArithmeticKnobs(Op, Plan);

  kernels::ScalarKernelSpec Spec{Bits, ModBits, Plan.Red};

  if (Emit == "tune") {
    // Autotune the runtime problem this spec canonicalizes to, with a
    // representative NTT-friendly modulus of the requested width.
    if (KernelName == "rnsdec" || KernelName == "rnsrec" ||
        KernelName == "rnsresc") {
      std::fprintf(stderr,
                   "%s is not autotunable: the RNS CRT kernels fold the "
                   "whole variant grid (generalized Barrett is baked in) "
                   "and run on the base plan's backend; use --emit "
                   "ir|c|stats instead\n",
                   KernelName.c_str());
      return 2;
    }
    // Negacyclic transforms need one extra factor of two (2n | q - 1).
    mw::Bignum Q = field::nttPrime(
        Spec.modBits(),
        Plan.Ring == rewrite::NttRing::Negacyclic ? 10 : 8);
    runtime::KernelRegistry Reg;
    Reg.setDeviceProfile(*deviceFor(DeviceName));
    runtime::AutotunerOptions TO;
    TO.CachePath = TuneCache;
    runtime::Autotuner Tuner(Reg, TO);
    // Butterfly problems tune the transform shape they serve — a batched
    // 256-point NTT through the fused stage pipeline — so the FuseDepth
    // axis is measured on real stage-group walks.
    const size_t TuneNttPoints = 256, TuneNttBatch = 64;
    bool IsNtt = Op == runtime::KernelOp::Butterfly;
    const runtime::TuneDecision *D =
        IsNtt ? Tuner.chooseNtt(Q, Plan, TuneNttPoints, TuneNttBatch)
              : Tuner.choose(Op, Q, Plan);
    if (!D) {
      std::fprintf(stderr, "autotune failed: %s\n", Tuner.error().c_str());
      return 1;
    }
    std::printf("problem:  %s%s (device %s)\n",
                runtime::PlanKey::forModulus(Op, Q, Plan).problemStr()
                    .c_str(),
                IsNtt ? formatv(" as n=%zu NTT x %zu batch", TuneNttPoints,
                                TuneNttBatch)
                            .c_str()
                      : "",
                Reg.deviceProfile().Name.c_str());
    std::printf("decision: %s\n", D->Opts.str().c_str());
    std::printf("backend:  %s%s\n",
                rewrite::execBackendName(D->Opts.Backend),
                D->Opts.Backend == rewrite::ExecBackend::SimGpu
                    ? formatv(" (block dim %u)", D->Opts.BlockDim).c_str()
                    : "");
    if (IsNtt) {
      unsigned LogN = 0;
      while ((size_t(1) << LogN) < TuneNttPoints)
        ++LogN;
      std::printf("fusion:   depth %u (%u stage dispatches per %zu-point "
                  "transform)\n",
                  D->Opts.FuseDepth,
                  (LogN + D->Opts.FuseDepth - 1) / D->Opts.FuseDepth,
                  TuneNttPoints);
      std::printf("ring:     %s%s\n", rewrite::nttRingName(D->Opts.Ring),
                  D->Opts.Ring == rewrite::NttRing::Negacyclic
                      ? " (psi twist folded into the edge stage groups)"
                      : "");
    }
    std::printf("measured: %.1f ns/element over %u candidates%s\n",
                D->NsPerElem, Tuner.stats().Candidates,
                D->FromCache ? " (reloaded from tune cache)" : "");
    if (!TuneCache.empty())
      std::printf("persisted to %s\n", TuneCache.c_str());
    return 0;
  }

  ir::Kernel K;
  bool IsButterfly = false;
  if (KernelName == "addmod" || KernelName == "vadd")
    K = kernels::buildAddModKernel(Spec);
  else if (KernelName == "submod" || KernelName == "vsub")
    K = kernels::buildSubModKernel(Spec);
  else if (KernelName == "mulmod" || KernelName == "vmul")
    K = kernels::buildMulModKernel(Spec);
  else if (KernelName == "axpy")
    K = kernels::buildAxpyKernel(Spec);
  else if (KernelName == "butterfly") {
    K = kernels::buildButterflyKernel(Spec);
    IsButterfly = true;
  } else if (KernelName == "rnsdec" || KernelName == "rnsrec") {
    // The RNS CRT edge kernels: build the real base (deterministic
    // primes) so the wide width is the one the runtime would use.
    runtime::RnsContext Ctx;
    std::string Err;
    runtime::RnsContext::Options RO;
    RO.LimbBits = ModBits ? ModBits : 60;
    if (!runtime::RnsContext::create(RnsLimbs ? RnsLimbs : 4, Ctx, &Err,
                                     RO)) {
      std::fprintf(stderr, "%s\n", Err.c_str());
      return 1;
    }
    if (KernelName == "rnsdec") {
      ModBits = RO.LimbBits;
      Bits = runtime::PlanKey::canonicalContainerBits(
          Ctx.wideWords() * 64 - 4, WordBits);
      Spec = kernels::ScalarKernelSpec{Bits, ModBits,
                                       mw::Reduction::Barrett};
      K = kernels::buildRnsDecomposeKernel(Spec, Ctx.wideWords());
    } else {
      ModBits = Ctx.modulus().bitWidth();
      Bits = runtime::PlanKey::canonicalContainerBits(ModBits, WordBits);
      Spec = kernels::ScalarKernelSpec{Bits, ModBits,
                                       mw::Reduction::Barrett};
      K = kernels::buildRnsRecombineStepKernel(Spec);
    }
  } else if (KernelName == "rnsresc") {
    // The rescale step is uniform single-word arithmetic at the limb
    // width — no base needed, just the limb modulus class.
    ModBits = ModBits ? ModBits : 60;
    Bits = runtime::PlanKey::canonicalContainerBits(ModBits, WordBits);
    Spec = kernels::ScalarKernelSpec{Bits, ModBits, mw::Reduction::Barrett};
    K = kernels::buildRnsRescaleStepKernel(Spec);
  } else
    usage(argv[0]);
  K.Name = KernelName + "_" + std::to_string(Bits);

  if (Emit == "ir") {
    std::printf("%s", ir::printKernel(K).c_str());
    return 0;
  }

  if (Emit == "pass-stats") {
    // What each pass of the pruning pipeline did to this lowered kernel.
    rewrite::LoweredKernel LP = rewrite::lowerToWords(K, Plan.lowerOptions());
    rewrite::OpStats Before = rewrite::countOps(LP.K);
    rewrite::PipelineStats PS = rewrite::pruningPipeline().runLowered(LP);
    rewrite::OpStats After = rewrite::countOps(LP.K);
    std::printf("kernel %s: pruning pipeline\n", K.Name.c_str());
    std::printf("%s", PS.report().c_str());
    std::printf("ops: %u -> %u stmts, %u -> %u mul, %u -> %u addsub\n",
                Before.Total, After.Total, Before.multiplies(),
                After.multiplies(), Before.addSubs(), After.addSubs());
    return 0;
  }

  rewrite::LoweredKernel L = rewrite::lowerWithPlan(K, Plan);

  if (Emit == "stats") {
    rewrite::OpStats S = rewrite::countOps(L.K);
    rewrite::PressureStats P = rewrite::measurePressure(L.K, WordBits);
    std::printf("kernel %s: %u-bit container, %u-bit modulus, "
                "omega0 = %u, %s multiply, %s reduction%s%s\n",
                K.Name.c_str(), Bits, Spec.modBits(), WordBits,
                Plan.MulAlg == mw::MulAlgorithm::Karatsuba ? "Karatsuba"
                                                           : "schoolbook",
                mw::reductionName(Plan.Red),
                Plan.Prune ? "" : ", pruning off",
                Plan.Schedule ? ", scheduled" : "");
    std::printf("lowered in %u rounds\n%s", L.Rounds, S.report().c_str());
    std::printf("peak live words: %u\n", P.MaxLiveWords);
    for (const auto &Port : L.Inputs)
      std::printf("in  %-4s %2u stored words (of %zu container words)\n",
                  Port.Name.c_str(), Port.storedWords(), Port.Words.size());
    for (const auto &Port : L.Outputs)
      std::printf("out %-4s %2u stored words\n", Port.Name.c_str(),
                  Port.storedWords());
    return 0;
  }
  if (Emit == "c") {
    if (!BackendGiven) {
      // The scalar function in the paper's listing form, spelled in the
      // -w machine words the kernel was lowered to.
      codegen::CEmitOptions COpts;
      COpts.WordBits = WordBits;
      std::printf("%s", codegen::emitC(L, COpts).Source.c_str());
    } else if (Plan.Backend == rewrite::ExecBackend::SimGpu)
      // The grid-shaped source the sim-GPU backend compiles: the 5.1
      // thread mapping as host-JIT C (element-wise entry, plus the fused
      // NTT stage-group entry for butterfly kernels).
      std::printf("%s", codegen::emitGridC(L).Source.c_str());
    else
      // The source the vector backend compiles at -O3 [-march=native]:
      // the batch element loop, plus the fused entry with batch rows in
      // SIMD lanes for butterflies.
      std::printf("%s", codegen::emitVectorC(L).Source.c_str());
    return 0;
  }
  if (Emit == "cuda") {
    if (IsButterfly) {
      // One NTT stage from the plan-lowered butterfly, named and bannered
      // as kernels::emitNttCuda names its default-plan stage.
      L.K.Name = formatv("ntt_butterfly_%u", Bits);
      codegen::CudaEmitOptions COpts;
      COpts.Banner = formatv(
          "NTT butterfly, %u-bit elements, %u-bit modulus, %s multiply",
          Bits, Spec.modBits(),
          Plan.MulAlg == mw::MulAlgorithm::Karatsuba ? "Karatsuba"
                                                     : "schoolbook");
      std::printf("%s", codegen::emitCudaNttStage(L, COpts).c_str());
    } else {
      codegen::CudaEmitOptions COpts;
      std::printf("%s", codegen::emitCudaElementwise(L, COpts).c_str());
    }
    return 0;
  }
  usage(argv[0]);
}

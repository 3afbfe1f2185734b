//===- examples/codegen_inspect.cpp - watch the rewrite system work ------------===//
//
// Usage: ./build/examples/codegen_inspect [container-bits] [modulus-bits]
// (defaults: 128 124; try "512 377" to see the non-power-of-two pruning)
//
// Dumps the full pipeline for the NTT butterfly, the paper's central
// kernel: abstract IR, each recursive lowering round (Table 1 rules),
// simplification statistics, and the final C and CUDA translation units.
//
//===----------------------------------------------------------------------===//

#include "codegen/CEmitter.h"
#include "codegen/CudaEmitter.h"
#include "ir/Printer.h"
#include "jit/HostJit.h"
#include "kernels/NttKernels.h"
#include "rewrite/PassManager.h"
#include "rewrite/Stats.h"

#include <cstdio>
#include <cstdlib>

using namespace moma;

int main(int argc, char **argv) {
  unsigned Container = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 128;
  unsigned ModBits = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 0;
  kernels::ScalarKernelSpec Spec{Container, ModBits};

  std::printf("== building the %u-bit NTT butterfly (modulus %u bits) ==\n\n",
              Container, Spec.modBits());
  ir::Kernel K = kernels::buildButterflyKernel(Spec);
  std::printf("%s\n", ir::printKernel(K).c_str());

  std::printf("== recursive lowering (rules 19-29) ==\n");
  rewrite::LowerOptions Opts;
  ir::Kernel Cur = K;
  while (Cur.maxBits() > Opts.TargetWordBits) {
    unsigned From = Cur.maxBits();
    Cur = rewrite::lowerOneLevel(Cur, Opts);
    std::printf("  %4u -> %4u bits: %zu statements\n", From, Cur.maxBits(),
                Cur.size());
  }

  rewrite::LoweredKernel L = rewrite::lowerToWords(K, Opts);
  std::printf("\n== simplification (constant folding, zero-word pruning, "
              "CSE, DCE) ==\n");
  rewrite::OpStats Before = rewrite::countOps(L.K);
  rewrite::PipelineStats PS = rewrite::pruningPipeline().runLowered(L);
  rewrite::OpStats After = rewrite::countOps(L.K);
  std::printf("  %u -> %u statements (folded %u, identities %u, "
              "range-pruned %u, dead %u)\n",
              Before.Total, After.Total, PS.pass("constfold")->Changes,
              PS.pass("algebraic")->Changes, PS.pass("range")->Changes,
              PS.pass("dce")->Removed);
  std::printf("\n  final op mix:\n%s\n", After.report().c_str());

  std::printf("== port layout (stored words, msb first) ==\n");
  for (const auto &P : L.Inputs)
    std::printf("  in  %-3s %u container words, %u stored\n", P.Name.c_str(),
                static_cast<unsigned>(P.Words.size()), P.storedWords());
  for (const auto &P : L.Outputs)
    std::printf("  out %-3s %u container words, %u stored\n", P.Name.c_str(),
                static_cast<unsigned>(P.Words.size()), P.storedWords());

  std::printf("\n== emitted C (compile-and-dlopen tested in the suite) ==\n");
  codegen::EmittedKernel EK = codegen::emitC(L);
  std::printf("%s\n", EK.Source.c_str());

  // Inspection keeps going without a working host compiler — the CUDA
  // dump below must still print — but the exit status reports the miss.
  std::printf("== host JIT (src/jit/HostJit.h) ==\n");
  int ExitCode = 0;
  jit::HostJit Jit;
  std::shared_ptr<jit::JitModule> M = Jit.load(EK.Source);
  void *Sym = M ? M->symbol(EK.Symbol) : nullptr;
  if (!M) {
    std::fprintf(stderr, "host JIT failed:\n%s\n", Jit.error().c_str());
    ExitCode = 1;
  } else if (!Sym) {
    std::fprintf(stderr, "host JIT loaded %s but symbol '%s' is missing\n",
                 M->soPath().c_str(), EK.Symbol.c_str());
    ExitCode = 1;
  } else {
    std::printf("  compiler   %s\n", Jit.compiler().c_str());
    std::printf("  shared obj %s%s\n", M->soPath().c_str(),
                M->fromDiskCache() ? " (reused from cache)"
                                   : " (fresh compile)");
    std::printf("  symbol     %s at %p\n\n", EK.Symbol.c_str(), Sym);
  }

  std::printf("== emitted CUDA stage kernel ==\n");
  std::printf("%s\n", kernels::emitNttCuda(Spec).c_str());
  return ExitCode;
}

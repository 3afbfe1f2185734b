//===- bench/bench_ablation_pruning.cpp - non-pow2 pruning ablation ------------===//
//
// Ablation called out in DESIGN.md: how much does the paper's §4
// non-power-of-two optimization (statically-zero word pruning) buy?
//
// Two measurements:
//  1. Static: word-op counts of the lowered+simplified mulmod kernel with
//     the real width vs naive zero-padding to the container width.
//  2. Dynamic: Barrett mulmod throughput with exact-word containers vs
//     padded containers in the runtime library.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "field/PrimeGen.h"
#include "kernels/ScalarKernels.h"
#include "mw/Barrett.h"
#include "rewrite/Lower.h"
#include "rewrite/PlanOptions.h"
#include "rewrite/Stats.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

#include <memory>

using namespace moma;
using namespace moma::bench;
using namespace moma::rewrite;
using mw::Bignum;

namespace {

OpStats loweredStats(unsigned Container, unsigned ModBits) {
  kernels::ScalarKernelSpec Spec{Container, ModBits};
  LoweredKernel L =
      lowerWithPlan(kernels::buildMulModKernel(Spec), PlanOptions());
  return countOps(L.K);
}

template <unsigned W> void registerMulModThroughput(const char *Tag,
                                                    unsigned MBits) {
  Bignum Q = field::nttPrime(MBits, 8);
  auto Ctx = std::make_shared<mw::Barrett<W>>(mw::Barrett<W>::create(Q));
  Rng R(0xAB1A + W);
  auto A = std::make_shared<mw::MWUInt<W>>(
      mw::MWUInt<W>::fromBignum(Bignum::random(R, Q)));
  auto B = std::make_shared<mw::MWUInt<W>>(
      mw::MWUInt<W>::fromBignum(Bignum::random(R, Q)));
  registerBench(Tag, [Ctx, A, B](benchmark::State &S) {
    mw::MWUInt<W> Acc = *A;
    for (auto _ : S) {
      Acc = Ctx->mulMod(Acc, *B);
      benchmark::DoNotOptimize(Acc);
    }
  })->Unit(benchmark::kNanosecond);
}

} // namespace

int main(int argc, char **argv) {
  banner("Ablation: non-power-of-two pruning (paper 4, Eq. 35/36)");

  struct Case {
    unsigned Lambda;    // real modulus bits (ZKP/FHE shapes from 5.2)
    unsigned Container; // power-of-two container
    const char *What;
  };
  const Case Cases[] = {
      {116, 128, "FHE modulus [52]"},
      {377, 512, "BLS12-381-class"},
      {380, 512, "generic 384-bit class"},
      {753, 1024, "MNT4753-class"},
  };

  banner("Static op counts: pruned vs zero-padded mulmod kernels");
  TextTable T({"modulus", "container", "ops padded", "ops pruned",
               "muls padded", "muls pruned", "total saved"});
  for (const Case &Cs : Cases) {
    OpStats Padded = loweredStats(Cs.Container, Cs.Container - 4);
    OpStats Pruned = loweredStats(Cs.Container, Cs.Lambda);
    T.addRow({formatv("%u-bit (%s)", Cs.Lambda, Cs.What),
              formatv("%u", Cs.Container), formatv("%u", Padded.Total),
              formatv("%u", Pruned.Total), formatv("%u", Padded.multiplies()),
              formatv("%u", Pruned.multiplies()),
              formatv("%.0f%%",
                      100.0 * (1.0 - double(Pruned.Total) /
                                         double(Padded.Total)))});
  }
  bench::report(T.render());

  // Dynamic: exact-word vs padded runtime containers.
  registerMulModThroughput<6>("runtime/mulmod380/exact6words", 380);
  registerMulModThroughput<8>("runtime/mulmod380/padded8words", 380);
  registerMulModThroughput<12>("runtime/mulmod753/exact12words", 749);
  registerMulModThroughput<16>("runtime/mulmod753/padded16words", 749);

  Collector C = runAll(argc, argv);

  banner("Dynamic throughput: exact-word vs padded containers");
  double E6 = lookupNs(C, "runtime/mulmod380/exact6words");
  double P8 = lookupNs(C, "runtime/mulmod380/padded8words");
  double E12 = lookupNs(C, "runtime/mulmod753/exact12words");
  double P16 = lookupNs(C, "runtime/mulmod753/padded16words");
  verdict("380-bit mulmod: 6-word container faster than 8-word", P8 / E6,
          1.3);
  verdict("753-bit mulmod: 12-word container faster than 16-word",
          P16 / E12, 1.3);
  benchmark::Shutdown();
  return 0;
}

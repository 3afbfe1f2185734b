//===- bench/bench_rns.cpp - RNS multi-modulus polynomial runtime --------------===//
//
// The serving claims of the RNS layer (runtime/RnsContext.h + the
// Dispatcher's rns* entry points), the workload real FHE/ZKP stacks ship
// (RNS-batched negacyclic polynomial products):
//
//   1. PLAN SHARING — PlanKey excludes the modulus value, so every limb
//      of a base runs through one compiled module per kernel: the
//      compiled-plan count is a small constant independent of the limb
//      count (measured on fresh registries at 2 and 4 limbs);
//   2. EDGE-FOLD CRT — decompose and recombine are generated kernels
//      dispatched per limb, not host loops; their cost is measured
//      against the per-limb NTT work they bracket;
//   3. NEGACYCLIC FOR FREE — the x^n + 1 product issues exactly the
//      dispatch sequence of the cyclic one (ψ twist and untwist ride the
//      existing edge stage groups).
//
// `--smoke` runs a tiny wiring check (bit-exactness vs the Bignum
// schoolbook, exact dispatch/plan counts) with no timing assertions —
// the CI perf-trajectory gate compares its `--json` output against the
// committed baseline (see tools/bench_compare.py): *_count/*_ok metrics
// must match exactly, *_ns metrics within a generous ratio.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "field/PrimeField.h"
#include "ntt/Negacyclic.h"
#include "ntt/Ntt.h"
#include "ntt/ReferenceDft.h"
#include "runtime/Dispatcher.h"
#include "support/Rng.h"

#include <chrono>
#include <cstring>

using namespace moma;
using namespace moma::bench;
using namespace moma::runtime;
using mw::Bignum;
using rewrite::ExecBackend;
using rewrite::NttRing;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

rewrite::PlanOptions pinnedVector(unsigned Depth) {
  rewrite::PlanOptions O;
  O.Backend = ExecBackend::Vector;
  O.FuseDepth = Depth;
  return O;
}

/// Builds a base or dies with a message (benches have no gtest).
RnsContext mustBase(unsigned Limbs) {
  RnsContext Ctx;
  std::string Err;
  if (!RnsContext::create(Limbs, Ctx, &Err)) {
    std::fprintf(stderr, "%s\n", Err.c_str());
    std::exit(1);
  }
  return Ctx;
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  for (int I = 1; I < argc; ++I)
    if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = true;
  std::string JsonPath = jsonPathFromArgs(argc, argv);

  const unsigned Limbs = 4;
  const size_t N = Smoke ? 16 : 256; // ring degree
  const size_t Batch = Smoke ? 4 : fastMode() ? 16 : 64;
  RnsContext Ctx = mustBase(Limbs);
  const Bignum &M = Ctx.modulus();
  const unsigned WW = Ctx.wideWords();

  deviceSection(Smoke ? "RNS runtime smoke check (tiny sizes, wiring only)"
                      : "RNS multi-modulus negacyclic polynomial runtime");
  reportf("base: %u limbs x %u bits (M = %u bits, %u-word wide elements)\n"
          "workload: %zu negacyclic products in Z_M[x]/(x^%zu + 1)\n",
          Limbs, Ctx.limbBits(), M.bitWidth(), WW, Batch, N);
  flushReport();

  Rng R(0x2A5B);
  std::vector<Bignum> A, B;
  for (size_t I = 0; I < N * Batch; ++I) {
    A.push_back(Bignum::random(R, M));
    B.push_back(Bignum::random(R, M));
  }
  auto AW = packBatch(A, WW), BW = packBatch(B, WW);
  std::vector<std::uint64_t> CW(N * Batch * WW);

  // -- 1) Exact dispatch/plan accounting on a fresh pinned registry ------
  // Deterministic by construction (no tuner, fixed depth 2), so the CI
  // trajectory gate checks these counts exactly.
  KernelRegistry CountReg;
  Dispatcher CountD(CountReg, nullptr, pinnedVector(2));
  if (!CountD.rnsPolyMul(Ctx, AW.data(), BW.data(), CW.data(), N, Batch,
                         NttRing::Cyclic)) {
    reportf("rnsPolyMul failed: %s\n", CountD.error().c_str());
    return 1;
  }
  auto Cyc = CountD.dispatchStats();
  // Snapshot before the negacyclic pass: the ring is its own (module-
  // sharing) plan-cache entry, so the cross-limb-count comparison below
  // is cyclic-vs-cyclic.
  unsigned BuildsL4 = CountReg.stats().Builds;
  if (!CountD.rnsPolyMul(Ctx, AW.data(), BW.data(), CW.data(), N, Batch,
                         NttRing::Negacyclic)) {
    reportf("rnsPolyMul failed: %s\n", CountD.error().c_str());
    return 1;
  }
  auto Neg = CountD.dispatchStats();
  std::uint64_t CycDispatches = Cyc.StageGroups + Cyc.Batches;
  std::uint64_t NegDispatches =
      (Neg.StageGroups - Cyc.StageGroups) + (Neg.Batches - Cyc.Batches);
  std::uint64_t NegExtra = NegDispatches - CycDispatches;

  // The sharing claim at a second limb count: 2 limbs on another fresh
  // registry must build exactly as many plans as 4.
  unsigned BuildsL2 = 0;
  {
    RnsContext Ctx2 = mustBase(2);
    std::vector<Bignum> A2;
    for (size_t I = 0; I < N; ++I)
      A2.push_back(Bignum::random(R, Ctx2.modulus()));
    auto A2W = packBatch(A2, Ctx2.wideWords());
    std::vector<std::uint64_t> C2W(N * Ctx2.wideWords());
    KernelRegistry Reg2;
    Dispatcher D2(Reg2, nullptr, pinnedVector(2));
    if (!D2.rnsPolyMul(Ctx2, A2W.data(), A2W.data(), C2W.data(), N, 1,
                       NttRing::Cyclic)) {
      reportf("rnsPolyMul (2 limbs) failed: %s\n", D2.error().c_str());
      return 1;
    }
    BuildsL2 = Reg2.stats().Builds;
  }

  // -- 2) Correctness against an independent oracle ----------------------
  bool BitExact = true;
  {
    auto Got = unpackBatch(CW, WW);
    if (Smoke) {
      // Tiny n: full Bignum schoolbook on every batch row.
      for (size_t Bt = 0; Bt < Batch && BitExact; ++Bt) {
        std::vector<Bignum> RA(A.begin() + Bt * N,
                               A.begin() + (Bt + 1) * N),
            RB(B.begin() + Bt * N, B.begin() + (Bt + 1) * N);
        auto Want =
            ntt::referencePolyMulRing(RA, RB, M, /*Negacyclic=*/true);
        for (size_t I = 0; I < N; ++I)
          if (Got[Bt * N + I] != Want[I])
            BitExact = false;
      }
    } else {
      // Full mode: the independent library path (ntt::NegacyclicPlan per
      // limb + host CRT) on the first batch row.
      std::vector<Bignum> RA(A.begin(), A.begin() + N),
          RB(B.begin(), B.begin() + N);
      std::vector<std::vector<std::uint64_t>> LimbC(Ctx.numLimbs());
      for (size_t L = 0; L < Ctx.numLimbs(); ++L) {
        field::PrimeField<1> F(Ctx.limb(L));
        ntt::NegacyclicPlan<1> Plan(F, N);
        std::vector<field::PrimeField<1>::Element> EA, EB;
        for (size_t I = 0; I < N; ++I) {
          EA.push_back(F.fromBignum(RA[I] % Ctx.limb(L)));
          EB.push_back(F.fromBignum(RB[I] % Ctx.limb(L)));
        }
        auto EC = ntt::polyMulNegacyclic(Plan, EA, EB);
        for (const auto &E : EC)
          LimbC[L].push_back(E.toBignum().low64());
      }
      for (size_t I = 0; I < N && BitExact; ++I) {
        std::vector<std::uint64_t> Res;
        for (size_t L = 0; L < Ctx.numLimbs(); ++L)
          Res.push_back(LimbC[L][I]);
        if (Got[I] != Ctx.decode(Res.data(), 1))
          BitExact = false;
      }
    }
  }

  // Decompose/recombine roundtrip (wiring of the generated CRT kernels).
  bool Roundtrip = true;
  {
    std::vector<std::uint64_t> Res(Ctx.numLimbs() * N * Batch),
        Back(N * Batch * WW);
    Dispatcher D(CountReg, nullptr, pinnedVector(2));
    if (!D.rnsDecompose(Ctx, AW.data(), Res.data(), N * Batch) ||
        !D.rnsRecombine(Ctx, Res.data(), Back.data(), N * Batch))
      Roundtrip = false;
    else
      Roundtrip = Back == AW;
  }

  // -- 3) Timings (ratio-gated in CI with generous tolerance) ------------
  KernelRegistry TimeReg;
  Autotuner Tuner(TimeReg);
  Dispatcher D(TimeReg, &Tuner);
  // Warm plans, tables and tuner decisions with one full pass.
  if (!D.rnsPolyMul(Ctx, AW.data(), BW.data(), CW.data(), N, Batch,
                    NttRing::Negacyclic)) {
    reportf("rnsPolyMul (tuned) failed: %s\n", D.error().c_str());
    return 1;
  }
  auto T0 = std::chrono::steady_clock::now();
  if (!D.rnsPolyMul(Ctx, AW.data(), BW.data(), CW.data(), N, Batch,
                    NttRing::Negacyclic))
    return 1;
  double PolySec = secondsSince(T0);

  std::vector<std::uint64_t> Res(Ctx.numLimbs() * N * Batch);
  T0 = std::chrono::steady_clock::now();
  if (!D.rnsDecompose(Ctx, AW.data(), Res.data(), N * Batch))
    return 1;
  double DecSec = secondsSince(T0);
  T0 = std::chrono::steady_clock::now();
  if (!D.rnsRecombine(Ctx, Res.data(), CW.data(), N * Batch))
    return 1;
  double RecSec = secondsSince(T0);

  banner("Results");
  TextTable T({"phase", "time", "per wide element"});
  size_t Elems = N * Batch;
  T.addRow({"decompose (4 limbs)", formatNanos(DecSec * 1e9),
            formatNanos(DecSec * 1e9 / double(Elems))});
  T.addRow({"recombine (4 limbs)", formatNanos(RecSec * 1e9),
            formatNanos(RecSec * 1e9 / double(Elems))});
  T.addRow({"full negacyclic rnsPolyMul", formatNanos(PolySec * 1e9),
            formatNanos(PolySec * 1e9 / double(Elems))});
  report(T.render());
  reportf("plans: %u built for 4 limbs, %u for 2 limbs (pinned vector "
          "registries); cyclic dispatches %llu, negacyclic extra %llu\n",
          BuildsL4, BuildsL2,
          static_cast<unsigned long long>(CycDispatches),
          static_cast<unsigned long long>(NegExtra));

  recordMetric("rns/limb_plan_builds_l4_count", double(BuildsL4));
  recordMetric("rns/limb_plan_builds_l2_count", double(BuildsL2));
  recordMetric("rns/polymul_dispatches_count", double(CycDispatches));
  recordMetric("rns/neg_extra_dispatches_count", double(NegExtra));
  recordMetric("rns/polymul_bitexact_ok", BitExact ? 1.0 : 0.0);
  recordMetric("rns/crt_roundtrip_ok", Roundtrip ? 1.0 : 0.0);
  recordMetric("rns/decompose_ns", DecSec * 1e9);
  recordMetric("rns/recombine_ns", RecSec * 1e9);
  recordMetric("rns/polymul_ns", PolySec * 1e9);

  banner(Smoke ? "Smoke verdicts (wiring only, no performance assertions)"
               : "Verdicts");
  verdict("rnsPolyMul bit-exact vs independent oracle",
          BitExact ? 1.0 : 0.0, 1.0);
  verdict("generated CRT kernels roundtrip the wide batch",
          Roundtrip ? 1.0 : 0.0, 1.0);
  verdict("compiled-plan count independent of limb count",
          BuildsL2 == BuildsL4 ? 1.0 : 0.0, 1.0);
  verdict("negacyclic adds zero dispatches over cyclic",
          NegExtra == 0 ? 1.0 : 0.0, 1.0);
  flushReport();
  if (!writeJsonReport(JsonPath, "bench_rns")) {
    std::fprintf(stderr, "cannot write %s\n", JsonPath.c_str());
    return 1;
  }
  if (!JsonPath.empty())
    std::printf("wrote %s\n", JsonPath.c_str());
  return BitExact && Roundtrip && BuildsL2 == BuildsL4 && NegExtra == 0
             ? 0
             : 1;
}

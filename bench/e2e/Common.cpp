//===- bench/e2e/Common.cpp - shared helpers of the e2e benchmark ---------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <sys/resource.h>
#include <time.h>

using namespace moma;
using namespace moma::e2e;

namespace {
double clockS(clockid_t Id) {
  timespec Ts{};
  clock_gettime(Id, &Ts);
  return Ts.tv_sec + Ts.tv_nsec * 1e-9;
}
} // namespace

double moma::e2e::processCpuS() { return clockS(CLOCK_PROCESS_CPUTIME_ID); }
double moma::e2e::threadCpuS() { return clockS(CLOCK_THREAD_CPUTIME_ID); }

double moma::e2e::peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

std::vector<std::uint64_t> moma::e2e::randomBatch(Rng &R, const mw::Bignum &Q,
                                                  size_t N) {
  const unsigned Bits = Q.bitWidth();
  const unsigned K = (Bits + 63) / 64;
  const unsigned TopBits = Bits - 64 * (K - 1);
  const std::uint64_t TopMask =
      TopBits == 64 ? ~0ull : ((1ull << TopBits) - 1);
  std::vector<std::uint64_t> QW(K); // most significant word first
  for (unsigned J = 0; J < K; ++J)
    QW[J] = Q.limb(K - 1 - J);
  std::vector<std::uint64_t> Out(N * K);
  for (size_t I = 0; I < N; ++I) {
    std::uint64_t *E = Out.data() + I * K;
    for (;;) {
      E[0] = R.next64() & TopMask;
      for (unsigned J = 1; J < K; ++J)
        E[J] = R.next64();
      if (std::lexicographical_compare(E, E + K, QW.begin(), QW.end()))
        break; // below q: accept (rejects less than half the draws)
    }
  }
  return Out;
}

void moma::e2e::closedLoopMetrics(std::vector<CaseTimes> Cases,
                                  MetricMap &M) {
  std::vector<double> P50, Rate;
  for (CaseTimes &C : Cases) {
    if (C.CallS.empty())
      continue;
    P50.push_back(percentile(C.CallS, 0.50) * 1e3);
    Rate.push_back(1 / median(C.CallCpuS));
  }
  M["p50_ms"] = {geomean(P50), "ms"};
  M["req_per_cpu_s"] = {geomean(Rate), "req/cpu-s"};
}

//===- bench/e2e/Common.h - shared helpers of the e2e benchmark -*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clock, sample statistics, the metric sink, and the bookkeeping every
/// workload of the end-to-end benchmark shares.
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_BENCH_E2E_COMMON_H
#define MOMA_BENCH_E2E_COMMON_H

#include "mw/Bignum.h"
#include "support/Rng.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace moma {
namespace e2e {

using Clock = std::chrono::steady_clock;

/// Every span and request timestamp is seconds since one process-wide
/// epoch, taken on first use.
inline Clock::time_point epoch() {
  static const Clock::time_point E = Clock::now();
  return E;
}
inline double toS(Clock::time_point T) {
  return std::chrono::duration<double>(T - epoch()).count();
}
inline double nowS() { return toS(Clock::now()); }

/// CPU seconds consumed so far by the whole process / the calling thread.
double processCpuS();
double threadCpuS();

/// Nearest-rank percentile (\p Q in [0, 1]); sorts \p V. 0 when empty.
inline double percentile(std::vector<double> &V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * V.size()));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}

inline double median(std::vector<double> V) { return percentile(V, 0.5); }

inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double L = 0;
  for (double X : V)
    L += std::log(X);
  return std::exp(L / V.size());
}

/// One named metric with its unit.
struct Metric {
  double Value = 0;
  std::string Unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Requests attempted and failed in one run. A failure is an error reply, a
/// rejection, a missed deadline, or an output the oracle disagrees with.
struct Ledger {
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<std::string> Errors; ///< first few failure messages

  void fail(const std::string &Why) {
    ++Failed;
    if (Errors.size() < 8)
      Errors.push_back(Why);
  }
};

/// Peak resident set of this process, in MB.
double peakRssMb();

/// Uniform double in (0, 1].
inline double unitOpen(Rng &R) {
  return (static_cast<double>(R.next64() >> 11) + 1.0) * 0x1.0p-53;
}

/// \p N elements uniformly below \p Q, packed most significant word first
/// (the runtime's batch layout). Rejection-samples the top word, so it is
/// fast for the 2^24-element batches.
std::vector<std::uint64_t> randomBatch(Rng &R, const mw::Bignum &Q,
                                       size_t N);

/// Wall and CPU (of the calling thread) times of one closed-loop case's
/// calls, in seconds.
struct CaseTimes {
  std::string Name;
  std::vector<double> CallS, CallCpuS;
};

/// The closed-loop end-to-end metrics: each case's median call time, and
/// the calls per CPU-second its median CPU time per call gives, folded over
/// the cases by geometric mean.
void closedLoopMetrics(std::vector<CaseTimes> Cases, MetricMap &M);

} // namespace e2e
} // namespace moma

#endif // MOMA_BENCH_E2E_COMMON_H

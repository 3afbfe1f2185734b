//===- tests/service/ParkedWorker.h - stall a Server worker in dispatch -----===//
//
// Deterministic batches for the serving tests. The Server dispatches
// whatever is queued the moment a worker is free, so a test that wants a
// known batch first parks the worker inside a dispatch, then queues the
// batch behind it.
//
//===----------------------------------------------------------------------===//

#ifndef MOMA_TESTS_SERVICE_PARKEDWORKER_H
#define MOMA_TESTS_SERVICE_PARKEDWORKER_H

#include "support/FaultInjection.h"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>

namespace moma {
namespace testutil {

/// Stalls the next pass through fault site \p Site (by default the
/// Server's dispatch) for \p DelayUs. Usage: construct, submit the
/// request that parks the worker, wait(), submit the burst, release().
/// With one worker, the burst is exactly the worker's next batch.
/// release() (or the destructor) disarms the site; the parked worker
/// still sleeps out its delay, so \p DelayUs must cover submitting the
/// burst.
class ParkedWorker {
public:
  explicit ParkedWorker(std::uint64_t DelayUs = 200000,
                        const char *Site = "server.dispatch")
      : Site(Site), HitsBefore(hits()) {
    support::FaultInjection::instance().configure(
        Site, support::FaultPolicy::delayUs(DelayUs));
  }
  ~ParkedWorker() { release(); }
  ParkedWorker(const ParkedWorker &) = delete;
  ParkedWorker &operator=(const ParkedWorker &) = delete;

  /// Returns once a worker has entered the stall.
  void wait() const {
    while (hits() == HitsBefore)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  void release() { support::FaultInjection::instance().clear(Site); }

private:
  std::uint64_t hits() const {
    return support::FaultInjection::instance().counters(Site).Hits;
  }
  const char *const Site;
  const std::uint64_t HitsBefore;
};

/// Submits request 0 through \p Submit, waits until the worker that took
/// it is parked, then submits requests 1 .. \p Reqs - 1 behind it. With
/// one worker (and MaxBatch >= Reqs - 1) the server serves them in
/// exactly two dispatches: request 0 alone, then the rest as one batch.
inline void submitBehindParkedWorker(
    size_t Reqs, const std::function<void(size_t)> &Submit) {
  ParkedWorker Park;
  Submit(0);
  Park.wait();
  for (size_t I = 1; I < Reqs; ++I)
    Submit(I);
}

} // namespace testutil
} // namespace moma

#endif // MOMA_TESTS_SERVICE_PARKEDWORKER_H

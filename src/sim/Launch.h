//===- sim/Launch.h - Grid/block kernel execution on CPU ------*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CUDA-launch-shaped execution on a host thread pool: a kernel is a
/// callable invoked once per (block, thread) coordinate, blocks are
/// distributed across workers, and each block gets a private shared-memory
/// arena sized by the device profile. This is the execution substrate for
/// the benchmark harnesses (DESIGN.md §4 substitution).
///
/// Launch validation mirrors the CUDA rules the paper relies on (at most
/// MaxThreadsPerBlock = 1024 threads, §5.1) and is exercised by the
/// failure-injection tests.
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_SIM_LAUNCH_H
#define MOMA_SIM_LAUNCH_H

#include "sim/Device.h"

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace moma {
namespace sim {

/// Persistent worker pool shared by all launches of one Device: thread
/// creation per launch would swamp the fine-grained kernels the paper
/// times (a BLAS element op is tens of nanoseconds).
class ThreadPool {
public:
  /// Spawns \p NumWorkers - 1 auxiliary threads; the caller of run()
  /// participates as the remaining worker.
  explicit ThreadPool(unsigned NumWorkers);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Executes RangeFn over [0, N) split into chunks of \p Chunk indices,
  /// work-stealing via an atomic cursor. Blocks until every index ran.
  /// The pool holds one job at a time: concurrent run() calls from
  /// different threads queue on RunMu. Not reentrant: a nested run()
  /// from inside RangeFn (which would corrupt the job state and deadlock
  /// the pool) is detected via a thread-local active-pool marker and
  /// reported through support::fatalError with a clear message instead
  /// of hanging.
  void run(std::uint64_t N, std::uint64_t Chunk,
           const std::function<void(std::uint64_t, std::uint64_t)> &RangeFn);

private:
  void workerLoop();
  void drain();

  /// Held for the whole of a job, so a second caller cannot overwrite
  /// Fn/JobN/Next/Active while the first job still runs.
  std::mutex RunMu;
  std::mutex M;
  std::condition_variable WakeCV;
  std::condition_variable DoneCV;
  std::uint64_t Generation = 0;
  bool Stopping = false;
  const std::function<void(std::uint64_t, std::uint64_t)> *Fn = nullptr;
  std::uint64_t JobN = 0;
  std::uint64_t JobChunk = 1;
  std::atomic<std::uint64_t> Next{0};
  std::atomic<unsigned> Active{0};
  std::vector<std::thread> Aux;
};

/// Grid/block coordinates handed to a kernel invocation.
struct LaunchCoord {
  std::uint32_t BlockX = 0;
  std::uint32_t BlockY = 0;
  std::uint32_t ThreadX = 0;
};

/// Per-block scratch arena standing in for CUDA shared memory.
class SharedMem {
public:
  explicit SharedMem(size_t Bytes) : Storage(Bytes) {}

  /// Bump-allocates \p Bytes (8-byte aligned); returns nullptr when the
  /// block's shared memory is exhausted — exactly the failure a CUDA
  /// kernel would hit, surfaced for the fallback-to-global path.
  void *alloc(size_t Bytes);

  /// Resets the arena between blocks.
  void reset() { Offset = 0; }

  size_t capacity() const { return Storage.size(); }
  size_t used() const { return Offset; }

private:
  std::vector<std::uint8_t> Storage;
  size_t Offset = 0;
};

/// Launch geometry.
struct LaunchConfig {
  std::uint32_t GridX = 1;
  std::uint32_t GridY = 1; ///< the paper's batch dimension
  std::uint32_t BlockDim = 256;
};

/// A simulated device: worker pool + profile. Launch entry points are
/// thread-safe: concurrent callers are serialized on an internal launch
/// mutex — the single-stream model of the GPU being simulated — because
/// the underlying ThreadPool holds one job at a time. Kernels of one
/// launch still spread across the whole worker pool.
class Device {
public:
  explicit Device(const DeviceProfile &Profile = deviceHostDefault());

  const DeviceProfile &profile() const { return Profile; }
  unsigned workerCount() const { return Workers; }

  /// Returns an error string for invalid configs, empty if launchable.
  std::string validate(const LaunchConfig &Cfg) const;

  /// Runs \p Kernel for every (block, thread) coordinate; one block is
  /// processed entirely by one worker (serialized threads, like a
  /// time-sliced SM), blocks are spread over the pool. Aborts on invalid
  /// configs — call validate() first to handle errors gracefully.
  void launch(const LaunchConfig &Cfg,
              const std::function<void(const LaunchCoord &, SharedMem &)>
                  &Kernel) const;

  /// Runs \p BlockFn once per (blockX, blockY) coordinate, blocks spread
  /// over the pool. The block function iterates its own threads — the
  /// ABI of the JIT-compiled grid kernels (codegen/GridEmitter.h), which
  /// amortizes the per-call dispatch cost over a whole block. Validates
  /// \p Cfg like launch() (call validate() first to handle errors
  /// gracefully).
  void launchBlocks(
      const LaunchConfig &Cfg,
      const std::function<void(std::uint32_t, std::uint32_t)> &BlockFn) const;

  /// Convenience: parallel loop over [0, N) with one virtual thread per
  /// index (the BLAS "one thread per element" mapping).
  void parallelFor(std::uint64_t N,
                   const std::function<void(std::uint64_t)> &Fn) const;

private:
  ThreadPool &pool() const;

  DeviceProfile Profile;
  unsigned Workers;
  /// Serializes launches (and guards lazy Pool creation): the pool's job
  /// state is single-occupancy, so concurrent launches queue here like
  /// kernels on one CUDA stream.
  mutable std::mutex LaunchMu;
  mutable std::unique_ptr<ThreadPool> Pool;
};

} // namespace sim
} // namespace moma

#endif // MOMA_SIM_LAUNCH_H

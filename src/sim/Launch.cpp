//===- sim/Launch.cpp - Grid/block kernel execution on CPU -----------------===//

#include "sim/Launch.h"

#include "support/Error.h"
#include "support/FaultInjection.h"
#include "support/Format.h"

using namespace moma;
using namespace moma::sim;

void *SharedMem::alloc(size_t Bytes) {
  size_t Aligned = (Offset + 7) & ~size_t(7);
  if (Aligned + Bytes > Storage.size())
    return nullptr;
  void *P = Storage.data() + Aligned;
  Offset = Aligned + Bytes;
  return P;
}

ThreadPool::ThreadPool(unsigned NumWorkers) {
  unsigned AuxCount = NumWorkers > 1 ? NumWorkers - 1 : 0;
  Aux.reserve(AuxCount);
  for (unsigned I = 0; I < AuxCount; ++I)
    Aux.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(M);
    Stopping = true;
  }
  WakeCV.notify_all();
  for (auto &T : Aux)
    T.join();
}

namespace {

/// The pool whose job the current thread is executing, set for the
/// duration of every RangeFn scope (caller and workers alike). run() uses
/// it to turn the documented "not reentrant" contract from a silent
/// deadlock into an immediate, explained failure. The scope restores the
/// previous marker (not nullptr): driving a second pool from inside a
/// job is legal, and the outer pool's marker must survive the inner
/// run() so later self-nesting on the outer pool is still caught.
thread_local const ThreadPool *ActivePool = nullptr;

struct ActivePoolScope {
  explicit ActivePoolScope(const ThreadPool *P) : Prev(ActivePool) {
    ActivePool = P;
  }
  ~ActivePoolScope() { ActivePool = Prev; }
  const ThreadPool *Prev;
};

/// The device whose launch the current thread is inside, mirroring
/// ActivePool one level up: a nested launch on the same device must NOT
/// try to take the launch mutex again (self-deadlock) — it skips the lock
/// and falls through to ThreadPool::run's reentrancy check, which reports
/// the contract violation with its clear fatalError instead.
thread_local const Device *ActiveLaunchDevice = nullptr;

struct LaunchScope {
  explicit LaunchScope(const Device *D) : Prev(ActiveLaunchDevice) {
    ActiveLaunchDevice = D;
  }
  ~LaunchScope() { ActiveLaunchDevice = Prev; }
  const Device *Prev;
};

} // namespace

void ThreadPool::drain() {
  for (;;) {
    std::uint64_t Begin = Next.fetch_add(JobChunk, std::memory_order_relaxed);
    if (Begin >= JobN)
      return;
    std::uint64_t End = std::min(JobN, Begin + JobChunk);
    (*Fn)(Begin, End);
  }
}

void ThreadPool::workerLoop() {
  std::uint64_t SeenGeneration = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> Lock(M);
      WakeCV.wait(Lock, [&] {
        return Stopping || Generation != SeenGeneration;
      });
      if (Stopping)
        return;
      SeenGeneration = Generation;
    }
    {
      ActivePoolScope Scope(this);
      drain();
    }
    if (Active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> Lock(M);
      DoneCV.notify_all();
    }
  }
}

void ThreadPool::run(
    std::uint64_t N, std::uint64_t Chunk,
    const std::function<void(std::uint64_t, std::uint64_t)> &RangeFn) {
  // Nested entry — run() called from inside a RangeFn of this same pool —
  // would overwrite the active job state and leave the outer run() (and
  // on a worker thread, the whole pool) deadlocked. Detect it here, on
  // the serial fallback too, so the contract violation fails identically
  // on every machine instead of only where auxiliary workers exist.
  if (ActivePool == this)
    fatalError("sim thread pool: nested run() from inside a running job "
               "(ThreadPool::run is not reentrant; use a second pool or "
               "restructure the kernel)");
  if (N == 0)
    return;
  if (Aux.empty()) {
    ActivePoolScope Scope(this);
    for (std::uint64_t Begin = 0; Begin < N; Begin += Chunk)
      RangeFn(Begin, std::min(N, Begin + Chunk));
    return;
  }
  // One job at a time: two threads driving this pool at once (the
  // workers of an outer pool, say) take turns.
  std::lock_guard<std::mutex> Turn(RunMu);
  {
    std::lock_guard<std::mutex> Lock(M);
    Fn = &RangeFn;
    JobN = N;
    JobChunk = Chunk ? Chunk : 1;
    Next.store(0, std::memory_order_relaxed);
    Active.store(static_cast<unsigned>(Aux.size()),
                 std::memory_order_relaxed);
    ++Generation;
  }
  WakeCV.notify_all();
  {
    ActivePoolScope Scope(this);
    drain(); // the caller is a worker too
  }
  std::unique_lock<std::mutex> Lock(M);
  DoneCV.wait(Lock, [&] { return Active.load() == 0; });
  Fn = nullptr;
}

Device::Device(const DeviceProfile &Profile) : Profile(Profile) {
  unsigned HW = std::max(1u, std::thread::hardware_concurrency());
  Workers = Profile.HostThreads ? Profile.HostThreads : HW;
}

ThreadPool &Device::pool() const {
  if (!Pool)
    Pool = std::make_unique<ThreadPool>(Workers);
  return *Pool;
}

std::string Device::validate(const LaunchConfig &Cfg) const {
  // Chaos hook: the stand-in for a real device refusing a launch
  // (exhausted contexts, a lost device). SimGpuBackend validates before
  // every launch, so an injected refusal surfaces as a graceful dispatch
  // error instead of the launch-path abort.
  if (support::faultShouldFail("sim.launch"))
    return "fault injected at sim.launch";
  if (Cfg.BlockDim == 0)
    return "block dimension must be positive";
  if (Cfg.BlockDim > Profile.MaxThreadsPerBlock)
    return formatv("block dimension %u exceeds the device limit %u",
                   Cfg.BlockDim, Profile.MaxThreadsPerBlock);
  if (Cfg.GridX == 0 || Cfg.GridY == 0)
    return "grid dimensions must be positive";
  return "";
}

void Device::launch(
    const LaunchConfig &Cfg,
    const std::function<void(const LaunchCoord &, SharedMem &)> &Kernel)
    const {
  std::string Err = validate(Cfg);
  if (!Err.empty())
    fatalError("sim launch: " + Err);

  // One launch at a time (the single-stream model); a nested launch from
  // inside a kernel skips the lock so ThreadPool::run can report the
  // reentrancy violation instead of deadlocking here.
  std::unique_lock<std::mutex> Stream(LaunchMu, std::defer_lock);
  if (ActiveLaunchDevice != this)
    Stream.lock();
  LaunchScope Scope(this);

  const std::uint64_t NumBlocks =
      static_cast<std::uint64_t>(Cfg.GridX) * Cfg.GridY;
  const size_t ShmBytes = static_cast<size_t>(Profile.SharedMemKiB) * 1024;

  auto RunBlocks = [&](std::uint64_t Begin, std::uint64_t End) {
    // One arena per chunk: blocks within a chunk run on one worker, and
    // the arena resets between blocks (per-block isolation).
    SharedMem Shm(ShmBytes);
    for (std::uint64_t B = Begin; B < End; ++B) {
      LaunchCoord C;
      C.BlockX = static_cast<std::uint32_t>(B % Cfg.GridX);
      C.BlockY = static_cast<std::uint32_t>(B / Cfg.GridX);
      Shm.reset();
      for (std::uint32_t T = 0; T < Cfg.BlockDim; ++T) {
        C.ThreadX = T;
        Kernel(C, Shm);
      }
    }
  };

  if (Workers <= 1 || NumBlocks <= 1) {
    RunBlocks(0, NumBlocks);
    return;
  }
  std::uint64_t Chunk =
      std::max<std::uint64_t>(1, NumBlocks / (Workers * 4));
  pool().run(NumBlocks, Chunk, RunBlocks);
}

void Device::launchBlocks(
    const LaunchConfig &Cfg,
    const std::function<void(std::uint32_t, std::uint32_t)> &BlockFn) const {
  std::string Err = validate(Cfg);
  if (!Err.empty())
    fatalError("sim launch: " + Err);

  std::unique_lock<std::mutex> Stream(LaunchMu, std::defer_lock);
  if (ActiveLaunchDevice != this)
    Stream.lock();
  LaunchScope Scope(this);

  const std::uint64_t NumBlocks =
      static_cast<std::uint64_t>(Cfg.GridX) * Cfg.GridY;
  auto RunBlocks = [&](std::uint64_t Begin, std::uint64_t End) {
    for (std::uint64_t B = Begin; B < End; ++B)
      BlockFn(static_cast<std::uint32_t>(B % Cfg.GridX),
              static_cast<std::uint32_t>(B / Cfg.GridX));
  };
  if (Workers <= 1 || NumBlocks <= 1) {
    RunBlocks(0, NumBlocks);
    return;
  }
  std::uint64_t Chunk =
      std::max<std::uint64_t>(1, NumBlocks / (Workers * 4));
  pool().run(NumBlocks, Chunk, RunBlocks);
}

void Device::parallelFor(std::uint64_t N,
                         const std::function<void(std::uint64_t)> &Fn) const {
  if (N == 0)
    return;
  std::unique_lock<std::mutex> Stream(LaunchMu, std::defer_lock);
  if (ActiveLaunchDevice != this)
    Stream.lock();
  LaunchScope Scope(this);
  if (Workers <= 1 || N < 2) {
    for (std::uint64_t I = 0; I < N; ++I)
      Fn(I);
    return;
  }
  const std::uint64_t Chunk = std::max<std::uint64_t>(1, N / (Workers * 8));
  pool().run(N, Chunk, [&](std::uint64_t Begin, std::uint64_t End) {
    for (std::uint64_t I = Begin; I < End; ++I)
      Fn(I);
  });
}

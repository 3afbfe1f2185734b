//===- jit/HostJit.h - Compile-and-dlopen runtime for emitted C -*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The host-JIT runtime: turns a string of emitted C (the CEmitter's
/// output, or any translation unit with `extern "C"` entry points) into a
/// callable function by shelling out to a host compiler, dlopen-ing the
/// resulting shared object, and resolving symbols.
///
/// This used to live as copy-pasted helpers inside the codegen tests; it is
/// a subsystem in its own right so that tests, examples, and the dispatch
/// layers (batched kernels, autotuning, the service/ front door) share one
/// implementation with temp-file management, compiler-error capture, and a
/// content-hash .so cache: loading byte-identical source with identical
/// compiler and flags reuses the previously built shared object instead of
/// re-invoking the compiler.
///
/// Thread safety: load(), stats(), error(), and setCacheCap() may be
/// called from any number of threads on one instance. Concurrent loads of
/// the same cold source are single-flighted — one thread runs the host
/// compiler, the rest block and share the resulting module. error() is a
/// per-calling-thread slot, so one thread's failure diagnostic is never
/// clobbered by another's.
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_JIT_HOSTJIT_H
#define MOMA_JIT_HOSTJIT_H

#include "support/ThreadError.h"

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace moma {
namespace jit {

/// Options controlling how HostJit builds shared objects.
struct HostJitOptions {
  /// Host compiler driver. Empty selects, in order: the $MOMA_HOST_CXX
  /// environment variable, then the compiler the build was configured with
  /// (the MOMA_HOST_CXX macro CMake defines), then "cc".
  std::string Compiler;

  /// Extra driver flags (part of the cache key). "-shared -fPIC" and the
  /// output/input paths are appended automatically.
  std::string Flags = "-O1";

  /// Directory holding the cached sources, shared objects, and compiler
  /// logs. Empty selects $MOMA_JIT_CACHE_DIR, then
  /// <system-tmp>/moma-jit-cache. Created on demand.
  std::string CacheDir;

  /// When true, a .so already present in CacheDir under the matching
  /// content hash is dlopen-ed directly without invoking the compiler.
  bool UseDiskCache = true;
};

/// A compiled and loaded translation unit. Closes the dlopen handle on
/// destruction, so keep the shared_ptr alive for as long as code obtained
/// from symbol() may be called.
class JitModule {
public:
  ~JitModule();
  JitModule(const JitModule &) = delete;
  JitModule &operator=(const JitModule &) = delete;

  /// Resolves \p Name in this module; null when absent. \p DlError (when
  /// non-null) receives the dlerror() diagnostic for a failed lookup and
  /// is cleared on success — so a missing symbol (null return, non-empty
  /// *DlError) is distinguishable from a symbol whose value is genuinely
  /// null (null return, empty *DlError).
  void *symbol(const std::string &Name, std::string *DlError = nullptr) const;

  /// Typed convenience wrapper over symbol().
  template <typename Fn>
  Fn symbolAs(const std::string &Name, std::string *DlError = nullptr) const {
    return reinterpret_cast<Fn>(symbol(Name, DlError));
  }

  /// Paths of the shared object and the source it was built from (both
  /// live in the owning HostJit's cache directory).
  const std::string &soPath() const { return SoPath; }
  const std::string &sourcePath() const { return SrcPath; }

  /// True when this module reused a shared object found on disk instead of
  /// running the host compiler.
  bool fromDiskCache() const { return FromDiskCache; }

private:
  friend class HostJit;
  JitModule(void *Handle, std::string SoPath, std::string SrcPath,
            bool FromDiskCache)
      : Handle(Handle), SoPath(std::move(SoPath)), SrcPath(std::move(SrcPath)),
        FromDiskCache(FromDiskCache) {}

  void *Handle = nullptr;
  std::string SoPath;
  std::string SrcPath;
  bool FromDiskCache = false;
};

/// Compiles source strings into loaded modules, deduplicating within this
/// instance (modules stay loaded and are returned again for identical
/// source), across threads (concurrent cold loads single-flight onto one
/// compiler invocation), and across processes (content-addressed .so files
/// in CacheDir). Thread-safe: share one instance freely.
class HostJit {
public:
  explicit HostJit(HostJitOptions Opts = HostJitOptions());

  /// Compiles \p Source into a shared object and loads it. Returns null on
  /// failure, in which case error() carries the captured host-compiler
  /// diagnostics (or the dlopen message). Concurrent calls with the same
  /// cold source block on one shared compile.
  ///
  /// \p ExtraFlags are per-compile driver flags appended after the
  /// instance-wide Flags (e.g. "-O3 -march=native" for a vector plan).
  /// They are part of both the on-disk content hash and the in-memory
  /// module key, so an artifact built with one flag set is never served
  /// to a load() asking for another.
  std::shared_ptr<JitModule> load(const std::string &Source,
                                  const std::string &ExtraFlags = "");

  /// Diagnostics from the calling thread's most recent failed load();
  /// empty after success.
  const std::string &error() const { return Err.get(); }

  /// Cache behavior counters, exposed for tests and tooling.
  struct Stats {
    unsigned Compiles = 0;   ///< host compiler actually invoked
    unsigned DiskHits = 0;   ///< .so reused from the cache directory
    unsigned MemoryHits = 0; ///< module already loaded (or in flight) here
    std::uint64_t Evictions = 0; ///< loaded modules dropped by the LRU cap
  };
  Stats stats() const;

  /// Caps the loaded-module map: beyond \p Max entries the
  /// least-recently-used module is dropped from the map (callers holding
  /// the shared_ptr keep their module alive and callable; the cache just
  /// forgets it). At least one entry is always kept. Matches the
  /// Dispatcher's setCacheCaps pattern so a server handling an unbounded
  /// stream of distinct kernels stays at steady memory.
  void setCacheCap(size_t Max);
  size_t cacheCap() const;
  /// Number of modules currently retained by the in-memory cache.
  size_t cacheSize() const;

  const std::string &compiler() const { return Opts.Compiler; }

private:
  /// One in-memory cache slot with its LRU stamp.
  struct Entry {
    std::shared_ptr<JitModule> Module;
    std::uint64_t LastUse = 0;
  };
  /// One in-progress cold load: the leader compiles, followers wait on CV
  /// and share Module/Error.
  struct Flight {
    std::mutex M;
    std::condition_variable CV;
    bool Done = false;
    std::shared_ptr<JitModule> Module;
    std::string Error;
  };

  bool compile(const std::string &Source, const std::string &ExtraFlags,
               const std::string &SrcPath, const std::string &SoPath,
               const std::string &LogPath, std::string &Error);
  /// LRU-evicts Loaded down to CacheCap; requires Mu held.
  void evictLocked();
  /// The compile + dlopen slow path; no locks held, counters bumped
  /// internally under Mu.
  std::shared_ptr<JitModule> loadUncached(const std::string &Source,
                                          const std::string &ExtraFlags,
                                          std::string &Error);

  HostJitOptions Opts;
  mutable std::mutex Mu; ///< guards S, Loaded, InFlight, CacheCap, UseTick
  Stats S;
  support::ThreadError Err;
  /// Keyed by extra flags + '\0' + full source text: collisions in the
  /// on-disk content hash can never alias two kernels within an instance,
  /// and two flag variants of one source are distinct modules.
  std::unordered_map<std::string, Entry> Loaded;
  std::unordered_map<std::string, std::shared_ptr<Flight>> InFlight;
  size_t CacheCap = 256;
  std::uint64_t UseTick = 0; ///< LRU clock
};

} // namespace jit
} // namespace moma

#endif // MOMA_JIT_HOSTJIT_H

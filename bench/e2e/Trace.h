//===- bench/e2e/Trace.h - in-memory span recorder --------------*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its calls into each layer's
/// public functions: name, start, end, parent span and request id. They are
/// kept in memory and written once at exit as JSON lines, together with a
/// per-span-name self-time table (a span's duration minus the part of it
/// its children cover). Nothing inside the library is instrumented; a null
/// Trace pointer turns every span into a no-op, which is how the untraced
/// runs measure the end-to-end metrics.
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_BENCH_E2E_TRACE_H
#define MOMA_BENCH_E2E_TRACE_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace moma {
namespace e2e {

struct Span {
  const char *Name; ///< static string: "<layer>.<operation>"
  double Start, End;
  std::uint32_t Id, Parent; ///< Parent 0 = root
  std::uint64_t Req;        ///< request id, 0 when not request-scoped
};

class Trace {
public:
  /// Records a finished span and returns its id (for children recorded
  /// later). Thread-safe.
  std::uint32_t record(const char *Name, double Start, double End,
                       std::uint32_t Parent = 0, std::uint64_t Req = 0);
  /// Reserves an id for a span whose children finish before it does.
  std::uint32_t reserve();
  /// Records a span under an id from reserve().
  void recordAs(std::uint32_t Id, const char *Name, double Start, double End,
                std::uint32_t Parent = 0, std::uint64_t Req = 0);

  /// Writes one JSON object per span to \p Path. False on I/O failure.
  bool writeJsonl(const std::string &Path) const;
  /// The per-name count / total / self-time table, sorted by self time.
  std::string selfTimeTable() const;

private:
  mutable std::mutex Mu;
  std::vector<Span> Spans;
  std::uint32_t NextId = 1;
};

/// Times a scope as one span (a no-op when \p T is null).
class Scoped {
public:
  Scoped(Trace *T, const char *Name, std::uint32_t Parent = 0,
         std::uint64_t Req = 0);
  ~Scoped();
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;
  std::uint32_t id() const { return Id; }

private:
  Trace *T;
  const char *Name;
  std::uint32_t Id = 0, Parent;
  std::uint64_t Req;
  double Start;
};

} // namespace e2e
} // namespace moma

#endif // MOMA_BENCH_E2E_TRACE_H

//===- bench/e2e/Probes.h - outside-in per-layer probes ---------*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's per-layer measurements. Each one times or counts calls
/// into a layer's public functions from outside the library, on the
/// workload's own plans, moduli and shapes.
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_BENCH_E2E_PROBES_H
#define MOMA_BENCH_E2E_PROBES_H

#include "Workload.h"

namespace moma {
namespace e2e {

/// The host's measured ceilings, the denominators of the kernel
/// *_ceiling_frac metrics.
struct HostCeiling {
  double CopyGbps = 0;  ///< STREAM-style copy, read plus written bytes
  double Mul64Gops = 0; ///< independent 64x64->128 multiplies per ns
  double LlcMiB = 0, ArrayMiB = 0;
};

/// The ceiling probe's own process body: prints one line
/// "llc_mib=.. array_mib=.. copy_gbps=.. mul64_gops=..". Returns the
/// process exit code.
int ceilingProbeMain();

/// Runs ceilingProbeMain() in a child process of the executable \p Self
/// (so its arrays stay out of this process's peak RSS) and parses its
/// line. False on failure.
bool probeCeiling(const char *Self, HostCeiling &H, std::string &Err);

/// Replays the compile path moma-gen takes (kernel IR, rewrite, emit,
/// host JIT) and then a registry build, for every distinct picked plan in
/// fresh cache directories under \p Dir. Fills the rewrite.*, codegen.*,
/// jit.compile_s/compiles and registry.build_s/builds metrics.
void probeCompilePath(const std::vector<Pick> &Picks, const std::string &Dir,
                      Trace *T, std::uint32_t Parent, MetricMap &M);

/// Times the picked variant of each case through its ExecutionBackend
/// directly. Fills kernel.ns_per_elem and the ceiling fractions.
void probeKernels(const StackView &S, const std::vector<KernelCase> &Cases,
                  const HostCeiling &H, Trace *T, std::uint32_t Parent,
                  MetricMap &M);

/// Forward-transform time of the workload's largest NTT (zero when it has
/// none). Fills ntt.fwd_ms and ntt.butterfly_ns.
void probeNtt(const StackView &S, Workload &W, Trace *T,
              std::uint32_t Parent, MetricMap &M);

/// The Dispatcher's small-request path: a warm one-element call, a bind
/// of a new modulus of a built width, and the workload's request sequence
/// replayed serially through one fresh Dispatcher.
void probeDispatcher(const StackView &S, Workload &W, Ledger &L, Trace *T,
                     std::uint32_t Parent, MetricMap &M);

} // namespace e2e
} // namespace moma

#endif // MOMA_BENCH_E2E_PROBES_H

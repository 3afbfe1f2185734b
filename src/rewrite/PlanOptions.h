//===- rewrite/PlanOptions.h - Unified generation-plan knobs ---*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One struct for every knob that changes what code the pipeline generates
/// for a kernel. These knobs existed before as scattered ablation flags
/// (the `bench/bench_ablation_*` binaries each toggled one by hand);
/// promoting them into `PlanOptions` gives the runtime's plan cache and
/// autotuner (src/runtime/) a single canonical description of a lowering
/// variant, and gives `lowerWithPlan` one entry point that drives
/// lower -> pass pipeline -> schedule consistently everywhere (tests,
/// tools, examples, benches, runtime).
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_REWRITE_PLANOPTIONS_H
#define MOMA_REWRITE_PLANOPTIONS_H

#include "mw/MWUInt.h"
#include "rewrite/Lower.h"

#include <cstdint>
#include <string>

namespace moma {
namespace rewrite {

/// Which execution substrate a generated kernel targets. SimGpu wraps the
/// scalar kernel body in a grid-shaped (blockIdx, threadIdx) C function
/// (the paper's §5.1 CUDA thread mapping) launched over the sim::
/// thread-pool substrate; Vector calls the same body from one compiled
/// loop over the batch, with fused transforms holding a fixed block of
/// batch rows in SIMD lanes (codegen/VectorEmitter.h), compiled with
/// per-plan extra flags (-O3 -march=native). Interp skips code generation
/// entirely and executes the scalar kernel through ir::Interp — orders of
/// magnitude slower, but it cannot fail to "compile", which makes it the
/// terminal rung of the runtime's degradation ladder when the host JIT is
/// unavailable (see DESIGN.md "Failure model"). The lowering pipeline
/// ignores this knob — it selects which wrapper the runtime emits around
/// the lowered body and how the dispatcher executes it — but it lives
/// here so one PlanOptions names a complete variant for the plan cache
/// and autotuner.
enum class ExecBackend : std::uint8_t { SimGpu, Vector, Interp };

/// Mnemonic backend name ("simgpu" / "vector" / "interp").
const char *execBackendName(ExecBackend B);

/// Which polynomial ring an NTT-shaped plan serves: the cyclic ring
/// Z_q[x]/(x^n - 1) (the historical shape) or the negacyclic ring
/// Z_q[x]/(x^n + 1) FHE schemes use (BGV/BFV/CKKS). Like FuseDepth, the
/// knob never changes the emitted butterfly source — the ψ/ψ⁻¹ twist
/// tables are launch parameters folded into the fused pipeline's
/// edge-stage loads and stores — but it is part of the plan identity so
/// the dispatcher, tables cache, and autotuner keep the two transform
/// semantics apart.
enum class NttRing : std::uint8_t { Cyclic, Negacyclic };

/// Mnemonic ring name ("cyclic" / "negacyclic").
const char *nttRingName(NttRing R);

/// Every knob that selects a code-generation variant for one kernel.
/// Default-constructed PlanOptions reproduce the paper's default pipeline:
/// Barrett reduction, schoolbook multiply, pruning on, scheduling off.
struct PlanOptions {
  /// The machine word width ω₀ the recursion bottoms out at.
  unsigned TargetWordBits = 64;

  /// Modular-reduction strategy baked into generated mulmod/axpy
  /// kernels. Montgomery changes the kernel signature: the Barrett `mu`
  /// parameter is replaced by `qinv` (-q^-1 mod 2^lambda) and `r2`
  /// (2^(2*lambda) mod q); outputs stay in the plain domain. The
  /// butterfly multiplies by Shoup's method under either value.
  mw::Reduction Red = mw::Reduction::Barrett;

  /// Double-word multiplication rule (§2.2, Fig. 5b).
  mw::MulAlgorithm MulAlg = mw::MulAlgorithm::Schoolbook;

  /// Run the pruning pipeline (rewrite/PassManager.h) to a fixed point
  /// after lowering: the §4 zero-word pruning by interval range analysis,
  /// plus folding, CSE, DCE and dead-port elimination. Off reproduces the
  /// "no pruning" ablation.
  bool Prune = true;

  /// Run the pressure-aware list scheduler (rewrite/Schedule.h) after
  /// simplification.
  bool Schedule = false;

  /// Execution backend the runtime compiles this variant for.
  ExecBackend Backend = ExecBackend::Vector;

  /// Launch geometry for the SimGpu backend: threads per block (the
  /// paper's §5.1 block dimension, at most 1024). Meaningless on the
  /// vector and interp backends; PlanKey canonicalization folds it to 0
  /// there, and to the 256 default when a SimGpu plan leaves it 0.
  unsigned BlockDim = 0;

  /// NTT stage-fusion depth k: one virtual thread performs a 2^k-point
  /// sub-transform in registers, so a transform walks its log2(n) stages
  /// in ceil(log2(n)/k) backend dispatches. Only butterfly plans consume
  /// it (PlanKey canonicalization folds it to 1 everywhere else); the
  /// emitters support k in [1, MaxFuseDepth]. Depth 1 is still the fused
  /// pipeline — the edge-stage bit-reversal gather and inverse n^-1
  /// scaling folds apply at every depth.
  unsigned FuseDepth = 1;

  /// Largest stage-fusion depth the emitters unroll (2^k points held in
  /// registers per virtual thread).
  static constexpr unsigned MaxFuseDepth = 3;

  /// Polynomial ring for NTT-shaped plans. Only butterfly plans consume
  /// it (PlanKey canonicalization folds it to Cyclic everywhere else);
  /// the negacyclic twist rides the fused pipeline's edge-stage folds, so
  /// the knob costs zero extra dispatches and shares the compiled module
  /// with the cyclic plan.
  NttRing Ring = NttRing::Cyclic;

  /// Stable text form used in plan-cache keys and the autotune JSON:
  /// e.g. "w64/barrett/schoolbook/prune/noschedule/vec". Every key names
  /// its backend: Vector plans append "/vec", SimGpu plans
  /// "/simgpu/b<dim>" and Interp plans "/interp". Butterfly plans fused
  /// deeper than one stage then append "/f<depth>", and negacyclic
  /// butterfly plans "/neg".
  std::string str() const;

  /// The LowerOptions slice of this plan.
  LowerOptions lowerOptions() const {
    LowerOptions O;
    O.TargetWordBits = TargetWordBits;
    O.MulAlg = MulAlg;
    return O;
  }

  bool operator==(const PlanOptions &O) const {
    return TargetWordBits == O.TargetWordBits && Red == O.Red &&
           MulAlg == O.MulAlg && Prune == O.Prune &&
           Schedule == O.Schedule && Backend == O.Backend &&
           BlockDim == O.BlockDim && FuseDepth == O.FuseDepth &&
           Ring == O.Ring;
  }
  bool operator!=(const PlanOptions &O) const { return !(*this == O); }
};

/// The full generation pipeline under one set of knobs: lowerToWords,
/// then (if Prune) pruningPipeline() over the lowered kernel, then (if
/// Schedule) scheduleForPressure. This is the one lowering entry point
/// the runtime, tools, and tests share.
LoweredKernel lowerWithPlan(const ir::Kernel &K, const PlanOptions &Opts);

} // namespace rewrite
} // namespace moma

#endif // MOMA_REWRITE_PLANOPTIONS_H

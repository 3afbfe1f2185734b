//===- codegen/VectorEmitter.h - SIMD lane-loop C emission ----*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits the scalar kernel body as batched C for the host CPU, compiled
/// through HostJit with per-plan extra flags (-O3 -march=native where
/// available). Two entry points per translation unit:
///
///  * the *vector* function — batched element-wise execution over the
///    flat batch (BLAS mapping): one compiled loop of scalar calls, the
///    broadcast ports hoisted out of it;
///  * for butterfly kernels additionally the *vfused* function — the
///    fused radix-2^k stage-group walk of the grid emitter's fused ABI
///    with a block of VectorLanes batch rows in SIMD lanes. Every row
///    runs the identical twiddle schedule, so the batch axis is the
///    natural SIMD axis for batched transforms: lane j of word w lives at
///    R[reg][w][j] in the structure-of-arrays register block, and every
///    multi-word carry chain stays strictly in-lane (the layout trick
///    from "GPU Implementations for Midsize Integer Addition and
///    Multiplication" and Zhang's CPU follow-up, see PAPERS.md).
///
/// The lane count is fixed, not a launch parameter: element-wise batches
/// run fastest as the plain loop, and on transforms a block of 8 rows
/// stays within a few percent of the best swept width (DESIGN.md,
/// "Execution backends"). The shared scalar function is `static inline`
/// up to VectorInlineMaxStmts lowered statements and `noinline` above:
/// GCC keeps the large bodies out of line anyway, and inlining one into
/// the element loop's single call site makes the loop slower and the
/// module slower to compile.
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_CODEGEN_VECTOREMITTER_H
#define MOMA_CODEGEN_VECTOREMITTER_H

#include "codegen/CEmitter.h"
#include "rewrite/Lower.h"

#include <string>

namespace moma {
namespace codegen {

/// Vector emission options.
struct VectorEmitOptions {
  /// Machine word width; must equal the lowering target (the runtime's
  /// flat-batch ABI is 64-bit words).
  unsigned WordBits = 64;
  /// Optional file-level banner comment.
  std::string Banner;
};

/// Batch rows the fused transform entry holds in SIMD lanes per block.
constexpr unsigned VectorLanes = 8;

/// Largest lowered body (in statements) the scalar function is inlined
/// into its callers at; larger bodies are emitted `noinline`.
constexpr unsigned VectorInlineMaxStmts = 64;

/// Emits \p L as a vectorized C translation unit. \p L must be fully
/// lowered to Opts.WordBits (aborts otherwise). Ports from "q" onward are
/// broadcast; earlier inputs and all outputs are per-element arrays. The
/// result's Symbol names the `_vec` entry; for kernels with the butterfly
/// port shape, FusedSymbol names the `_vfused` entry.
///
/// Entry ABIs (C linkage):
///
///   void vec(u64 n, u64 *const *outs, const u64 *const *ins,
///            const u64 *instride, const u64 *const *aux);
///
/// runs the scalar function over the n-element flat batch: output k at
/// outs[k] + e*storedWords, data input j at ins[j] + e*instride[j]
/// (stride 0 broadcasts one element, the axpy scalar). Outputs may alias
/// inputs — the scalar function takes every input word by value before
/// its first store.
///
///   void vfused(u64 batch, u64 n, u64 len0, u64 depth,
///               u64 *Dst, const u64 *Src, const u64 *Tw, const u32 *rev,
///               const u64 *twist, const u64 *scale, u64 sstride,
///               const u64 *const *aux);
///
/// the fused stage-group contract of codegen/GridEmitter.h (same
/// geometry, same butterfly order per row — bit-identical by
/// construction), batch rows in blocks of VectorLanes lanes instead of
/// grid y. Tw is the full stage-major twiddle table; rev/twist/scale are
/// the edge-stage folds; none of the tables may alias Src/Dst. Tw, twist
/// and scale are stepped by the entry size — w's stored words plus wq's,
/// since every [w | wq] entry feeds both ports — and their values are
/// lane-invariant broadcasts.
EmittedKernel emitVectorC(const rewrite::LoweredKernel &L,
                          const VectorEmitOptions &Opts = {});

} // namespace codegen
} // namespace moma

#endif // MOMA_CODEGEN_VECTOREMITTER_H

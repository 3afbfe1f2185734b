//===- codegen/VectorEmitter.h - SIMD lane-loop C emission ----*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits the scalar kernel body as auto-vectorizable C for the host CPU's
/// SIMD units: a structure-of-arrays *lane loop* over the batch axis. Each
/// batch element occupies one SIMD lane — lane j of word w lives at
/// data[w*lanes + j] in the local staging arrays — so every multi-word
/// carry chain stays strictly in-lane (the layout trick from "GPU
/// Implementations for Midsize Integer Addition and Multiplication" and
/// Zhang's CPU follow-up, see PAPERS.md). The emitted source is
/// pragma-free: the lane loops are fixed-trip-count (per-width chunk
/// helpers for 2/4/8/16 lanes plus a scalar tail) or bounded-trip loops
/// over restrict-equivalent local arrays, exactly the shape host
/// compilers vectorize at -O3. The runtime compiles it through HostJit
/// with per-plan extra flags (-O3 -march=native where available).
///
/// Two entry points per translation unit (the lane count vw is a launch
/// parameter like the grid backend's blockDim, so every VectorWidth key
/// of one kernel shares one compiled module):
///
///  * the *vector* function — batched element-wise execution over the
///    flat batch (BLAS mapping), lane = batch element;
///  * for butterfly kernels additionally the *vfused* function — the
///    fused radix-2^k stage-group walk of the grid emitter's fused ABI,
///    lane = batch row (every row runs the identical twiddle schedule,
///    the natural SIMD axis for batched transforms), with the same
///    rev/twist/scale edge-stage folds as launch parameters.
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

/// Largest lane count the emitted staging arrays hold; wider launch
/// requests are clamped by the entry points themselves.
constexpr unsigned VectorMaxLanes = 16;

/// Emits \p L as a vectorized C translation unit. \p L must be fully
/// lowered to Opts.WordBits (aborts otherwise). Ports from "q" onward are
/// broadcast; earlier inputs and all outputs are per-element arrays. The
/// result's Symbol names the `_vec` entry; for kernels with the butterfly
/// port shape, FusedSymbol names the `_vfused` entry.
///
/// Entry ABIs (C linkage; vw is the lane count, clamped to
/// [1, VectorMaxLanes]):
///
///   void vec(u64 vw, u64 n, u64 *const *outs, const u64 *const *ins,
///            const u64 *instride, const u64 *const *aux);
///
/// processes the n-element flat batch in vw-lane chunks (fixed-trip
/// chunk helpers exist for 2, 4, 8 and 16 lanes; other widths and the
/// final n mod vw elements run through the scalar tail): output k at
/// outs[k] + e*storedWords, data input j at ins[j] + e*instride[j]
/// (stride 0 broadcasts one element, the axpy scalar). Outputs may alias
/// inputs — each chunk gathers every input lane into locals before its
/// first store.
///
///   void vfused(u64 vw, u64 batch, u64 n, u64 len0, u64 depth,
///               u64 *Dst, const u64 *Src, const u64 *Tw, const u32 *rev,
///               const u64 *twist, const u64 *scale, u64 sstride,
///               const u64 *const *aux);
///
/// the fused stage-group contract of codegen/GridEmitter.h (same
/// geometry, same butterfly order per row — bit-identical by
/// construction), batch rows in lanes instead of grid y. Tw is the full
/// stage-major twiddle table; rev/twist/scale are the edge-stage folds;
/// none of the tables may alias Src/Dst.
EmittedKernel emitVectorC(const rewrite::LoweredKernel &L,
                          const VectorEmitOptions &Opts = {});

} // namespace codegen
} // namespace moma

#endif // MOMA_CODEGEN_VECTOREMITTER_H

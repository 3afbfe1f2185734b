//===- codegen/GridEmitter.h - Grid-shaped C emission ---------*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits the paper's §5.1 CUDA thread mapping as host-JIT-compilable C:
/// the same scalar arithmetic body the C and CUDA emitters share, wrapped
/// in functions taking (blockIdx, threadIdx) coordinates so the sim::
/// substrate can launch them grid/block-shaped on a CPU thread pool. This
/// is what the runtime's sim-GPU ExecutionBackend compiles and runs —
/// structurally the CudaEmitter's __global__ kernels, minus the GPU.
///
/// Two entry points per translation unit:
///
///  * the *grid* function — one virtual thread per vector element
///    (BLAS mapping), grid dimension y indexing the batch row;
///  * for butterfly kernels additionally the *fused* function — one
///    virtual thread per 2^depth-point sub-transform of a radix-2^depth
///    NTT stage group, grid dimension y indexing the batch. Depth 1 is
///    the paper's one-launch-per-stage cadence.
///
/// Unlike CUDA, one call processes one whole block (the sim substrate
/// serializes a block's threads on one worker anyway), so the per-call
/// JIT-pointer overhead amortizes over blockDim elements and the
/// broadcast ports (q, mu / qinv, r2) are loaded once per block instead
/// of once per element.
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_CODEGEN_GRIDEMITTER_H
#define MOMA_CODEGEN_GRIDEMITTER_H

#include "codegen/CEmitter.h"
#include "rewrite/Lower.h"

#include <string>

namespace moma {
namespace codegen {

/// Grid emission options.
struct GridEmitOptions {
  /// Machine word width; must equal the lowering target (the runtime's
  /// flat-batch ABI is 64-bit words).
  unsigned WordBits = 64;
  /// Optional file-level banner comment.
  std::string Banner;
};

/// Emits \p L as a grid-shaped C translation unit. \p L must be fully
/// lowered to Opts.WordBits (aborts otherwise). Ports from "q" onward are
/// broadcast; earlier inputs and all outputs are per-element arrays. The
/// result's Symbol names the `_grid` entry; for kernels with the
/// butterfly port shape, FusedSymbol names the `_fused` entry.
///
/// Entry ABIs (C linkage):
///
///   void grid(u64 blockIdxX, u64 blockIdxY, u64 blockDim, u64 n,
///             u64 *const *outs, const u64 *const *ins,
///             const u64 *instride, const u64 *const *aux);
///
/// processes elements i in [blockIdxX*blockDim, min(n, +blockDim)) of
/// batch row blockIdxY: element index e = blockIdxY*n + i, output k at
/// outs[k] + e*storedWords, data input j at ins[j] + e*instride[j]
/// (stride 0 broadcasts one element, the axpy scalar).
///
///   void fused(u64 blockIdxX, u64 blockIdxY, u64 blockDim,
///              u64 n, u64 len0, u64 depth, u64 *Dst, const u64 *Src,
///              const u64 *Tw, const u32 *rev, const u64 *twist,
///              const u64 *scale, u64 sstride, const u64 *const *aux);
///
/// runs `depth` consecutive butterfly stages (half-distances len0,
/// 2*len0, ..., 2^(depth-1)*len0) as one dispatch: each of the n/2^depth
/// virtual threads per batch row owns the 2^depth-point sub-transform
/// over elements {g*(len0<<depth) + r + j*len0 : j}, held in registers
/// between sub-stages. Tw is the *full* stage-major twiddle table (the
/// stage of half-distance L starts at word offset (L-1)*elemWords).
/// `depth` is a launch parameter bounded by
/// rewrite::PlanOptions::MaxFuseDepth — like blockDim, it does not shape
/// the source, so every fusion depth of one kernel shares one compiled
/// module. The edge-stage folds are runtime arguments too:
///
///  * rev non-null (first stage group only, len0 == 1): loads gather
///    Src[rev[e]] — the bit-reversal permutation rides the first loads
///    instead of a host-side swap pass;
///  * twist non-null (first forward group of a negacyclic transform):
///    each loaded element is multiplied by twist[s], s its gathered
///    source index (so twist[i] = ψ^i pairs with coefficient a_i),
///    through the shared scalar butterfly body with x = 0;
///  * scale non-null (last inverse stage group): every output is
///    multiplied by scale[(e) * sstride] before the store through the
///    same zero-x butterfly. sstride 0 broadcasts one factor (the cyclic
///    n^-1); sstride = elemWords indexes a per-output-element table (the
///    negacyclic untwist ψ^{-e} · n^-1). Factors are expected in the
///    kernel's twiddle domain, i.e. Montgomery-form for Montgomery
///    plans;
///  * Src != Dst runs the group out-of-place (the dispatcher ping-pongs
///    edge groups through a scratch buffer so no cross-thread in-place
///    hazard exists when rev permutes the read set).
///
/// Threads load every input element into registers before their first
/// store, so Src == Dst is safe whenever each thread's read and write
/// sets coincide (any group without rev, or a single-group transform
/// where one thread owns the whole row).
EmittedKernel emitGridC(const rewrite::LoweredKernel &L,
                        const GridEmitOptions &Opts = {});

} // namespace codegen
} // namespace moma

#endif // MOMA_CODEGEN_GRIDEMITTER_H

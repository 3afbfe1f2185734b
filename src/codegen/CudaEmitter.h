//===- codegen/CudaEmitter.h - CUDA source emission -----------*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits complete CUDA translation units from lowered kernels, with the
/// paper's parallelization scheme (§5.1):
///
///  * BLAS element kernels: one CUDA thread per vector element, grid
///    dimension y indexing the batch;
///  * NTT: one thread per butterfly per stage (n/2 butterflies), grid
///    dimension y indexing the batch.
///
/// The scalar arithmetic body is shared with the C emitter, so everything
/// the dlopen-based integration tests validate about the C output also
/// covers the CUDA device code. This host has no GPU (see DESIGN.md §4);
/// the CUDA text is emitted for inspection and structural tests, and the
/// sim:: substrate executes the same kernels on a thread pool.
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_CODEGEN_CUDAEMITTER_H
#define MOMA_CODEGEN_CUDAEMITTER_H

#include "rewrite/Lower.h"

#include <string>

namespace moma {
namespace codegen {

/// CUDA emission options.
struct CudaEmitOptions {
  unsigned WordBits = 64;
  /// Threads per block for the generated launch helper (paper: up to 1024).
  unsigned BlockDim = 256;
  std::string Banner;
};

/// Emits a .cu file for an element-wise kernel (vadd/vsub/vmul/axpy
/// element bodies). Ports named "q" and "mu" become broadcast scalars;
/// every other input and all outputs become per-element word arrays.
std::string emitCudaElementwise(const rewrite::LoweredKernel &L,
                                const CudaEmitOptions &Opts = {});

/// Emits a .cu file implementing one NTT stage from a lowered Shoup
/// butterfly kernel (ports x, y, w, wq, q -> xo, yo; the butterfly of
/// kernels/ScalarKernels.h). The in-place data layout is one contiguous
/// array of n elements, each storedWords() words; the stage's twiddle
/// table holds [w | wq] entries, the runtime's NttTables layout.
std::string emitCudaNttStage(const rewrite::LoweredKernel &L,
                             const CudaEmitOptions &Opts = {});

} // namespace codegen
} // namespace moma

#endif // MOMA_CODEGEN_CUDAEMITTER_H

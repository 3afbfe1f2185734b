//===- kernels/NttKernels.h - NTT kernel generation -----------*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The NTT side of the generation pipeline (§5.3): lowers the butterfly
/// through the rewrite system and emits the per-stage CUDA kernel the
/// paper benchmarks (one thread per butterfly, batch in grid.y).
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_KERNELS_NTTKERNELS_H
#define MOMA_KERNELS_NTTKERNELS_H

#include "codegen/CudaEmitter.h"
#include "kernels/ScalarKernels.h"
#include "rewrite/PlanOptions.h"

#include <string>

namespace moma {
namespace kernels {

/// Builds the butterfly (one kernel for every reduction knob) and runs it
/// through rewrite::lowerWithPlan.
rewrite::LoweredKernel generateButterflyKernel(const ScalarKernelSpec &Spec,
                                               const rewrite::PlanOptions &Plan);

/// Convenience overload with the historical knob set (always prunes,
/// never schedules).
rewrite::LoweredKernel
generateButterflyKernel(const ScalarKernelSpec &Spec,
                        mw::MulAlgorithm Alg = mw::MulAlgorithm::Schoolbook,
                        unsigned TargetWordBits = 64);

/// Emits the complete NTT stage CUDA translation unit.
std::string
emitNttCuda(const ScalarKernelSpec &Spec,
            mw::MulAlgorithm Alg = mw::MulAlgorithm::Schoolbook);

} // namespace kernels
} // namespace moma

#endif // MOMA_KERNELS_NTTKERNELS_H

//===- kernels/NttKernels.cpp - NTT kernel generation -------------------------===//

#include "kernels/NttKernels.h"

#include "support/Format.h"

using namespace moma;
using namespace moma::kernels;

rewrite::LoweredKernel
moma::kernels::generateButterflyKernel(const ScalarKernelSpec &Spec,
                                       const rewrite::PlanOptions &Plan) {
  ir::Kernel K = buildButterflyKernel(Spec);
  K.Name = formatv("ntt_butterfly_%u", Spec.ContainerBits);
  return rewrite::lowerWithPlan(K, Plan);
}

rewrite::LoweredKernel
moma::kernels::generateButterflyKernel(const ScalarKernelSpec &Spec,
                                       mw::MulAlgorithm Alg,
                                       unsigned TargetWordBits) {
  rewrite::PlanOptions Plan;
  Plan.TargetWordBits = TargetWordBits;
  Plan.MulAlg = Alg;
  return generateButterflyKernel(Spec, Plan);
}

std::string moma::kernels::emitNttCuda(const ScalarKernelSpec &Spec,
                                       mw::MulAlgorithm Alg) {
  rewrite::LoweredKernel L = generateButterflyKernel(Spec, Alg);
  codegen::CudaEmitOptions Opts;
  Opts.Banner =
      formatv("NTT butterfly, %u-bit elements, %u-bit modulus, %s multiply",
              Spec.ContainerBits, Spec.modBits(),
              Alg == mw::MulAlgorithm::Karatsuba ? "Karatsuba" : "schoolbook");
  return codegen::emitCudaNttStage(L, Opts);
}

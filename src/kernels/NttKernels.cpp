//===- kernels/NttKernels.cpp - NTT kernel generation -------------------------===//

#include "kernels/NttKernels.h"

#include "support/Format.h"

using namespace moma;
using namespace moma::kernels;

rewrite::LoweredKernel
moma::kernels::generateButterflyKernel(const ScalarKernelSpec &Spec,
                                       const rewrite::PlanOptions &Plan) {
  ScalarKernelSpec S = Spec;
  S.Red = Plan.Red;
  ir::Kernel K = buildButterflyKernel(S);
  K.Name = formatv("ntt_butterfly_%u%s", Spec.ContainerBits,
                   Plan.Red == mw::Reduction::Montgomery ? "_mont" : "");
  return rewrite::lowerWithPlan(K, Plan);
}

rewrite::LoweredKernel
moma::kernels::generateButterflyKernel(const ScalarKernelSpec &Spec,
                                       mw::MulAlgorithm Alg,
                                       unsigned TargetWordBits) {
  rewrite::PlanOptions Plan;
  Plan.TargetWordBits = TargetWordBits;
  Plan.MulAlg = Alg;
  Plan.Red = Spec.Red;
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

//===- kernels/BlasKernels.cpp - BLAS kernel builders ------------------------===//

#include "kernels/BlasKernels.h"

#include "support/Error.h"
#include "support/Format.h"

using namespace moma;
using namespace moma::ir;
using namespace moma::kernels;

const char *moma::kernels::blasOpName(BlasOp Op) {
  switch (Op) {
  case BlasOp::VAdd:
    return "vadd";
  case BlasOp::VSub:
    return "vsub";
  case BlasOp::VMul:
    return "vmul";
  case BlasOp::Axpy:
    return "axpy";
  }
  moma_unreachable("unknown BLAS op");
}

Kernel moma::kernels::buildBlasElementKernel(BlasOp Op,
                                             const ScalarKernelSpec &Spec) {
  Kernel K;
  switch (Op) {
  case BlasOp::VAdd:
    K = buildAddModKernel(Spec);
    break;
  case BlasOp::VSub:
    K = buildSubModKernel(Spec);
    break;
  case BlasOp::VMul:
    K = buildMulModKernel(Spec);
    break;
  case BlasOp::Axpy:
    K = buildAxpyKernel(Spec);
    break;
  }
  bool Mont = Spec.Red == mw::Reduction::Montgomery &&
              (Op == BlasOp::VMul || Op == BlasOp::Axpy);
  K.Name = formatv("%s_%u%s", blasOpName(Op), Spec.ContainerBits,
                   Mont ? "_mont" : "");
  return K;
}

rewrite::LoweredKernel
moma::kernels::generateBlasKernel(BlasOp Op, const ScalarKernelSpec &Spec,
                                  const rewrite::PlanOptions &Plan) {
  // The plan is authoritative for the reduction strategy: it selects which
  // element kernel gets built, not just how it lowers.
  ScalarKernelSpec S = Spec;
  S.Red = Plan.Red;
  Kernel K = buildBlasElementKernel(Op, S);
  return rewrite::lowerWithPlan(K, Plan);
}

rewrite::LoweredKernel
moma::kernels::generateBlasKernel(BlasOp Op, const ScalarKernelSpec &Spec,
                                  mw::MulAlgorithm Alg,
                                  unsigned TargetWordBits) {
  rewrite::PlanOptions Plan;
  Plan.TargetWordBits = TargetWordBits;
  Plan.MulAlg = Alg;
  Plan.Red = Spec.Red;
  return generateBlasKernel(Op, Spec, Plan);
}

std::string moma::kernels::emitBlasCuda(BlasOp Op,
                                        const ScalarKernelSpec &Spec,
                                        mw::MulAlgorithm Alg) {
  rewrite::LoweredKernel L = generateBlasKernel(Op, Spec, Alg);
  codegen::CudaEmitOptions Opts;
  Opts.Banner = formatv("%s over Z_q, %u-bit elements, %u-bit modulus",
                        blasOpName(Op), Spec.ContainerBits, Spec.modBits());
  return codegen::emitCudaElementwise(L, Opts);
}

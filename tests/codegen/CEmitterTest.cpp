//===- tests/codegen/CEmitterTest.cpp - C emission + host-JIT integration -----===//
//
// Closes the code-generation loop: the emitted C is compiled and loaded
// through the shared host-JIT runtime (src/jit/HostJit.h) at test time and
// run against the IR interpreter on random field inputs — the strongest
// statement this repository makes about generated-code correctness.
//
//===----------------------------------------------------------------------===//

#include "../TestUtil.h"

#include "codegen/CEmitter.h"
#include "field/PrimeGen.h"
#include "jit/HostJit.h"
#include "kernels/BlasKernels.h"
#include "kernels/NttKernels.h"
#include "kernels/ScalarKernels.h"
#include "rewrite/PlanOptions.h"

#include <gtest/gtest.h>

#include <string>

using namespace moma;
using namespace moma::codegen;
using namespace moma::ir;
using namespace moma::rewrite;
using namespace moma::testutil;
using kernels::ScalarKernelSpec;
using mw::Bignum;

namespace {

/// One shared JIT across the whole binary: identical kernels emitted by
/// different tests reuse the loaded module, and reruns hit the .so cache.
jit::HostJit &hostJit() {
  static jit::HostJit Jit;
  return Jit;
}

/// Runs the emitted kernel on word arrays decomposed from \p Inputs and
/// compares every output against the interpreter.
void checkEmittedAgainstInterp(const LoweredKernel &L, jit::JitModule &M,
                               const EmittedKernel &EK,
                               const std::vector<Bignum> &Inputs) {
  using U64 = std::uint64_t;
  // The emitted signature is void(f)(out0*, ..., in0*, ...) over u64
  // arrays; marshal through a generic pointer array via libffi-style
  // manual dispatch for the small arities we generate.
  std::vector<std::vector<U64>> OutBufs;
  std::vector<std::vector<U64>> InBufs;
  for (const auto &P : L.Outputs)
    OutBufs.emplace_back(P.storedWords(), 0);
  for (size_t I = 0; I < L.Inputs.size(); ++I) {
    const auto &P = L.Inputs[I];
    std::vector<Bignum> Words = decomposePort(P, Inputs[I]);
    std::vector<U64> Buf;
    for (const Bignum &W : Words)
      Buf.push_back(W.low64());
    InBufs.push_back(std::move(Buf));
  }

  std::vector<void *> Args;
  for (auto &B : OutBufs)
    Args.push_back(B.data());
  for (auto &B : InBufs)
    Args.push_back(B.data());

  void *Sym = M.symbol(EK.Symbol);
  ASSERT_NE(Sym, nullptr) << "symbol '" << EK.Symbol << "' not found in "
                          << M.soPath();

  switch (Args.size()) {
  case 3:
    reinterpret_cast<void (*)(void *, void *, void *)>(Sym)(Args[0], Args[1],
                                                            Args[2]);
    break;
  case 4:
    reinterpret_cast<void (*)(void *, void *, void *, void *)>(Sym)(
        Args[0], Args[1], Args[2], Args[3]);
    break;
  case 5:
    reinterpret_cast<void (*)(void *, void *, void *, void *, void *)>(Sym)(
        Args[0], Args[1], Args[2], Args[3], Args[4]);
    break;
  case 6:
    reinterpret_cast<void (*)(void *, void *, void *, void *, void *,
                              void *)>(Sym)(Args[0], Args[1], Args[2],
                                            Args[3], Args[4], Args[5]);
    break;
  case 7:
    reinterpret_cast<void (*)(void *, void *, void *, void *, void *, void *,
                              void *)>(Sym)(Args[0], Args[1], Args[2],
                                            Args[3], Args[4], Args[5],
                                            Args[6]);
    break;
  default:
    FAIL() << "unsupported arity " << Args.size();
  }

  std::vector<Bignum> Expect = interpretLowered(L, Inputs);
  for (size_t O = 0; O < L.Outputs.size(); ++O) {
    Bignum Got;
    for (U64 W : OutBufs[O])
      Got = (Got << 64) + Bignum(W);
    EXPECT_EQ(Got, Expect[O]) << "output '" << L.Outputs[O].Name << "'";
  }
}

/// Full pipeline check for one kernel: lower, simplify, emit, JIT,
/// compare on \p Iters random field inputs.
void pipelineCheck(Kernel K, unsigned MBits, unsigned NumData, bool HasMu,
                   int Iters = 25) {
  LoweredKernel L = lowerWithPlan(K, PlanOptions());
  EmittedKernel EK = emitC(L);
  std::shared_ptr<jit::JitModule> M = hostJit().load(EK.Source);
  ASSERT_NE(M, nullptr) << hostJit().error() << "\n" << EK.Source;

  Bignum Q = field::nttPrime(MBits, 8, 55);
  Bignum Mu = Bignum::powerOfTwo(2 * MBits + 3) / Q;
  Rng R(0xC0DE + MBits);
  for (int I = 0; I < Iters; ++I) {
    std::vector<Bignum> In;
    for (unsigned D = 0; D < NumData; ++D)
      In.push_back(Bignum::random(R, Q));
    In.push_back(Q);
    if (HasMu)
      In.push_back(Mu);
    checkEmittedAgainstInterp(L, *M, EK, In);
  }
}

} // namespace

TEST(CEmitter, StructureMatchesListings) {
  ScalarKernelSpec Spec{128, 0};
  LoweredKernel L =
      lowerWithPlan(kernels::buildAddModKernel(Spec), PlanOptions());
  EmittedKernel EK = emitC(L);
  // Shape of the paper's listings: u64 locals, extern C symbol, pointer
  // ports, no loops, no divisions.
  EXPECT_NE(EK.Source.find("#include <stdint.h>"), std::string::npos);
  EXPECT_NE(EK.Source.find("extern \"C\""), std::string::npos);
  EXPECT_NE(EK.Source.find("void moma_addmod("), std::string::npos);
  EXPECT_NE(EK.Source.find("uint64_t"), std::string::npos);
  EXPECT_EQ(EK.Source.find(" / "), std::string::npos) << "no division ops";
  EXPECT_EQ(EK.Source.find("for"), std::string::npos) << "straight-line";
  ASSERT_EQ(EK.Ports.size(), 4u); // c, a, b, q
  EXPECT_TRUE(EK.Ports[0].IsOutput);
  EXPECT_EQ(EK.Ports[0].StoredWords, 2u);
}

TEST(CEmitter, MulModUsesInt128LikeListingOne) {
  ScalarKernelSpec Spec{128, 0};
  LoweredKernel L =
      lowerWithPlan(kernels::buildMulModKernel(Spec), PlanOptions());
  EmittedKernel EK = emitC(L);
  EXPECT_NE(EK.Source.find("unsigned __int128"), std::string::npos)
      << "the compiler-supported double word (3.1)";
}

TEST(CEmitter, RejectsUnloweredKernel) {
  ScalarKernelSpec Spec{256, 0};
  Kernel K = kernels::buildAddModKernel(Spec);
  LoweredKernel Fake;
  Fake.K = K;
  EXPECT_DEATH((void)emitC(Fake), "not lowered");
}

// Host-JIT integration: every generated kernel class at two widths.
TEST(CEmitterIntegration, AddMod128) {
  pipelineCheck(kernels::buildAddModKernel({128, 0}), 124, 2, false);
}
TEST(CEmitterIntegration, SubMod128) {
  pipelineCheck(kernels::buildSubModKernel({128, 0}), 124, 2, false);
}
TEST(CEmitterIntegration, MulMod128) {
  pipelineCheck(kernels::buildMulModKernel({128, 0}), 124, 2, true);
}
TEST(CEmitterIntegration, MulMod256) {
  pipelineCheck(kernels::buildMulModKernel({256, 0}), 252, 2, true);
}
TEST(CEmitterIntegration, Butterfly256) {
  pipelineCheck(kernels::buildButterflyKernel({256, 0}), 252, 3, true, 15);
}
TEST(CEmitterIntegration, Axpy128) {
  pipelineCheck(kernels::buildAxpyKernel({128, 0}), 124, 3, true);
}
// The non-power-of-two pruning survives the full pipeline: 380-bit modulus
// in a 512 container emits 6-word ports.
TEST(CEmitterIntegration, MulMod380In512) {
  Kernel K = kernels::buildMulModKernel({512, 380});
  LoweredKernel L = lowerWithPlan(K, PlanOptions());
  EmittedKernel EK = emitC(L);
  EXPECT_NE(EK.Source.find("const uint64_t a[6]"), std::string::npos)
      << EK.Source.substr(0, 400);
  pipelineCheck(std::move(K), 380, 2, true, 15);
}

TEST(CEmitterIntegration, KaratsubaMulMod256) {
  Kernel K = kernels::buildMulModKernel({256, 0});
  PlanOptions Opts;
  Opts.MulAlg = mw::MulAlgorithm::Karatsuba;
  LoweredKernel L = lowerWithPlan(K, Opts);
  EmittedKernel EK = emitC(L);
  std::shared_ptr<jit::JitModule> M = hostJit().load(EK.Source);
  ASSERT_NE(M, nullptr) << hostJit().error();
  Bignum Q = field::nttPrime(252, 8, 55);
  Bignum Mu = Bignum::powerOfTwo(2 * 252 + 3) / Q;
  Rng R(0xCAFE);
  for (int I = 0; I < 20; ++I) {
    std::vector<Bignum> In = {Bignum::random(R, Q), Bignum::random(R, Q), Q,
                              Mu};
    checkEmittedAgainstInterp(L, *M, EK, In);
  }
}

// The shared-cache statement the JIT makes possible: emitting the same
// kernel twice compiles once. A second load in the same HostJit is a
// memory hit; a fresh HostJit sharing the cache directory reuses the .so
// from disk without reaching the compiler.
TEST(CEmitterIntegration, IdenticalKernelReusesJitModule) {
  LoweredKernel L =
      lowerWithPlan(kernels::buildMulModKernel({128, 0}), PlanOptions());
  EmittedKernel EK = emitC(L);

  std::shared_ptr<jit::JitModule> M1 = hostJit().load(EK.Source);
  ASSERT_NE(M1, nullptr) << hostJit().error();
  jit::HostJit::Stats Before = hostJit().stats();
  std::shared_ptr<jit::JitModule> M2 = hostJit().load(EK.Source);
  ASSERT_NE(M2, nullptr) << hostJit().error();
  EXPECT_EQ(M1.get(), M2.get()) << "same source must map to one module";
  EXPECT_EQ(hostJit().stats().MemoryHits, Before.MemoryHits + 1);
  EXPECT_EQ(hostJit().stats().Compiles, Before.Compiles);

  jit::HostJit Fresh;
  std::shared_ptr<jit::JitModule> M3 = Fresh.load(EK.Source);
  ASSERT_NE(M3, nullptr) << Fresh.error();
  EXPECT_TRUE(M3->fromDiskCache());
  EXPECT_EQ(Fresh.stats().DiskHits, 1u);
  EXPECT_EQ(Fresh.stats().Compiles, 0u);
}

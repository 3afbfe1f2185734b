//===- tests/runtime/VectorBackendTest.cpp - SIMD vector backend --------------===//
//
// Coverage for the vector backend: plan-cache keying with the /vec
// suffix, the emitted scalar function's inlining rule, vector vs sim-GPU
// bit-identical execution through the dispatcher (element-wise,
// broadcast-stride, NTT stages and fused groups, whole polynomial
// products) including batches that fill, split and undershoot the fused
// entry's lane block, and tune-cache round-trips of vector decisions.
//
//===----------------------------------------------------------------------===//

#include "../TestUtil.h"

#include "codegen/VectorEmitter.h"
#include "field/PrimeGen.h"
#include "kernels/ScalarKernels.h"
#include "runtime/Autotuner.h"
#include "runtime/Backend.h"
#include "runtime/Dispatcher.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

using namespace moma;
using namespace moma::runtime;
using namespace moma::testutil;
using mw::Bignum;
using rewrite::ExecBackend;

namespace {

KernelRegistry &registry() {
  static KernelRegistry Reg;
  return Reg;
}

Bignum testModulus(unsigned Bits) { return field::nttPrime(Bits, 16); }

rewrite::PlanOptions vectorBase() {
  rewrite::PlanOptions O;
  O.Backend = ExecBackend::Vector;
  return O;
}

rewrite::PlanOptions simGpuBase() {
  rewrite::PlanOptions O;
  O.Backend = ExecBackend::SimGpu;
  return O;
}

std::vector<Bignum> randomElems(Rng &R, const Bignum &Q, size_t N) {
  std::vector<Bignum> Out;
  for (size_t I = 0; I < N; ++I)
    Out.push_back(Bignum::random(R, Q));
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Plan-cache keying
//===----------------------------------------------------------------------===//

TEST(VectorPlanKey, VectorKeysCarryBackendAndLaneWidth) {
  // The lane block is fixed, so a vector key names the backend and no
  // geometry.
  Bignum Q = testModulus(124);
  PlanKey K = PlanKey::forModulus(KernelOp::MulMod, Q, vectorBase());
  EXPECT_EQ(K.str(), "mulmod/c128/m124/w64/barrett/schoolbook/prune/"
                     "noschedule/vec");
  rewrite::PlanOptions F = vectorBase();
  F.FuseDepth = 3;
  std::string FS = PlanKey::forModulus(KernelOp::Butterfly, Q, F).str();
  EXPECT_NE(FS.find("/vec/f3"), std::string::npos) << FS;
}

TEST(VectorPlanKey, VectorFoldsTheBlockDimAndSerialFoldsTheWidth) {
  Bignum Q = testModulus(124);
  rewrite::PlanOptions O = vectorBase();
  O.BlockDim = 512; // meaningless without the sim-GPU backend
  PlanKey A = PlanKey::forModulus(KernelOp::MulMod, Q, O);
  PlanKey B = PlanKey::forModulus(KernelOp::MulMod, Q, vectorBase());
  EXPECT_EQ(A.str(), B.str()) << "block dim folds away on vector plans";
  EXPECT_EQ(A.Opts.BlockDim, 0u);
}

TEST(VectorPlanKey, InterpAndVectorAreDistinctCacheEntries) {
  // The interpreter rung's plan for a problem sits beside the default
  // vector plan, not in its place: it carries the scalar kernel and no
  // module, the vector plan the compiled entries.
  Bignum Q = testModulus(124);
  rewrite::PlanOptions InterpOpts;
  InterpOpts.Backend = ExecBackend::Interp;
  for (KernelOp Op : {KernelOp::AddMod, KernelOp::SubMod, KernelOp::MulMod,
                      KernelOp::Axpy, KernelOp::Butterfly}) {
    auto PI = registry().get(PlanKey::forModulus(Op, Q, InterpOpts));
    ASSERT_NE(PI, nullptr) << registry().error();
    auto PV = registry().get(PlanKey::forModulus(Op, Q, vectorBase()));
    ASSERT_NE(PV, nullptr) << registry().error();
    EXPECT_NE(PI.get(), PV.get());
    EXPECT_NE(PI->InterpKernel, nullptr) << kernelOpName(Op);
    EXPECT_EQ(PI->Module, nullptr) << kernelOpName(Op);
    EXPECT_EQ(PI->Fn, nullptr) << kernelOpName(Op);
    EXPECT_EQ(PV->InterpKernel, nullptr) << kernelOpName(Op);
    EXPECT_NE(PV->Fn, nullptr) << kernelOpName(Op);
    // Only butterfly plans resolve the fused NTT stage-group entry.
    EXPECT_EQ(PV->GroupFn != nullptr, Op == KernelOp::Butterfly)
        << kernelOpName(Op);
  }
}

//===----------------------------------------------------------------------===//
// Emission
//===----------------------------------------------------------------------===//

TEST(VectorEmitter, OutOfLineScalarBodyOnlyAboveTheInlineLimit) {
  // The element loop is the scalar function's only call site, so the
  // emitter decides its inlining: bodies of at most VectorInlineMaxStmts
  // statements inline, larger ones (252-bit mulmod: 174) stay out of line.
  auto Emit = [](unsigned Container, unsigned ModBits) {
    kernels::ScalarKernelSpec Spec{Container, ModBits,
                                   mw::Reduction::Barrett};
    rewrite::LoweredKernel L = rewrite::lowerWithPlan(
        kernels::buildMulModKernel(Spec), rewrite::PlanOptions());
    return std::make_pair(L.K.Body.size(), codegen::emitVectorC(L).Source);
  };
  auto [Small, SmallSrc] = Emit(128, 124);
  auto [Large, LargeSrc] = Emit(256, 252);
  EXPECT_LE(Small, codegen::VectorInlineMaxStmts);
  EXPECT_GT(Large, codegen::VectorInlineMaxStmts);
  EXPECT_EQ(SmallSrc.find("noinline"), std::string::npos);
  EXPECT_NE(SmallSrc.find("static inline void moma_"), std::string::npos);
  EXPECT_NE(LargeSrc.find("static __attribute__((noinline)) void moma_"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Vector vs sim-GPU bit-identical execution
//===----------------------------------------------------------------------===//

TEST(VectorExecution, ElementwiseMatchesSerialBitForBit) {
  Dispatcher DS(registry(), nullptr, simGpuBase());
  Dispatcher DV(registry(), nullptr, vectorBase());
  Bignum Q = testModulus(252);
  SeededRng R(0xEC1);
  unsigned K = Dispatcher::elemWords(Q);
  // The empty batch, one element, an odd size and a large batch.
  const size_t Sizes[] = {0, 1, 17, 4096};
  for (size_t N : Sizes) {
    auto A = randomElems(R, Q, N), B = randomElems(R, Q, N);
    auto AW = packBatch(A, K), BW = packBatch(B, K);
    std::vector<std::uint64_t> CS(N * K), CV(N * K);
    ASSERT_TRUE(DS.vmul(Q, AW.data(), BW.data(), CS.data(), N)) << DS.error();
    ASSERT_TRUE(DV.vmul(Q, AW.data(), BW.data(), CV.data(), N)) << DV.error();
    EXPECT_EQ(DV.lastPlanOptions().Backend, ExecBackend::Vector);
    ASSERT_EQ(CS, CV) << "vmul diverges, n = " << N;
    ASSERT_TRUE(DS.vadd(Q, AW.data(), BW.data(), CS.data(), N)) << DS.error();
    ASSERT_TRUE(DV.vadd(Q, AW.data(), BW.data(), CV.data(), N)) << DV.error();
    ASSERT_EQ(CS, CV) << "vadd diverges, n = " << N;
  }
}

TEST(VectorExecution, AxpyBroadcastStrideAndInPlaceUpdate) {
  // axpy writes y in place with a stride-0 broadcast scalar — the
  // aliasing-heavy shape the element loop must get right.
  Dispatcher DV(registry(), nullptr, vectorBase());
  Bignum Q = testModulus(124);
  SeededRng R(0xEC2);
  const size_t N = 97;
  unsigned K = Dispatcher::elemWords(Q);
  Bignum A = Bignum::random(R, Q);
  auto X = randomElems(R, Q, N), Y = randomElems(R, Q, N);
  auto AW = packWordsMsbFirst(A, K);
  auto XW = packBatch(X, K), YW = packBatch(Y, K);
  ASSERT_TRUE(DV.axpy(Q, AW.data(), XW.data(), YW.data(), N)) << DV.error();
  auto Out = unpackBatch(YW, K);
  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(Out[I], A.mulMod(X[I], Q).addMod(Y[I], Q)) << "element " << I;
}

TEST(VectorExecution, BatchRowsFlattenWithBroadcastOperands) {
  // Rows > 1 flattens into one element loop of N * Rows elements; a
  // stride-0 operand must broadcast to every row exactly as the grid's
  // e = blockIdx.y * n + i indexing does.
  Bignum Q = testModulus(124);
  auto P =
      registry().get(PlanKey::forModulus(KernelOp::MulMod, Q, vectorBase()));
  ASSERT_NE(P, nullptr) << registry().error();
  PlanAux Aux = makePlanAux(*P, Q);
  SeededRng R(0xEC3);
  const size_t N = 45, Rows = 3;
  unsigned K = P->ElemWords;
  auto A = randomElems(R, Q, N * Rows);
  Bignum S = Bignum::random(R, Q);
  auto AW = packBatch(A, K);
  auto SW = packWordsMsbFirst(S, K);
  std::vector<std::uint64_t> CW(N * Rows * K);
  BatchArgs Args;
  Args.Outs = {CW.data()};
  Args.Ins = {AW.data(), SW.data()};
  Args.InStrides = {K, 0};
  Args.Aux = Aux.ptrs();
  std::string Err;
  ASSERT_TRUE(registry().backendFor(P->Key).runBatch(*P, Args, N, Rows, &Err))
      << Err;
  auto C = unpackBatch(CW, K);
  for (size_t I = 0; I < N * Rows; ++I)
    ASSERT_EQ(C[I], A[I].mulMod(S, Q)) << "element " << I;
}

TEST(VectorExecution, NttMatchesSerialBitForBit) {
  Dispatcher DS(registry(), nullptr, simGpuBase());
  Dispatcher DV(registry(), nullptr, vectorBase());
  Bignum Q = testModulus(124);
  const size_t N = 64, Batch = 5; // a partial lane block
  unsigned K = Dispatcher::elemWords(Q);
  SeededRng R(0xEC4);
  auto Polys = randomElems(R, Q, N * Batch);
  auto DataS = packBatch(Polys, K);
  auto DataV = DataS;

  ASSERT_TRUE(DS.nttForward(Q, DataS.data(), N, Batch)) << DS.error();
  ASSERT_TRUE(DV.nttForward(Q, DataV.data(), N, Batch)) << DV.error();
  EXPECT_EQ(DataS, DataV) << "forward NTT diverges across backends";

  ASSERT_TRUE(DS.nttInverse(Q, DataS.data(), N, Batch)) << DS.error();
  ASSERT_TRUE(DV.nttInverse(Q, DataV.data(), N, Batch)) << DV.error();
  EXPECT_EQ(DataS, DataV) << "inverse NTT diverges across backends";
  EXPECT_EQ(unpackBatch(DataV, K), Polys) << "roundtrip identity";
}

TEST(VectorExecution, WidthSweepOnTransformsMatchesSerial) {
  // Sweep batch sizes around the fused entry's lane block (one row, a
  // partial block, exactly one block, one block plus a row, two blocks
  // plus a row) on both rings and demand bit-identity with the sim-GPU
  // stage walk.
  static_assert(codegen::VectorLanes == 8, "batches below assume 8 lanes");
  Dispatcher DS(registry(), nullptr, simGpuBase());
  Dispatcher DV(registry(), nullptr, vectorBase());
  Bignum Q = testModulus(124);
  unsigned K = Dispatcher::elemWords(Q);
  SeededRng R(0xEC5);
  const size_t N = 64;
  const size_t Batches[] = {1, 7, 8, 9, 17};
  for (rewrite::NttRing Ring :
       {rewrite::NttRing::Cyclic, rewrite::NttRing::Negacyclic})
    for (size_t Batch : Batches) {
      auto Polys = randomElems(R, Q, N * Batch);
      auto Want = packBatch(Polys, K);
      auto Data = Want;
      ASSERT_TRUE(DS.nttForward(Q, Want.data(), N, Batch, Ring))
          << DS.error();
      ASSERT_TRUE(DV.nttForward(Q, Data.data(), N, Batch, Ring))
          << DV.error();
      ASSERT_EQ(Data, Want) << "forward, batch = " << Batch << ", ring "
                            << rewrite::nttRingName(Ring);
      ASSERT_TRUE(DS.nttInverse(Q, Want.data(), N, Batch, Ring))
          << DS.error();
      ASSERT_TRUE(DV.nttInverse(Q, Data.data(), N, Batch, Ring))
          << DV.error();
      ASSERT_EQ(Data, Want) << "inverse, batch = " << Batch << ", ring "
                            << rewrite::nttRingName(Ring);
    }
}

TEST(VectorExecution, PolyMulMatchesSerialOnBothRings) {
  Dispatcher DS(registry(), nullptr, simGpuBase());
  Dispatcher DV(registry(), nullptr, vectorBase());
  Bignum Q = testModulus(252);
  const size_t N = 32, Batch = 3;
  unsigned K = Dispatcher::elemWords(Q);
  SeededRng R(0xEC6);
  auto A = randomElems(R, Q, N * Batch), B = randomElems(R, Q, N * Batch);
  auto AW = packBatch(A, K), BW = packBatch(B, K);
  std::vector<std::uint64_t> CS(N * Batch * K), CV(N * Batch * K);
  for (rewrite::NttRing Ring :
       {rewrite::NttRing::Cyclic, rewrite::NttRing::Negacyclic}) {
    ASSERT_TRUE(DS.polyMul(Q, AW.data(), BW.data(), CS.data(), N, Batch, Ring))
        << DS.error();
    ASSERT_TRUE(DV.polyMul(Q, AW.data(), BW.data(), CV.data(), N, Batch, Ring))
        << DV.error();
    EXPECT_EQ(CS, CV) << "polyMul diverges across backends, ring "
                      << rewrite::nttRingName(Ring);
  }
}

TEST(VectorExecution, MontgomeryVariantMatchesSerial) {
  rewrite::PlanOptions MontV = vectorBase();
  MontV.Red = mw::Reduction::Montgomery;
  rewrite::PlanOptions MontS = simGpuBase();
  MontS.Red = mw::Reduction::Montgomery;
  Dispatcher DS(registry(), nullptr, MontS);
  Dispatcher DV(registry(), nullptr, MontV);
  Bignum Q = testModulus(124);
  SeededRng R(0xEC7);
  const size_t N = 53;
  unsigned K = Dispatcher::elemWords(Q);
  auto A = randomElems(R, Q, N), B = randomElems(R, Q, N);
  auto AW = packBatch(A, K), BW = packBatch(B, K);
  std::vector<std::uint64_t> CS(N * K), CV(N * K);
  ASSERT_TRUE(DS.vmul(Q, AW.data(), BW.data(), CS.data(), N)) << DS.error();
  ASSERT_TRUE(DV.vmul(Q, AW.data(), BW.data(), CV.data(), N)) << DV.error();
  EXPECT_EQ(CS, CV) << "Montgomery vmul diverges across backends";
}

//===----------------------------------------------------------------------===//
// Tune-cache round-trip of vector decisions
//===----------------------------------------------------------------------===//

namespace {

AutotunerOptions quickVectorTune() {
  AutotunerOptions O;
  O.CalibrationElems = 32;
  O.MaxCalibrationElems = 64;
  O.Repeats = 1;
  O.BlockDims = {128};
  return O;
}

} // namespace

TEST(VectorTune, PinnedVectorDecisionRoundTripsThroughJson) {
  namespace fs = std::filesystem;
  std::string Path =
      (fs::temp_directory_path() / "moma-tune-vector.json").string();
  std::remove(Path.c_str());

  Bignum Q = testModulus(124);
  AutotunerOptions O = quickVectorTune();
  O.TuneBackend = false; // pin the base plan's backend
  Autotuner T1(registry(), O);
  const TuneDecision *D1 = T1.choose(KernelOp::MulMod, Q, vectorBase());
  ASSERT_NE(D1, nullptr) << T1.error();
  EXPECT_EQ(D1->Opts.Backend, ExecBackend::Vector);
  ASSERT_TRUE(T1.save(Path));

  Autotuner T2(registry(), O);
  ASSERT_TRUE(T2.load(Path)) << T2.error();
  const TuneDecision *D2 = T2.choose(KernelOp::MulMod, Q, vectorBase());
  ASSERT_NE(D2, nullptr) << T2.error();
  EXPECT_TRUE(D2->FromCache) << "persisted decision must not be re-timed";
  EXPECT_EQ(D2->Opts.Backend, ExecBackend::Vector)
      << "backend field lost in the JSON round-trip";
  EXPECT_TRUE(D2->Opts == D1->Opts) << "loaded " << D2->Opts.str()
                                    << ", tuned " << D1->Opts.str();
  std::remove(Path.c_str());
}

TEST(VectorTune, SweepIncludesVectorCandidates) {
  // With the backend sweep on, the candidate grid must include the
  // vector backend: either it wins outright or the sweep timed it (the
  // candidate count exceeds a sim-GPU-only grid).
  AutotunerOptions O = quickVectorTune();
  Autotuner T(registry(), O);
  Bignum Q = testModulus(60);
  const TuneDecision *D = T.choose(KernelOp::MulMod, Q, {}, 4096);
  ASSERT_NE(D, nullptr) << T.error();
  // reduction x prune x schedule grid = 8 knob combinations; backends
  // per combination: 1 block dim + vector = 2.
  EXPECT_GE(T.stats().Candidates, 16u)
      << "vector candidates missing from the sweep";
}

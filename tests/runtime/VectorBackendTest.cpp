//===- tests/runtime/VectorBackendTest.cpp - SIMD vector backend --------------===//
//
// Coverage for the SIMD lane-loop backend: plan-cache keying with the
// /vec/v<k> suffix, lane-count validation, module sharing across widths,
// vector vs serial bit-identical execution through the dispatcher
// (element-wise, broadcast-stride, NTT stages and fused groups, whole
// polynomial products) including scalar-tail batch sizes, and tune-cache
// round-trips carrying the vector_width field.
//
//===----------------------------------------------------------------------===//

#include "../TestUtil.h"

#include "field/PrimeGen.h"
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

rewrite::PlanOptions vectorBase(unsigned Width = 0) {
  rewrite::PlanOptions O;
  O.Backend = ExecBackend::Vector;
  O.VectorWidth = Width;
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
  Bignum Q = testModulus(124);
  PlanKey K = PlanKey::forModulus(KernelOp::MulMod, Q, vectorBase());
  EXPECT_EQ(K.Opts.VectorWidth, 8u) << "unset lane width defaults to 8";
  EXPECT_EQ(K.str(), "mulmod/c128/m124/w64/barrett/schoolbook/prune/"
                     "noschedule/vec/v8");
  PlanKey K2 = PlanKey::forModulus(KernelOp::MulMod, Q, vectorBase(16));
  EXPECT_NE(K.str(), K2.str()) << "lane width is part of the key";
}

TEST(VectorPlanKey, VectorFoldsTheBlockDimAndSerialFoldsTheWidth) {
  Bignum Q = testModulus(124);
  rewrite::PlanOptions O = vectorBase(4);
  O.BlockDim = 512; // meaningless without the sim-GPU backend
  PlanKey A = PlanKey::forModulus(KernelOp::MulMod, Q, O);
  PlanKey B = PlanKey::forModulus(KernelOp::MulMod, Q, vectorBase(4));
  EXPECT_EQ(A.str(), B.str()) << "block dim folds away on vector plans";
  EXPECT_EQ(A.Opts.BlockDim, 0u);

  rewrite::PlanOptions S;
  S.VectorWidth = 16; // meaningless without the vector backend
  PlanKey C = PlanKey::forModulus(KernelOp::MulMod, Q, S);
  PlanKey D = PlanKey::forModulus(KernelOp::MulMod, Q);
  EXPECT_EQ(C.str(), D.str()) << "lane width folds away on serial plans";
}

TEST(VectorPlanKey, SerialAndVectorAreDistinctCacheEntries) {
  Bignum Q = testModulus(124);
  for (KernelOp Op : {KernelOp::AddMod, KernelOp::SubMod, KernelOp::MulMod,
                      KernelOp::Axpy, KernelOp::Butterfly}) {
    auto PS = registry().get(PlanKey::forModulus(Op, Q));
    ASSERT_NE(PS, nullptr) << registry().error();
    auto PV = registry().get(PlanKey::forModulus(Op, Q, vectorBase()));
    ASSERT_NE(PV, nullptr) << registry().error();
    EXPECT_NE(PS.get(), PV.get());
    EXPECT_NE(PS->Emitted.Symbol, PV->Emitted.Symbol) << kernelOpName(Op);
    EXPECT_NE(PS->Fn, nullptr);
    EXPECT_EQ(PS->GroupFn, nullptr);
    EXPECT_NE(PV->Fn, nullptr);
    // Only butterfly plans resolve the fused NTT stage-group entry.
    EXPECT_EQ(PV->GroupFn != nullptr, Op == KernelOp::Butterfly)
        << kernelOpName(Op);
  }
}

TEST(VectorPlanKey, WidthsShareOneCompiledModule) {
  // The lane count is a launch parameter of the vector ABI: two widths
  // are distinct plans but identical source, so HostJit's in-memory
  // dedup serves the second without another compiler invocation.
  Bignum Q = testModulus(60);
  auto P1 =
      registry().get(PlanKey::forModulus(KernelOp::MulMod, Q, vectorBase(4)));
  ASSERT_NE(P1, nullptr) << registry().error();
  jit::HostJit::Stats Before = registry().jit().stats();
  auto P2 =
      registry().get(PlanKey::forModulus(KernelOp::MulMod, Q, vectorBase(16)));
  ASSERT_NE(P2, nullptr) << registry().error();
  EXPECT_NE(P1.get(), P2.get()) << "distinct plan-cache entries";
  EXPECT_EQ(P1->Module.get(), P2->Module.get()) << "one shared module";
  EXPECT_EQ(registry().jit().stats().Compiles, Before.Compiles);
}

//===----------------------------------------------------------------------===//
// Lane-count validation and backend mismatch
//===----------------------------------------------------------------------===//

TEST(VectorGeometry, RejectsLaneCountsAbove64) {
  Bignum Q = testModulus(124);
  auto P =
      registry().get(PlanKey::forModulus(KernelOp::MulMod, Q, vectorBase(128)));
  EXPECT_EQ(P, nullptr) << "lane counts are bounded like block dims";
  EXPECT_NE(registry().error().find("lane count"), std::string::npos)
      << registry().error();
}

TEST(VectorGeometry, SerialPathRefusesVectorPlans) {
  Bignum Q = testModulus(124);
  auto PV =
      registry().get(PlanKey::forModulus(KernelOp::MulMod, Q, vectorBase()));
  ASSERT_NE(PV, nullptr) << registry().error();
  BatchArgs Args;
  std::string Err;
  EXPECT_FALSE(SerialBackend().runBatch(*PV, Args, 0, /*Rows=*/1, &Err))
      << "the serial path must not silently run a vector plan";
  EXPECT_NE(Err.find("vector"), std::string::npos) << Err;
}

TEST(VectorGeometry, VectorBackendRefusesSerialPlans) {
  Bignum Q = testModulus(124);
  auto PS = registry().get(PlanKey::forModulus(KernelOp::MulMod, Q));
  ASSERT_NE(PS, nullptr) << registry().error();
  BatchArgs Args;
  std::string Err;
  VectorBackend VB;
  EXPECT_FALSE(VB.runBatch(*PS, Args, 0, 1, &Err))
      << "the vector backend must not silently run a serial plan";
  EXPECT_NE(Err.find("lane-loop"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Serial vs vector bit-identical execution
//===----------------------------------------------------------------------===//

TEST(VectorExecution, ElementwiseMatchesSerialBitForBit) {
  Dispatcher DS(registry());
  Bignum Q = testModulus(252);
  SeededRng R(0xEC1);
  unsigned K = Dispatcher::elemWords(Q);
  // Tail coverage: batch sizes that are not multiples of any lane width,
  // smaller than the widest chunk, and exactly chunk-aligned.
  const size_t Sizes[] = {1, 7, 16, 37, 301};
  const unsigned Widths[] = {1, 2, 4, 8, 16};
  for (size_t N : Sizes) {
    auto A = randomElems(R, Q, N), B = randomElems(R, Q, N);
    auto AW = packBatch(A, K), BW = packBatch(B, K);
    std::vector<std::uint64_t> CS(N * K);
    ASSERT_TRUE(DS.vmul(Q, AW.data(), BW.data(), CS.data(), N)) << DS.error();
    for (unsigned W : Widths) {
      Dispatcher DV(registry(), nullptr, vectorBase(W));
      std::vector<std::uint64_t> CV(N * K);
      ASSERT_TRUE(DV.vmul(Q, AW.data(), BW.data(), CV.data(), N))
          << DV.error();
      EXPECT_EQ(DV.lastPlanOptions().Backend, ExecBackend::Vector);
      ASSERT_EQ(CS, CV) << "vmul diverges, n = " << N << ", width = " << W;
      ASSERT_TRUE(DS.vadd(Q, AW.data(), BW.data(), CS.data(), N))
          << DS.error();
      ASSERT_TRUE(DV.vadd(Q, AW.data(), BW.data(), CV.data(), N))
          << DV.error();
      ASSERT_EQ(CS, CV) << "vadd diverges, n = " << N << ", width = " << W;
      // Restore CS to the vmul result for the next width's comparison.
      ASSERT_TRUE(DS.vmul(Q, AW.data(), BW.data(), CS.data(), N))
          << DS.error();
    }
  }
}

TEST(VectorExecution, AxpyBroadcastStrideAndInPlaceUpdate) {
  // axpy writes y in place with a stride-0 broadcast scalar — the
  // aliasing-heavy shape the lane gather/scatter must get right.
  Dispatcher DV(registry(), nullptr, vectorBase(8));
  Bignum Q = testModulus(124);
  SeededRng R(0xEC2);
  const size_t N = 97; // 12 chunks of 8 plus a 1-lane tail
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
  // Rows > 1 flattens into one lane loop of N * Rows elements; a
  // stride-0 operand must broadcast to every row exactly as the grid's
  // e = blockIdx.y * n + i indexing does.
  Bignum Q = testModulus(124);
  auto P =
      registry().get(PlanKey::forModulus(KernelOp::MulMod, Q, vectorBase(4)));
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
  Dispatcher DS(registry());
  Dispatcher DV(registry(), nullptr, vectorBase(8));
  Bignum Q = testModulus(124);
  const size_t N = 64, Batch = 5; // batch is not a multiple of the width
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
  // Sweep transform sizes against lane widths that do NOT divide the
  // batch (partial lane blocks, one-lane loops, widths without a fixed-
  // trip chunk specialization) and demand bit-identity with the serial
  // stage walk at every size.
  Dispatcher DS(registry());
  Bignum Q = testModulus(124);
  unsigned K = Dispatcher::elemWords(Q);
  SeededRng R(0xEC5);
  const size_t Sizes[] = {4, 16, 64, 256};
  const unsigned Widths[] = {1, 3, 5, 8, 16};
  for (size_t N : Sizes) {
    const size_t Batch = 7;
    auto Polys = randomElems(R, Q, N * Batch);
    auto Want = packBatch(Polys, K);
    ASSERT_TRUE(DS.nttForward(Q, Want.data(), N, Batch)) << DS.error();
    for (unsigned W : Widths) {
      Dispatcher DV(registry(), nullptr, vectorBase(W));
      auto Data = packBatch(Polys, K);
      ASSERT_TRUE(DV.nttForward(Q, Data.data(), N, Batch)) << DV.error();
      ASSERT_EQ(Data, Want) << "n = " << N << ", lane width = " << W;
    }
  }
}

TEST(VectorExecution, PolyMulMatchesSerialOnBothRings) {
  Dispatcher DS(registry());
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
  rewrite::PlanOptions MontV = vectorBase(4);
  MontV.Red = mw::Reduction::Montgomery;
  rewrite::PlanOptions MontS;
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
// Tune-cache round-trip with the vector_width field
//===----------------------------------------------------------------------===//

namespace {

AutotunerOptions quickVectorTune() {
  AutotunerOptions O;
  O.CalibrationElems = 32;
  O.MaxCalibrationElems = 64;
  O.Repeats = 1;
  O.BlockDims = {128};
  O.VectorWidths = {8}; // one lane width keeps the sweep fast
  return O;
}

} // namespace

TEST(VectorTune, PinnedVectorWidthRoundTripsThroughJson) {
  namespace fs = std::filesystem;
  std::string Path =
      (fs::temp_directory_path() / "moma-tune-vector.json").string();
  std::remove(Path.c_str());

  Bignum Q = testModulus(124);
  AutotunerOptions O = quickVectorTune();
  O.TuneBackend = false; // pin the base plan's backend and lane width
  Autotuner T1(registry(), O);
  const TuneDecision *D1 = T1.choose(KernelOp::MulMod, Q, vectorBase(16));
  ASSERT_NE(D1, nullptr) << T1.error();
  EXPECT_EQ(D1->Opts.Backend, ExecBackend::Vector);
  EXPECT_EQ(D1->Opts.VectorWidth, 16u);
  ASSERT_TRUE(T1.save(Path));

  Autotuner T2(registry(), O);
  ASSERT_TRUE(T2.load(Path)) << T2.error();
  const TuneDecision *D2 = T2.choose(KernelOp::MulMod, Q, vectorBase(16));
  ASSERT_NE(D2, nullptr) << T2.error();
  EXPECT_TRUE(D2->FromCache) << "persisted decision must not be re-timed";
  EXPECT_EQ(D2->Opts.Backend, ExecBackend::Vector)
      << "backend field lost in the JSON round-trip";
  EXPECT_EQ(D2->Opts.VectorWidth, 16u)
      << "vector_width field lost in the JSON round-trip";
  EXPECT_TRUE(D2->Opts == D1->Opts) << "loaded " << D2->Opts.str()
                                    << ", tuned " << D1->Opts.str();
  std::remove(Path.c_str());
}

TEST(VectorTune, SweepIncludesVectorCandidates) {
  // With the backend sweep on, the candidate grid must include the
  // vector backend: either it wins outright or the sweep timed it (the
  // candidate count exceeds a serial+simgpu-only grid).
  AutotunerOptions O = quickVectorTune();
  Autotuner T(registry(), O);
  Bignum Q = testModulus(60);
  const TuneDecision *D = T.choose(KernelOp::MulMod, Q, {}, 4096);
  ASSERT_NE(D, nullptr) << T.error();
  // reduction x prune x schedule grid = 8 knob combinations; backends
  // per combination: serial + 1 block dim + 1 lane width = 3.
  EXPECT_GE(T.stats().Candidates, 24u)
      << "vector candidates missing from the sweep";
}

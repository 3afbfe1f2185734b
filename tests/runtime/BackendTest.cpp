//===- tests/runtime/BackendTest.cpp - execution-backend layer ----------------===//
//
// Coverage for the backend-polymorphic runtime: plan-cache keying with
// backend + launch-geometry fields, geometry validation, each backend
// refusing the others' plans, module sharing across geometries, vector vs
// sim-GPU bit-identical execution through the dispatcher, and tune-cache
// round-trips carrying backend fields.
//
//===----------------------------------------------------------------------===//

#include "../TestUtil.h"

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

rewrite::PlanOptions simGpuBase(unsigned BlockDim = 0) {
  rewrite::PlanOptions O;
  O.Backend = ExecBackend::SimGpu;
  O.BlockDim = BlockDim;
  return O;
}

rewrite::PlanOptions pinnedBase(ExecBackend B) {
  rewrite::PlanOptions O;
  O.Backend = B;
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

TEST(BackendPlanKey, DefaultPlanIsVector) {
  Bignum Q = testModulus(124);
  PlanKey K = PlanKey::forModulus(KernelOp::MulMod, Q);
  EXPECT_EQ(K.str(),
            "mulmod/c128/m124/w64/barrett/schoolbook/prune/noschedule/vec")
      << "every key names its backend";
  EXPECT_EQ(K.Opts.Backend, ExecBackend::Vector);
  EXPECT_EQ(K.Opts.BlockDim, 0u) << "geometry folds away on vector";

  Dispatcher D(registry());
  unsigned W = Dispatcher::elemWords(Q);
  std::vector<std::uint64_t> A(W, 0), B(W, 0), C(W);
  A[W - 1] = 3;
  B[W - 1] = 5;
  ASSERT_TRUE(D.vmul(Q, A.data(), B.data(), C.data(), 1)) << D.error();
  EXPECT_EQ(D.lastPlanOptions().Backend, ExecBackend::Vector)
      << "a default Dispatcher binds a vector plan";
  EXPECT_EQ(unpackWordsMsbFirst(C.data(), W), Bignum(15u));
}

TEST(BackendPlanKey, SimGpuKeysCarryBackendAndGeometry) {
  Bignum Q = testModulus(124);
  PlanKey K = PlanKey::forModulus(KernelOp::MulMod, Q, simGpuBase());
  EXPECT_EQ(K.Opts.BlockDim, 256u) << "unset geometry defaults to 256";
  EXPECT_EQ(K.str(), "mulmod/c128/m124/w64/barrett/schoolbook/prune/"
                     "noschedule/simgpu/b256");
  PlanKey K2 = PlanKey::forModulus(KernelOp::MulMod, Q, simGpuBase(1024));
  EXPECT_NE(K.str(), K2.str()) << "geometry is part of the key";
}

TEST(BackendPlanKey, VectorAndSimGpuAreDistinctCacheEntries) {
  Bignum Q = testModulus(124);
  for (KernelOp Op : {KernelOp::AddMod, KernelOp::SubMod, KernelOp::MulMod,
                      KernelOp::Axpy, KernelOp::Butterfly}) {
    auto PV = registry().get(
        PlanKey::forModulus(Op, Q, pinnedBase(ExecBackend::Vector)));
    ASSERT_NE(PV, nullptr) << registry().error();
    auto PG = registry().get(PlanKey::forModulus(Op, Q, simGpuBase()));
    ASSERT_NE(PG, nullptr) << registry().error();
    EXPECT_NE(PV.get(), PG.get());
    EXPECT_NE(PV->Emitted.Symbol, PG->Emitted.Symbol) << kernelOpName(Op);
    EXPECT_NE(PV->Module.get(), PG->Module.get()) << kernelOpName(Op);
    EXPECT_NE(PV->Fn, nullptr);
    EXPECT_NE(PG->Fn, nullptr);
    // Only butterfly plans resolve the fused NTT stage-group entry.
    EXPECT_EQ(PV->GroupFn != nullptr, Op == KernelOp::Butterfly)
        << kernelOpName(Op);
    EXPECT_EQ(PG->GroupFn != nullptr, Op == KernelOp::Butterfly)
        << kernelOpName(Op);
  }
}

TEST(BackendPlanKey, GeometriesShareOneCompiledModule) {
  // Block dim is a launch parameter of the grid ABI: two geometries are
  // distinct plans but identical source, so HostJit's in-memory dedup
  // serves the second without another compiler invocation.
  Bignum Q = testModulus(60);
  auto P1 =
      registry().get(PlanKey::forModulus(KernelOp::MulMod, Q, simGpuBase(64)));
  ASSERT_NE(P1, nullptr) << registry().error();
  jit::HostJit::Stats Before = registry().jit().stats();
  auto P2 = registry().get(
      PlanKey::forModulus(KernelOp::MulMod, Q, simGpuBase(512)));
  ASSERT_NE(P2, nullptr) << registry().error();
  EXPECT_NE(P1.get(), P2.get()) << "distinct plan-cache entries";
  EXPECT_EQ(P1->Module.get(), P2->Module.get()) << "one shared module";
  EXPECT_EQ(registry().jit().stats().Compiles, Before.Compiles);
}

//===----------------------------------------------------------------------===//
// Geometry validation
//===----------------------------------------------------------------------===//

TEST(BackendGeometry, RejectsMoreThan1024ThreadsPerBlock) {
  Bignum Q = testModulus(124);
  auto P = registry().get(
      PlanKey::forModulus(KernelOp::MulMod, Q, simGpuBase(2048)));
  EXPECT_EQ(P, nullptr) << "paper 5.1: at most 1024 threads per block";
  EXPECT_NE(registry().error().find("block dimension"), std::string::npos)
      << registry().error();
}

namespace {

/// A plan runs only on the backend its key names: every other backend
/// refuses it with an error instead of calling an entry point of the
/// wrong ABI (or interpreting a plan that carries no kernel).
void expectOtherBackendsRefuse(ExecBackend PlanB) {
  Bignum Q = testModulus(124);
  auto P = registry().get(
      PlanKey::forModulus(KernelOp::Butterfly, Q, pinnedBase(PlanB)));
  ASSERT_NE(P, nullptr) << registry().error();
  for (ExecBackend RunB :
       {ExecBackend::SimGpu, ExecBackend::Vector, ExecBackend::Interp}) {
    if (RunB == PlanB)
      continue;
    ExecutionBackend &EB = registry().backendFor(
        PlanKey::forModulus(KernelOp::Butterfly, Q, pinnedBase(RunB)));
    ASSERT_EQ(EB.kind(), RunB);
    BatchArgs Args;
    std::string Err;
    EXPECT_FALSE(EB.runBatch(*P, Args, 0, /*Rows=*/1, &Err))
        << EB.name() << " ran a " << rewrite::execBackendName(PlanB)
        << " plan";
    EXPECT_NE(Err.find("backend needs"), std::string::npos) << Err;
    std::uint64_t Word = 0;
    StageGroup G;
    G.Src = G.Dst = &Word;
    Err.clear();
    EXPECT_FALSE(EB.runStageGroup(*P, G, nullptr, {}, 2, 1, &Err))
        << EB.name() << " ran a " << rewrite::execBackendName(PlanB)
        << " plan's stage group";
    EXPECT_NE(Err.find("backend needs"), std::string::npos) << Err;
  }
}

} // namespace

TEST(BackendGeometry, OtherBackendsRefuseSimGpuPlans) {
  expectOtherBackendsRefuse(ExecBackend::SimGpu);
}

TEST(BackendGeometry, OtherBackendsRefuseVectorPlans) {
  expectOtherBackendsRefuse(ExecBackend::Vector);
}

TEST(BackendGeometry, OtherBackendsRefuseInterpPlans) {
  expectOtherBackendsRefuse(ExecBackend::Interp);
}

//===----------------------------------------------------------------------===//
// Vector vs sim-GPU bit-identical execution
//===----------------------------------------------------------------------===//

TEST(BackendExecution, ElementwiseMatchesSerialBitForBit) {
  Dispatcher DS(registry(), nullptr, pinnedBase(ExecBackend::Vector));
  Dispatcher DG(registry(), nullptr, simGpuBase(128));
  Bignum Q = testModulus(252);
  SeededRng R(0xBACC1);
  const size_t N = 301; // deliberately not a multiple of the block dim
  unsigned K = Dispatcher::elemWords(Q);
  auto A = randomElems(R, Q, N), B = randomElems(R, Q, N);
  auto AW = packBatch(A, K), BW = packBatch(B, K);
  std::vector<std::uint64_t> CS(N * K), CG(N * K);

  ASSERT_TRUE(DS.vmul(Q, AW.data(), BW.data(), CS.data(), N)) << DS.error();
  ASSERT_TRUE(DG.vmul(Q, AW.data(), BW.data(), CG.data(), N)) << DG.error();
  EXPECT_EQ(DG.lastPlanOptions().Backend, ExecBackend::SimGpu);
  EXPECT_EQ(CS, CG) << "vmul diverges across backends";

  ASSERT_TRUE(DS.vadd(Q, AW.data(), BW.data(), CS.data(), N)) << DS.error();
  ASSERT_TRUE(DG.vadd(Q, AW.data(), BW.data(), CG.data(), N)) << DG.error();
  EXPECT_EQ(CS, CG) << "vadd diverges across backends";
}

TEST(BackendExecution, AxpyBroadcastStrideWorksOnTheGrid) {
  Dispatcher DG(registry(), nullptr, simGpuBase(64));
  Bignum Q = testModulus(124);
  SeededRng R(0xBACC2);
  const size_t N = 97;
  unsigned K = Dispatcher::elemWords(Q);
  Bignum A = Bignum::random(R, Q);
  auto X = randomElems(R, Q, N), Y = randomElems(R, Q, N);
  auto AW = packWordsMsbFirst(A, K);
  auto XW = packBatch(X, K), YW = packBatch(Y, K);
  ASSERT_TRUE(DG.axpy(Q, AW.data(), XW.data(), YW.data(), N)) << DG.error();
  auto Out = unpackBatch(YW, K);
  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(Out[I], A.mulMod(X[I], Q).addMod(Y[I], Q)) << "element " << I;
}

// A 130-bit modulus takes 3-word elements in a 256-bit container, so the
// Shoup butterfly's wq companion spans 4 words: with no explicit strides
// every backend must step each input by its own port width.
TEST(BackendExecution, ButterflyBatchStepsWqByItsPortWidth) {
  Bignum Q = testModulus(130);
  SeededRng R(0xBACC3);
  const size_t N = 37;
  unsigned K = Dispatcher::elemWords(Q);
  auto X = randomElems(R, Q, N), Y = randomElems(R, Q, N),
       W = randomElems(R, Q, N);
  std::vector<Bignum> WQ;
  for (const Bignum &V : W)
    WQ.push_back(kernels::shoupCompanion(V, Q, 256));
  auto XW = packBatch(X, K), YW = packBatch(Y, K), WW = packBatch(W, K);
  auto WQW = packBatch(WQ, 4);
  for (ExecBackend B :
       {ExecBackend::SimGpu, ExecBackend::Vector, ExecBackend::Interp}) {
    rewrite::PlanOptions O;
    O.Backend = B;
    PlanKey Key = PlanKey::forModulus(KernelOp::Butterfly, Q, O);
    auto P = registry().get(Key);
    ASSERT_NE(P, nullptr) << registry().error();
    ASSERT_EQ(P->ElemWords, 3u);
    PlanAux Aux = makePlanAux(*P, Q);
    std::vector<std::uint64_t> XO(N * K), YO(N * K);
    BatchArgs Args;
    Args.Outs = {XO.data(), YO.data()};
    Args.Ins = {XW.data(), YW.data(), WW.data(), WQW.data()};
    Args.Aux = Aux.ptrs();
    std::string Err;
    ASSERT_TRUE(registry().backendFor(Key).runBatch(*P, Args, N, 1, &Err))
        << Err;
    auto GotX = unpackBatch(XO, K), GotY = unpackBatch(YO, K);
    for (size_t I = 0; I < N; ++I) {
      Bignum T = W[I].mulMod(Y[I], Q);
      ASSERT_EQ(GotX[I], X[I].addMod(T, Q))
          << rewrite::execBackendName(B) << " element " << I;
      ASSERT_EQ(GotY[I], X[I].subMod(T, Q))
          << rewrite::execBackendName(B) << " element " << I;
    }
  }
}

TEST(BackendExecution, GridBatchRowsIndexTheYDimension) {
  // Rows > 1 exercises the grid's e = blockIdx.y * n + i indexing with a
  // broadcast (stride 0) operand shared by every row.
  Bignum Q = testModulus(124);
  auto P =
      registry().get(PlanKey::forModulus(KernelOp::MulMod, Q, simGpuBase(32)));
  ASSERT_NE(P, nullptr) << registry().error();
  PlanAux Aux = makePlanAux(*P, Q);
  SeededRng R(0xBACC3);
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
  ASSERT_TRUE(registry()
                  .backendFor(P->Key)
                  .runBatch(*P, Args, N, Rows, &Err))
      << Err;
  auto C = unpackBatch(CW, K);
  for (size_t I = 0; I < N * Rows; ++I)
    ASSERT_EQ(C[I], A[I].mulMod(S, Q)) << "element " << I;
}

TEST(BackendExecution, NttMatchesSerialBitForBit) {
  Dispatcher DS(registry(), nullptr, pinnedBase(ExecBackend::Vector));
  Dispatcher DG(registry(), nullptr, simGpuBase(128));
  Bignum Q = testModulus(124);
  const size_t N = 64, Batch = 5;
  unsigned K = Dispatcher::elemWords(Q);
  SeededRng R(0xBACC4);
  auto Polys = randomElems(R, Q, N * Batch);
  auto DataS = packBatch(Polys, K);
  auto DataG = DataS;

  ASSERT_TRUE(DS.nttForward(Q, DataS.data(), N, Batch)) << DS.error();
  ASSERT_TRUE(DG.nttForward(Q, DataG.data(), N, Batch)) << DG.error();
  EXPECT_EQ(DataS, DataG) << "forward NTT diverges across backends";

  ASSERT_TRUE(DS.nttInverse(Q, DataS.data(), N, Batch)) << DS.error();
  ASSERT_TRUE(DG.nttInverse(Q, DataG.data(), N, Batch)) << DG.error();
  EXPECT_EQ(DataS, DataG) << "inverse NTT diverges across backends";
  EXPECT_EQ(unpackBatch(DataG, K), Polys) << "roundtrip identity";
}

TEST(BackendExecution, StageGeometrySweepMatchesSerial) {
  // The fused entry's g/r division-and-carry indexing is the trickiest
  // code path: sweep transform sizes against block dims that do NOT
  // divide the thread count (partial blocks, non-power-of-two dims,
  // one-thread blocks) and demand bit-identity with the vector walk at
  // every stage length.
  Dispatcher DS(registry(), nullptr, pinnedBase(ExecBackend::Vector));
  Bignum Q = testModulus(124);
  unsigned K = Dispatcher::elemWords(Q);
  SeededRng R(0xBACC6);
  const size_t Sizes[] = {4, 16, 64, 256};
  const unsigned Dims[] = {1, 3, 64, 257, 1024};
  for (size_t N : Sizes) {
    const size_t Batch = 3;
    auto Polys = randomElems(R, Q, N * Batch);
    auto Want = packBatch(Polys, K);
    ASSERT_TRUE(DS.nttForward(Q, Want.data(), N, Batch)) << DS.error();
    for (unsigned BD : Dims) {
      Dispatcher DG(registry(), nullptr, simGpuBase(BD));
      auto Data = packBatch(Polys, K);
      ASSERT_TRUE(DG.nttForward(Q, Data.data(), N, Batch)) << DG.error();
      ASSERT_EQ(Data, Want) << "n = " << N << ", block dim = " << BD;
    }
  }
}

TEST(BackendExecution, PolyMulMatchesSerialBitForBit) {
  Dispatcher DS(registry(), nullptr, pinnedBase(ExecBackend::Vector));
  Dispatcher DG(registry(), nullptr, simGpuBase());
  Bignum Q = testModulus(252);
  const size_t N = 32, Batch = 3;
  unsigned K = Dispatcher::elemWords(Q);
  SeededRng R(0xBACC5);
  auto A = randomElems(R, Q, N * Batch), B = randomElems(R, Q, N * Batch);
  auto AW = packBatch(A, K), BW = packBatch(B, K);
  std::vector<std::uint64_t> CS(N * Batch * K), CG(N * Batch * K);
  ASSERT_TRUE(DS.polyMul(Q, AW.data(), BW.data(), CS.data(), N, Batch))
      << DS.error();
  ASSERT_TRUE(DG.polyMul(Q, AW.data(), BW.data(), CG.data(), N, Batch))
      << DG.error();
  EXPECT_EQ(CS, CG) << "polyMul diverges across backends";
}

//===----------------------------------------------------------------------===//
// Tune-cache round-trip with backend fields
//===----------------------------------------------------------------------===//

namespace {

AutotunerOptions quickBackendTune() {
  AutotunerOptions O;
  O.CalibrationElems = 32;
  O.MaxCalibrationElems = 64;
  O.Repeats = 1;
  O.BlockDims = {128}; // one geometry keeps the sweep fast
  return O;
}

} // namespace

TEST(BackendTune, DecisionsRoundTripWithBackendFields) {
  namespace fs = std::filesystem;
  std::string Path =
      (fs::temp_directory_path() / "moma-tune-backend.json").string();
  std::remove(Path.c_str());

  Bignum Q = testModulus(252);
  Autotuner T1(registry(), quickBackendTune());
  const TuneDecision *D1 = T1.choose(KernelOp::MulMod, Q, {}, 1000);
  ASSERT_NE(D1, nullptr) << T1.error();
  rewrite::PlanOptions Won = D1->Opts;
  ASSERT_TRUE(T1.save(Path));

  Autotuner T2(registry(), quickBackendTune());
  ASSERT_TRUE(T2.load(Path)) << T2.error();
  const TuneDecision *D2 = T2.choose(KernelOp::MulMod, Q, {}, 1000);
  ASSERT_NE(D2, nullptr) << T2.error();
  EXPECT_TRUE(D2->FromCache) << "persisted decision must not be re-timed";
  EXPECT_EQ(T2.stats().Tuned, 0u);
  EXPECT_EQ(D2->Opts.Backend, Won.Backend)
      << "backend field lost in the JSON round-trip";
  EXPECT_EQ(D2->Opts.BlockDim, Won.BlockDim)
      << "geometry field lost in the JSON round-trip";
  EXPECT_TRUE(D2->Opts == Won) << "loaded " << D2->Opts.str() << ", tuned "
                               << Won.str();
  std::remove(Path.c_str());
}

TEST(BackendTune, DecisionsArePerBatchSizeClass) {
  Autotuner T(registry(), quickBackendTune());
  Bignum Q = testModulus(124);
  const TuneDecision *Small = T.choose(KernelOp::MulMod, Q, {}, 8);
  ASSERT_NE(Small, nullptr) << T.error();
  const TuneDecision *Large = T.choose(KernelOp::MulMod, Q, {}, 5000);
  ASSERT_NE(Large, nullptr) << T.error();
  EXPECT_EQ(T.stats().Tuned, 2u)
      << "different size classes tune independently";
  EXPECT_EQ(Autotuner::sizeBucket(8), 64u);
  EXPECT_EQ(Autotuner::sizeBucket(5000), 8192u);
  EXPECT_EQ(Autotuner::sizeBucket(1u << 20), 16384u) << "bucket cap";
  const TuneDecision *Again = T.choose(KernelOp::MulMod, Q, {}, 6000);
  EXPECT_EQ(Again, Large) << "same bucket reuses the decision";
}

TEST(BackendTune, PinnedBackendIsRespectedWhenSweepDisabled) {
  AutotunerOptions O = quickBackendTune();
  O.TuneBackend = false;
  Autotuner T(registry(), O);
  Bignum Q = testModulus(124);
  const TuneDecision *DG = T.choose(KernelOp::MulMod, Q, simGpuBase(128));
  ASSERT_NE(DG, nullptr) << T.error();
  EXPECT_EQ(DG->Opts.Backend, ExecBackend::SimGpu);
  EXPECT_EQ(DG->Opts.BlockDim, 128u);
  const TuneDecision *DV = T.choose(KernelOp::MulMod, Q);
  ASSERT_NE(DV, nullptr) << T.error();
  EXPECT_EQ(DV->Opts.Backend, ExecBackend::Vector)
      << "a default-base caller must not inherit the sim-GPU decision";
}

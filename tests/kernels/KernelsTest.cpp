//===- tests/kernels/KernelsTest.cpp - kernel builders -----------------------===//

#include "kernels/BlasKernels.h"
#include "kernels/BlasRuntime.h"
#include "kernels/NttKernels.h"
#include "kernels/ScalarKernels.h"

#include "ir/Interp.h"
#include "ir/Verifier.h"
#include "runtime/Backend.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace moma;
using namespace moma::ir;
using namespace moma::kernels;
using mw::Bignum;

TEST(ScalarKernels, AllBuildersVerify) {
  for (unsigned Bits : {64u, 128u, 256u, 512u, 1024u}) {
    ScalarKernelSpec Spec{Bits, 0};
    EXPECT_TRUE(verify(buildAddModKernel(Spec)).empty()) << Bits;
    EXPECT_TRUE(verify(buildSubModKernel(Spec)).empty()) << Bits;
    EXPECT_TRUE(verify(buildMulModKernel(Spec)).empty()) << Bits;
    EXPECT_TRUE(verify(buildMulFullKernel(Spec)).empty()) << Bits;
    EXPECT_TRUE(verify(buildButterflyKernel(Spec)).empty()) << Bits;
    EXPECT_TRUE(verify(buildAxpyKernel(Spec)).empty()) << Bits;
  }
}

TEST(ScalarKernels, ButterflySemantics) {
  // x' = x + w*y, y' = x - w*y (mod q).
  ScalarKernelSpec Spec{128, 0};
  Kernel K = buildButterflyKernel(Spec);
  Bignum Q = Bignum::powerOfTwo(124) - Bignum(59);
  Rng R(801);
  for (int I = 0; I < 30; ++I) {
    Bignum X = Bignum::random(R, Q), Y = Bignum::random(R, Q),
           W = Bignum::random(R, Q);
    auto Out = interpret(K, {X, Y, W, shoupCompanion(W, Q, 128), Q});
    Bignum T = W.mulMod(Y, Q);
    EXPECT_EQ(Out[0], X.addMod(T, Q));
    EXPECT_EQ(Out[1], X.subMod(T, Q));
  }
}

TEST(ScalarKernels, ShoupButterflyEdgeOperands) {
  // Shoup's twiddle product at the edges of its range: the largest and
  // smallest odd m-bit moduli (m = λ - 4) and the operands 0, 1, q - 1
  // plus random ones, each with the true companion wq. The interpreted
  // kernel and the default (vector) JIT plan must both return the
  // butterfly.
  runtime::KernelRegistry Reg;
  Rng R(803);
  for (unsigned Container : {64u, 128u, 256u, 512u}) {
    unsigned M = Container - 4, WQWords = Container / 64;
    Kernel K = buildButterflyKernel(ScalarKernelSpec{Container, 0});
    for (const Bignum &Q : {Bignum::powerOfTwo(M) - Bignum(1),
                            Bignum::powerOfTwo(M - 1) + Bignum(1)}) {
      runtime::PlanKey Key =
          runtime::PlanKey::forModulus(runtime::KernelOp::Butterfly, Q);
      auto P = Reg.get(Key);
      ASSERT_NE(P, nullptr) << Reg.error();
      unsigned E = P->ElemWords;
      std::vector<Bignum> Ops = {Bignum(0), Bignum(1), Q - Bignum(1),
                                 Bignum::random(R, Q), Bignum::random(R, Q)};
      std::vector<Bignum> WantX, WantY;
      std::vector<std::uint64_t> XW, YW, WW, WQW;
      auto Put = [](std::vector<std::uint64_t> &Buf, const Bignum &V,
                    unsigned Words) {
        auto Packed = runtime::packWordsMsbFirst(V, Words);
        Buf.insert(Buf.end(), Packed.begin(), Packed.end());
      };
      for (const Bignum &X : Ops)
        for (const Bignum &Y : Ops)
          for (const Bignum &W : Ops) {
            Bignum WQ = shoupCompanion(W, Q, Container);
            Bignum T = W.mulMod(Y, Q);
            WantX.push_back(X.addMod(T, Q));
            WantY.push_back(X.subMod(T, Q));
            auto Out = interpret(K, {X, Y, W, WQ, Q});
            ASSERT_EQ(Out[0], WantX.back()) << "q = " << Q.toHex();
            ASSERT_EQ(Out[1], WantY.back()) << "q = " << Q.toHex();
            Put(XW, X, E);
            Put(YW, Y, E);
            Put(WW, W, E);
            Put(WQW, WQ, WQWords);
          }
      size_t N = WantX.size();
      std::vector<std::uint64_t> XO(N * E), YO(N * E);
      runtime::PlanAux Aux = runtime::makePlanAux(*P, Q);
      runtime::BatchArgs Args;
      Args.Outs = {XO.data(), YO.data()};
      Args.Ins = {XW.data(), YW.data(), WW.data(), WQW.data()};
      Args.Aux = Aux.ptrs();
      std::string Err;
      ASSERT_TRUE(Reg.backendFor(Key).runBatch(*P, Args, N, 1, &Err))
          << Err;
      for (size_t I = 0; I < N; ++I) {
        EXPECT_EQ(runtime::unpackWordsMsbFirst(XO.data() + I * E, E),
                  WantX[I])
            << "q = " << Q.toHex() << ", case " << I;
        EXPECT_EQ(runtime::unpackWordsMsbFirst(YO.data() + I * E, E),
                  WantY[I])
            << "q = " << Q.toHex() << ", case " << I;
      }
    }
  }
}

TEST(ScalarKernels, AxpySemantics) {
  ScalarKernelSpec Spec{128, 0};
  Kernel K = buildAxpyKernel(Spec);
  Bignum Q = Bignum::powerOfTwo(124) - Bignum(59);
  Bignum Mu = Bignum::powerOfTwo(2 * 124 + 3) / Q;
  Rng R(802);
  for (int I = 0; I < 30; ++I) {
    Bignum A = Bignum::random(R, Q), X = Bignum::random(R, Q),
           Y = Bignum::random(R, Q);
    auto Out = interpret(K, {A, X, Y, Q, Mu});
    EXPECT_EQ(Out[0], A.mulMod(X, Q).addMod(Y, Q));
  }
}

TEST(ScalarKernels, RejectsTightModulus) {
  EXPECT_DEATH((void)buildMulModKernel(ScalarKernelSpec{128, 126}),
               "container - 4");
}

TEST(BlasKernels, NamesEncodeOpAndWidth) {
  Kernel K = buildBlasElementKernel(BlasOp::VMul, ScalarKernelSpec{256, 0});
  EXPECT_EQ(K.Name, "vmul_256");
  EXPECT_EQ(std::string(blasOpName(BlasOp::Axpy)), "axpy");
}

TEST(BlasKernels, GeneratePipelineProducesNativeKernels) {
  for (auto Op :
       {BlasOp::VAdd, BlasOp::VSub, BlasOp::VMul, BlasOp::Axpy}) {
    rewrite::LoweredKernel L =
        generateBlasKernel(Op, ScalarKernelSpec{256, 0});
    EXPECT_LE(L.K.maxBits(), 64u);
    EXPECT_TRUE(verify(L.K).empty());
  }
}

TEST(BlasRuntime, MatchesBignumOracle) {
  using field::PrimeField;
  auto F = PrimeField<4>::evaluationField(8);
  BlasRuntime<4> Blas(F);
  sim::Device Dev;
  Rng R(803);
  const Bignum &Q = F.modulusBig();
  size_t N = 257; // odd size exercises the chunked parallel loop tails

  std::vector<PrimeField<4>::Element> A(N), B(N), C;
  std::vector<Bignum> ABig(N), BBig(N);
  for (size_t I = 0; I < N; ++I) {
    ABig[I] = Bignum::random(R, Q);
    BBig[I] = Bignum::random(R, Q);
    A[I] = F.fromBignum(ABig[I]);
    B[I] = F.fromBignum(BBig[I]);
  }

  Blas.vadd(Dev, A, B, C);
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(C[I].toBignum(), ABig[I].addMod(BBig[I], Q));

  Blas.vsub(Dev, A, B, C);
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(C[I].toBignum(), ABig[I].subMod(BBig[I], Q));

  Blas.vmul(Dev, A, B, C);
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(C[I].toBignum(), ABig[I].mulMod(BBig[I], Q));

  Bignum SBig = Bignum::random(R, Q);
  auto S = F.fromBignum(SBig);
  std::vector<PrimeField<4>::Element> Y = B;
  Blas.axpy(Dev, S, A, Y);
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Y[I].toBignum(), SBig.mulMod(ABig[I], Q).addMod(BBig[I], Q));
}

TEST(NttKernels, GenerateButterflyAcrossWidths) {
  for (unsigned Bits : {128u, 256u, 384u * 0 + 512u}) {
    rewrite::LoweredKernel L =
        generateButterflyKernel(ScalarKernelSpec{Bits, 0});
    EXPECT_LE(L.K.maxBits(), 64u);
    EXPECT_TRUE(verify(L.K).empty()) << Bits;
    ASSERT_EQ(L.Outputs.size(), 2u);
    EXPECT_EQ(L.Outputs[0].Name, "xo");
  }
}

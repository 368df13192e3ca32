//===- tests/ExecTest.cpp - interpreter & data environment tests -----------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exec/Interpreter.h"
#include "api/Kernel.h"
#include "blas/Kernels.h"
#include "frontends/PolyBench.h"
#include "ir/Builder.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace daisy;

namespace {

Program makeGemmProgram(int N) {
  Program Prog("gemm");
  Prog.addArray("A", {N, N});
  Prog.addArray("B", {N, N});
  Prog.addArray("C", {N, N});
  Prog.append(forLoop(
      "i", 0, N,
      {forLoop("j", 0, N,
               {forLoop("k", 0, N,
                        {assign("S0", "C", {ax("i"), ax("j")},
                                read("C", {ax("i"), ax("j")}) +
                                    read("A", {ax("i"), ax("k")}) *
                                        read("B", {ax("k"), ax("j")}))})})}));
  return Prog;
}

} // namespace

TEST(DataEnvTest, AllocationAndInit) {
  Program Prog("p");
  Prog.addArray("A", {4, 4});
  Prog.addArray("s", {});
  Prog.addArray("T", {8}, /*Transient=*/true);
  DataEnv Env(Prog);
  EXPECT_EQ(Env.buffer("A").size(), 16u);
  EXPECT_EQ(Env.buffer("s").size(), 1u);
  Env.initDeterministic(7);
  // Transient arrays stay zero.
  for (double V : Env.buffer("T"))
    EXPECT_EQ(V, 0.0);
  // Non-transient arrays are filled and bounded.
  bool AnyNonZero = false;
  for (double V : Env.buffer("A")) {
    AnyNonZero |= V != 0.0;
    EXPECT_LT(std::fabs(V), 2.0);
  }
  EXPECT_TRUE(AnyNonZero);
}

TEST(DataEnvTest, InitIsDeterministic) {
  Program Prog("p");
  Prog.addArray("A", {16});
  DataEnv E1(Prog), E2(Prog);
  E1.initDeterministic(3);
  E2.initDeterministic(3);
  EXPECT_EQ(E1.buffer("A"), E2.buffer("A"));
  E2.initDeterministic(4);
  EXPECT_NE(E1.buffer("A"), E2.buffer("A"));
}

TEST(InterpreterTest, SimpleAssignment) {
  Program Prog("p");
  Prog.addArray("A", {4});
  Prog.append(forLoop("i", 0, 4,
                      {assign("S0", "A", {ax("i")},
                              Expr::makeIter("i") * lit(2.0))}));
  DataEnv Env = Kernel::compile(Prog).run();
  for (int I = 0; I < 4; ++I)
    EXPECT_DOUBLE_EQ(Env.buffer("A")[static_cast<size_t>(I)], 2.0 * I);
}

TEST(InterpreterTest, GemmMatchesManualComputation) {
  int N = 5;
  Program Prog = makeGemmProgram(N);
  DataEnv Env(Prog);
  Env.initDeterministic(1);
  std::vector<double> A = Env.buffer("A");
  std::vector<double> B = Env.buffer("B");
  std::vector<double> C = Env.buffer("C");
  Kernel::compile(Prog).run(Env);
  for (int I = 0; I < N; ++I)
    for (int J = 0; J < N; ++J) {
      double Expected = C[static_cast<size_t>(I * N + J)];
      for (int K = 0; K < N; ++K)
        Expected += A[static_cast<size_t>(I * N + K)] *
                    B[static_cast<size_t>(K * N + J)];
      EXPECT_NEAR(Env.buffer("C")[static_cast<size_t>(I * N + J)], Expected,
                  1e-12);
    }
}

TEST(InterpreterTest, TriangularBoundsRespected) {
  Program Prog("tri");
  Prog.addArray("C", {6, 6});
  Prog.append(forLoop(
      "i", 0, 6,
      {forLoop("j", ac(0), ax("i") + 1,
               {assign("S0", "C", {ax("i"), ax("j")}, lit(1.0))})}));
  DataEnv Env = Kernel::compile(Prog).run(99);
  for (int I = 0; I < 6; ++I)
    for (int J = 0; J < 6; ++J) {
      double V = Env.buffer("C")[static_cast<size_t>(I * 6 + J)];
      if (J <= I)
        EXPECT_DOUBLE_EQ(V, 1.0);
    }
}

TEST(InterpreterTest, SelectAndIntrinsics) {
  Program Prog("sel");
  Prog.addArray("A", {4});
  Prog.addArray("B", {4});
  // B[i] = A[i] > 0.5 ? sqrt(A[i]) : exp(A[i])
  Prog.append(forLoop(
      "i", 0, 4,
      {assign("S0", "B", {ax("i")},
              Expr::makeSelect(
                  Expr::makeBinary(BinaryOpKind::Gt, read("A", {ax("i")}),
                                   lit(0.5)),
                  esqrt(read("A", {ax("i")})),
                  eexp(read("A", {ax("i")}))))}));
  DataEnv Env(Prog);
  Env.initDeterministic(2);
  std::vector<double> A = Env.buffer("A");
  Kernel::compile(Prog).run(Env);
  for (int I = 0; I < 4; ++I) {
    double AV = A[static_cast<size_t>(I)];
    double Expected = AV > 0.5 ? std::sqrt(AV) : std::exp(AV);
    EXPECT_DOUBLE_EQ(Env.buffer("B")[static_cast<size_t>(I)], Expected);
  }
}

TEST(InterpreterTest, CallNodeMatchesLoopNest) {
  int N = 6;
  Program Loops = makeGemmProgram(N);
  Program Call("gemm_call");
  Call.addArray("A", {N, N});
  Call.addArray("B", {N, N});
  Call.addArray("C", {N, N});
  Call.append(std::make_shared<CallNode>(
      BlasKind::Gemm, std::vector<std::string>{"C", "A", "B"},
      std::vector<int64_t>{N, N, N}));
  EXPECT_TRUE(semanticallyEquivalent(Loops, Call, 1e-9));
}

TEST(InterpreterTest, StepLoops) {
  Program Prog("step");
  Prog.addArray("A", {10});
  Prog.append(forLoop("i", 0, 10,
                      {assign("S0", "A", {ax("i")}, lit(1.0))}, 2));
  DataEnv Env = Kernel::compile(Prog).run(0);
  // initDeterministic fills A; overwrite pattern on even indices only.
  for (int I = 0; I < 10; I += 2)
    EXPECT_DOUBLE_EQ(Env.buffer("A")[static_cast<size_t>(I)], 1.0);
}

TEST(BlasKernelTest, GemvMatchesLoops) {
  int M = 7, N = 5;
  std::vector<double> A(static_cast<size_t>(M * N)), X(static_cast<size_t>(N)),
      Y(static_cast<size_t>(M)), YRef;
  for (size_t I = 0; I < A.size(); ++I)
    A[I] = 0.01 * static_cast<double>(I + 1);
  for (size_t I = 0; I < X.size(); ++I)
    X[I] = 0.1 * static_cast<double>(I + 1);
  for (size_t I = 0; I < Y.size(); ++I)
    Y[I] = static_cast<double>(I);
  YRef = Y;
  gemv(Y.data(), A.data(), X.data(), M, N, 2.0, 0.5);
  for (int I = 0; I < M; ++I) {
    double Sum = 0.0;
    for (int J = 0; J < N; ++J)
      Sum += A[static_cast<size_t>(I * N + J)] * X[static_cast<size_t>(J)];
    EXPECT_NEAR(Y[static_cast<size_t>(I)],
                0.5 * YRef[static_cast<size_t>(I)] + 2.0 * Sum, 1e-12);
  }
}

TEST(BlasKernelTest, SyrkLowerTriangle) {
  int N = 6, K = 4;
  std::vector<double> A(static_cast<size_t>(N * K)),
      C(static_cast<size_t>(N * N), 1.0);
  for (size_t I = 0; I < A.size(); ++I)
    A[I] = 0.1 * static_cast<double>(I % 7);
  std::vector<double> CRef = C;
  syrk(C.data(), A.data(), N, K, 1.0, 1.0);
  for (int I = 0; I < N; ++I)
    for (int J = 0; J <= I; ++J) {
      double Expected = CRef[static_cast<size_t>(I * N + J)];
      for (int Ki = 0; Ki < K; ++Ki)
        Expected += A[static_cast<size_t>(I * K + Ki)] *
                    A[static_cast<size_t>(J * K + Ki)];
      EXPECT_NEAR(C[static_cast<size_t>(I * N + J)], Expected, 1e-12);
    }
}

TEST(BlasKernelTest, EfficiencyModelSane) {
  EXPECT_GT(blasEfficiency(BlasKind::Gemm, {512, 512, 512}), 0.8);
  EXPECT_LT(blasEfficiency(BlasKind::Gemv, {512, 512}), 0.3);
  EXPECT_LT(blasEfficiency(BlasKind::Gemm, {16, 16, 16}),
            blasEfficiency(BlasKind::Gemm, {512, 512, 512}));
}

//===----------------------------------------------------------------------===//
// Equivalence checking
//===----------------------------------------------------------------------===//

TEST(SemanticEquivalenceTest, DetectsInequivalentProgram) {
  Program A = buildPolyBench(PolyBenchKernel::Gemm, VariantKind::A);
  Program B = buildPolyBench(PolyBenchKernel::Gemm, VariantKind::B);
  EXPECT_TRUE(semanticallyEquivalent(A, B));
  // Skip every other row: the verdict must be negative.
  Program Broken = B.clone();
  auto *L = dynCast<Loop>(Broken.topLevel()[0]);
  ASSERT_NE(L, nullptr);
  L->setBounds(L->lower(), L->upper(), 2);
  EXPECT_FALSE(semanticallyEquivalent(A, Broken));
}

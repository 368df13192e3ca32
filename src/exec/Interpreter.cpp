//===- exec/Interpreter.cpp -----------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "exec/Interpreter.h"

#include "blas/Kernels.h"
#include "exec/EvalOps.h"
#include "exec/ExecPlan.h"

#include <cassert>

using namespace daisy;

namespace {

class InterpreterImpl {
public:
  InterpreterImpl(const Program &Prog, DataEnv &Env)
      : Prog(Prog), Env(Env), Vars(Prog.params()) {}

  void run() {
    for (const NodePtr &Node : Prog.topLevel())
      execNode(Node);
  }

private:
  int64_t evalAffine(const AffineExpr &Expr) const {
    return Expr.evaluate(Vars);
  }

  size_t elementOffset(const ArrayAccess &Access) const {
    const ArrayDecl &Decl = Prog.array(Access.Array);
    assert(Decl.Shape.size() == Access.Indices.size() &&
           "rank mismatch at execution");
    int64_t Offset = 0;
    for (size_t Dim = 0; Dim < Access.Indices.size(); ++Dim) {
      int64_t Index = evalAffine(Access.Indices[Dim]);
      assert(Index >= 0 && Index < Decl.Shape[Dim] &&
             "subscript out of bounds");
      Offset += Index * Decl.dimStride(Dim);
    }
    return static_cast<size_t>(Offset);
  }

  double evalExpr(const Expr &E) const {
    switch (E.kind()) {
    case ExprKind::Constant:
      return E.constantValue();
    case ExprKind::Read:
      return Env.buffer(E.access().Array)[elementOffset(E.access())];
    case ExprKind::Iter: {
      auto It = Vars.find(E.name());
      assert(It != Vars.end() && "unbound iterator");
      return static_cast<double>(It->second);
    }
    case ExprKind::Param:
      return static_cast<double>(Prog.param(E.name()));
    case ExprKind::Unary:
      return applyUnary(E.unaryOp(), evalExpr(*E.operands()[0]));
    case ExprKind::Binary: {
      double L = evalExpr(*E.operands()[0]);
      double R = evalExpr(*E.operands()[1]);
      return applyBinary(E.binaryOp(), L, R);
    }
    case ExprKind::Select:
      return evalExpr(*E.operands()[0]) != 0.0
                 ? evalExpr(*E.operands()[1])
                 : evalExpr(*E.operands()[2]);
    }
    return 0.0;
  }

  void execCall(const CallNode &Call) {
    const auto &Args = Call.args();
    const auto &Dims = Call.dims();
    switch (Call.callee()) {
    case BlasKind::Gemm:
      gemm(Env.buffer(Args[0]).data(), Env.buffer(Args[1]).data(),
           Env.buffer(Args[2]).data(), Dims[0], Dims[1], Dims[2],
           Call.alpha(), Call.beta());
      break;
    case BlasKind::Syrk:
      syrk(Env.buffer(Args[0]).data(), Env.buffer(Args[1]).data(), Dims[0],
           Dims[1], Call.alpha(), Call.beta());
      break;
    case BlasKind::Syr2k:
      syr2k(Env.buffer(Args[0]).data(), Env.buffer(Args[1]).data(),
            Env.buffer(Args[2]).data(), Dims[0], Dims[1], Call.alpha(),
            Call.beta());
      break;
    case BlasKind::Gemv:
      gemv(Env.buffer(Args[0]).data(), Env.buffer(Args[1]).data(),
           Env.buffer(Args[2]).data(), Dims[0], Dims[1], Call.alpha(),
           Call.beta());
      break;
    }
  }

  void execNode(const NodePtr &Node) {
    if (const auto *C = dynCast<Computation>(Node)) {
      double Value = evalExpr(*C->rhs());
      Env.buffer(C->write().Array)[elementOffset(C->write())] = Value;
      return;
    }
    if (const auto *Call = dynCast<CallNode>(Node)) {
      execCall(*Call);
      return;
    }
    const auto *L = dynCast<Loop>(Node);
    assert(L && "unknown node kind");
    int64_t Lo = evalAffine(L->lower());
    int64_t Hi = evalAffine(L->upper());
    // Shadow, don't clobber: a nested loop may reuse an outer iterator
    // name (or a parameter name), and that binding must survive this loop.
    auto Previous = Vars.find(L->iterator());
    bool HadPrevious = Previous != Vars.end();
    int64_t PreviousValue = HadPrevious ? Previous->second : 0;
    for (int64_t I = Lo; I < Hi; I += L->step()) {
      Vars[L->iterator()] = I;
      for (const NodePtr &Child : L->body())
        execNode(Child);
    }
    if (HadPrevious)
      Vars[L->iterator()] = PreviousValue;
    else
      Vars.erase(L->iterator());
  }

  const Program &Prog;
  DataEnv &Env;
  ValueEnv Vars;
};

} // namespace

void daisy::interpretTreeWalk(const Program &Prog, DataEnv &Env) {
  InterpreterImpl(Prog, Env).run();
}

bool daisy::semanticallyEquivalent(const Program &A, const Program &B,
                                   double Eps, uint64_t Seed) {
  auto Run = [Seed](const Program &Prog) {
    DataEnv Env(Prog);
    Env.initDeterministic(Seed);
    ExecPlan::compile(Prog).run(Env);
    return Env;
  };
  return DataEnv::maxAbsDifference(Run(A), Run(B), A) <= Eps;
}

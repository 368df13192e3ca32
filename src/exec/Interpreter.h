//===- exec/Interpreter.h - Reference interpreter -----------------*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tree-walking interpreter defining the semantics of the loop-nest IR.
/// It is the ground truth for every transformation test: a transformation
/// is correct iff interpreting the transformed program produces the same
/// observable arrays as the original.
///
/// To run a program fast, compile it: Kernel::compile or Engine::compile
/// (api/) for the run-many handle, or ExecPlan::compile (exec/ExecPlan.h)
/// for a bare plan.
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_EXEC_INTERPRETER_H
#define DAISY_EXEC_INTERPRETER_H

#include "exec/DataEnv.h"
#include "ir/Program.h"

namespace daisy {

/// Executes \p Prog on \p Env with the tree-walking evaluator; Call nodes
/// run the reference BLAS kernels. This is the executable semantics
/// definition the compiled plan is differentially tested against, and
/// much slower than it.
void interpretTreeWalk(const Program &Prog, DataEnv &Env);

/// True if \p A and \p B compute the same observable arrays on a
/// deterministic input (tolerance \p Eps, seed \p Seed). Both programs
/// must declare the same non-transient arrays. Each program is compiled
/// with ExecPlan::compile (default options) and run once.
bool semanticallyEquivalent(const Program &A, const Program &B,
                            double Eps = 1e-9, uint64_t Seed = 1);

} // namespace daisy

#endif // DAISY_EXEC_INTERPRETER_H

//===- api/Kernel.cpp -----------------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
// Kernel::bind and the BoundArgs overload of run are defined in
// serve/BoundArgs.cpp, next to the BoundArgs class they return/consume —
// api stays free of upward includes (see api/KernelImpl.h).
//
//===----------------------------------------------------------------------===//

#include "api/Kernel.h"

#include "api/KernelImpl.h"

#include <cassert>
#include <stdexcept>

using namespace daisy;

Kernel Kernel::compile(const Program &Prog, const PlanOptions &Options) {
  return Kernel(std::make_shared<const KernelImpl>(Prog, Options));
}

Kernel Kernel::treeWalk(const Program &Prog) {
  return Kernel(
      std::make_shared<const KernelImpl>(KernelImpl::TreeWalkTag{}, Prog));
}

bool Kernel::isTreeWalk() const { return Impl && Impl->TreeWalk; }

bool Kernel::isExhausted() const { return Impl && Impl->Exhausted; }

size_t Kernel::memoryBytes() const {
  assert(Impl && "empty kernel handle");
  return Impl->memoryFootprint();
}

const Program &Kernel::program() const {
  assert(Impl && "empty kernel handle");
  return Impl->Prog;
}

const ExecPlan &Kernel::plan() const {
  assert(Impl && "empty kernel handle");
  return Impl->Plan;
}

size_t Kernel::contextPoolSize() const {
  assert(Impl && "empty kernel handle");
  return Impl->poolSize();
}

RunStatus Kernel::run(const ArgBinding &Args) const {
  assert(Impl && "empty kernel handle");
  // Validate before touching any state, then execute on the resolved
  // slot table (transient slots stay null and become pooled scratch).
  std::vector<BufferRef> Slots;
  if (std::string Error = resolveBinding(Impl->Prog, Args, Slots);
      !Error.empty())
    return {std::move(Error)};
  return runGuardedSlots(*Impl, Slots.data());
}

namespace {

/// Builds the slot table over \p Env's buffers, checked against \p Prog's
/// declarations: one buffer per declared array (transients included, so
/// the plan uses the environment's own scratch), each holding exactly the
/// declared element count. Returns an empty string on success, the
/// diagnostic otherwise.
std::string environmentSlots(const Program &Prog, DataEnv &Env,
                             std::vector<BufferRef> &Slots) {
  const std::vector<ArrayDecl> &Arrays = Prog.arrays();
  if (Env.slotCount() != Arrays.size())
    return "environment holds " + std::to_string(Env.slotCount()) +
           " buffers, kernel declares " + std::to_string(Arrays.size()) +
           " arrays";
  Slots.resize(Arrays.size());
  for (size_t S = 0; S < Arrays.size(); ++S) {
    std::vector<double> &Buf = Env.bufferAt(S);
    size_t Expected = boundElementCount(Arrays[S]);
    if (Buf.size() != Expected)
      return "array '" + Arrays[S].Name + "' shape mismatch: environment " +
             "holds " + std::to_string(Buf.size()) + " elements, declared " +
             std::to_string(Expected);
    Slots[S] = {Buf.data(), Buf.size()};
  }
  return {};
}

} // namespace

void Kernel::run(DataEnv &Env) const {
  assert(Impl && "empty kernel handle");
  std::vector<BufferRef> Slots;
  RunStatus Status;
  if (std::string Error = environmentSlots(Impl->Prog, Env, Slots);
      !Error.empty())
    Status = {std::move(Error)};
  else
    Status = runGuardedSlots(*Impl, Slots.data());
  if (!Status.ok())
    throw std::runtime_error(Status.Error);
}

DataEnv Kernel::run(uint64_t Seed) const {
  assert(Impl && "empty kernel handle");
  DataEnv Env(Impl->Prog);
  Env.initDeterministic(Seed);
  run(Env);
  return Env;
}

//===- sched/Evaluator.cpp ------------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sched/Evaluator.h"

#include "exec/ThreadPool.h"
#include "ir/StructuralHash.h"
#include "support/Hashing.h"
#include "support/Statistics.h"

#include <algorithm>

using namespace daisy;

uint64_t SimCache::keyFor(const Program &Prog, const SimOptions &Options) {
  HashCombiner D(0x73696D6B6579ull); // "simkey"
  D.combine(structuralHashWithMarks(Prog));
  D.combine(programDataDigest(Prog));
  D.combine(simOptionsDigest(Options));
  return D.value();
}

double SimCache::seconds(const Program &Prog, const SimOptions &Options) {
  uint64_t Key = keyFor(Prog, Options);
  std::unique_lock<std::mutex> Lock(Mutex);
  // A thread already walking this key computes the same value: wait for
  // its result instead of simulating again.
  Simulated.wait(Lock, [&] { return InFlight.count(Key) == 0; });
  auto It = Entries.find(Key);
  if (It != Entries.end()) {
    addStatsCounter("SimCache.Hits");
    return It->second;
  }
  InFlight.insert(Key);
  // Simulate outside the lock: the walk is the expensive part.
  Lock.unlock();
  addStatsCounter("SimCache.Misses");
  double Seconds = 0.0;
  try {
    Seconds = simulateProgram(Prog, Options).Seconds;
  } catch (...) {
    Lock.lock();
    InFlight.erase(Key); // A waiter takes the key over.
    Simulated.notify_all();
    throw;
  }
  Lock.lock();
  InFlight.erase(Key);
  Entries.emplace(Key, Seconds);
  Simulated.notify_all();
  return Seconds;
}

size_t SimCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Entries.size();
}

Evaluator::Evaluator(SimOptions Options, EvalConfig Config)
    : Options(std::move(Options)), Config(Config) {
  Threads = Config.NumThreads > 0 ? Config.NumThreads
                                  : ThreadPool::defaultThreadCount();
  if (Threads < 1)
    Threads = 1;
}

double Evaluator::programSeconds(const Program &Ctx) {
  addStatsCounter("Evaluator.Candidates");
  if (Config.EnableCache)
    return Cache.seconds(Ctx, Options);
  return simulateProgram(Ctx, Options).Seconds;
}

double Evaluator::recipeSeconds(const Program &Prog, size_t Index,
                                const Recipe &R) {
  // Shallow program copy: topLevel shares every sibling nest; arrays and
  // parameters are value-copied so applyRecipe may extend them freely.
  Program Ctx = Prog;
  Ctx.topLevel()[Index] = applyRecipe(R, Prog.topLevel()[Index], Ctx);
  return programSeconds(Ctx);
}

std::vector<double>
Evaluator::recipeSecondsBatch(const Program &Prog, size_t Index,
                              const std::vector<Recipe> &Recipes) {
  std::vector<double> Results(Recipes.size(), 0.0);
  size_t Count = Recipes.size();
  int Lanes = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(Threads), Count));
  if (Lanes <= 1) {
    for (size_t I = 0; I < Count; ++I)
      Results[I] = recipeSeconds(Prog, Index, Recipes[I]);
    return Results;
  }
  // One lane per requested thread: lane L scores candidates L, L+Lanes,
  // ... so concurrency is bounded by the evaluator's thread count, not the
  // (larger) pool size, and every result lands in its input slot. Each
  // score is deterministic and independent, so the partition does not
  // influence the values.
  addStatsCounter("Evaluator.Batches");
  ThreadPool::global().run(Lanes, [&](int Lane) {
    for (size_t I = static_cast<size_t>(Lane); I < Count;
         I += static_cast<size_t>(Lanes))
      Results[I] = recipeSeconds(Prog, Index, Recipes[I]);
  });
  return Results;
}

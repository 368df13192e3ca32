//===- sched/Evaluator.h - Memoized, parallel candidate scoring --*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The candidate-evaluation subsystem behind the scheduler searches.
///
/// Every MCTS rollout and every evolutionary mutation scores a candidate
/// recipe by applying it to one loop nest and walking the simulated
/// machine over the exact iteration space (machine/Simulator.h) — by far
/// the dominant cost of tuning. This header makes that path cheap along
/// two independent axes:
///
/// - SimCache memoizes simulateProgram results. The key is the
///   marks-aware structural hash of the transformed program (parallel /
///   vector marks change simulated cost, so the database's marks-blind
///   hash cannot key the cache), combined with a digest of the array
///   declarations, bound parameters, and SimOptions. Mutation operators
///   regenerate duplicate recipes constantly, and distinct recipes often
///   collapse to structurally identical nests (illegal steps are skipped,
///   self-swaps are no-ops), so duplicates cost a hash lookup instead of
///   a full cache-simulator walk. Hit/miss counts are exposed through the
///   support/Statistics counters "SimCache.Hits" / "SimCache.Misses".
///
/// - Evaluator::recipeSecondsBatch fans independent candidate scorings
///   over the persistent thread pool (exec/ThreadPool.h), with results
///   collected into their input slots. Candidate scoring draws no random
///   numbers and simulation is deterministic, so the scores — and every
///   search decision derived from them — are bit-identical at every
///   thread count, the same guarantee the parallel execution backend
///   established for program results.
///
/// Scoring clones nothing but the nest under evaluation: the untouched
/// sibling nests of the program are shared structurally (NodePtr is a
/// shared_ptr; simulation only reads), retiring the whole-program
/// Program::clone() the previous evaluateRecipe paid per candidate.
///
//===----------------------------------------------------------------------===//

#ifndef DAISY_SCHED_EVALUATOR_H
#define DAISY_SCHED_EVALUATOR_H

#include "machine/Simulator.h"
#include "sched/Recipe.h"

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

namespace daisy {

/// Memoization table for whole-program simulations. Thread-safe: batch
/// workers probe and fill it concurrently. Each key is simulated once: a
/// lookup of a key another thread is simulating waits for that result
/// (and counts as a hit) instead of repeating the walk, so the miss count
/// equals the number of distinct keys at every thread count.
class SimCache {
public:
  /// Cache key of simulating \p Prog under \p Options: marks-aware
  /// structural hash of the nests plus digests of array declarations,
  /// bound parameters, and the simulation options.
  static uint64_t keyFor(const Program &Prog, const SimOptions &Options);

  /// Memoized simulateProgram(Prog, Options).Seconds.
  double seconds(const Program &Prog, const SimOptions &Options);

  /// Number of distinct simulations stored.
  size_t size() const;

private:
  mutable std::mutex Mutex;
  std::condition_variable Simulated; ///< Signalled when a key completes.
  std::unordered_map<uint64_t, double> Entries;
  std::unordered_set<uint64_t> InFlight; ///< Keys being simulated.
};

/// Knobs of the evaluator.
struct EvalConfig {
  /// Number of candidates scored concurrently by the batch API. 1 scores
  /// serially on the calling thread; 0 resolves to
  /// ThreadPool::defaultThreadCount() (DAISY_THREADS or the hardware
  /// concurrency). Results are bit-identical for every value.
  int NumThreads = 0;
  /// Memoize simulations in the SimCache. Off forces every score through
  /// the full simulator walk (used by the benchmarks to isolate the two
  /// mechanisms and by the determinism tests as a differential baseline).
  bool EnableCache = true;
};

/// Scores candidate recipes against a fixed machine model. One Evaluator
/// is shared across a whole search (or a whole database seeding), so the
/// cache accumulates across epochs, nests, and programs.
class Evaluator {
public:
  explicit Evaluator(SimOptions Options, EvalConfig Config = {});

  const SimOptions &options() const { return Options; }

  /// Resolved batch concurrency (>= 1).
  int threadCount() const { return Threads; }

  /// Simulated runtime of \p Prog with recipe \p R applied to nest
  /// \p Index. Only the nest under evaluation is cloned (by applyRecipe);
  /// sibling nests are shared with \p Prog.
  double recipeSeconds(const Program &Prog, size_t Index, const Recipe &R);

  /// Scores every recipe of \p Recipes against nest \p Index, fanning the
  /// candidates over the thread pool. Results arrive in input order and
  /// are bit-identical to the serial path at every thread count.
  std::vector<double> recipeSecondsBatch(const Program &Prog, size_t Index,
                                         const std::vector<Recipe> &Recipes);

private:
  /// Scores an already-transformed program (cache or full simulation).
  double programSeconds(const Program &Ctx);

  SimOptions Options;
  EvalConfig Config;
  int Threads = 1;
  SimCache Cache;
};

} // namespace daisy

#endif // DAISY_SCHED_EVALUATOR_H

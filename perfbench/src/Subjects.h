//===- perfbench/src/Subjects.h - Optimized programs under test --*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Subject is one program of a workload: its source, the pipeline that
/// optimizes it, the optimized kernel, and the seeded inputs every timed
/// run starts from. The phases here are shared by all workloads: timed
/// cold optimization, timed serial runs, the tree-walk oracle, and the
/// traced per-layer passes.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SUBJECTS_H
#define PERFBENCH_SUBJECTS_H

#include "Bench.h"

namespace perfbench {

struct Subject {
  std::string Name;    ///< "gemm/A", "cloudsc/DaCe/recipe", ...
  std::string Group;   ///< Input group (see seededEnv).
  std::string Variant; ///< "A", "B" or "NPBench" for PolyBench; else "".
  std::shared_ptr<const daisy::Program> Source;
  /// Source to kernel, through the engine it is handed.
  std::function<daisy::Kernel(daisy::Engine &)> Optimize;

  daisy::Kernel K;
  /// Seeded inputs in the kernel's layout, and the environment timed runs
  /// execute on (restored from Pristine before each run).
  std::unique_ptr<daisy::DataEnv> Pristine, Env;
  std::vector<double> OptimizeUs, RunUs, TracedOptimizeUs, TracedRunUs;
};

/// Optimizes every subject once and allocates its seeded inputs; the last
/// step of every set-up.
void prepare(daisy::Engine &Eng, std::vector<Subject> &Subjects,
             uint64_t Seed);

/// Timed rounds until \p Seconds pass. Each round visits every subject
/// once: a cold Engine optimization (the plan cache is cleared before the
/// call, outside the timing), then a serial Kernel::run on freshly
/// restored inputs. Interleaving both timings over the whole window
/// exposes them to the same machine conditions. The last run's outputs
/// stay in each subject's Env for the oracle. Returns every run's time by
/// one-second window.
Windows timeRounds(daisy::Engine &Eng, std::vector<Subject> &Subjects,
                   double Seconds, bool Traced);

/// Checks every subject's last outputs against the tree-walk oracle:
/// within Tolerance of the source program's result, and bit-identical to
/// the scheduled program's result. PolyBench B and NPBench outputs must
/// also be within Tolerance of the A output of their kernel. One
/// operation per subject. Returns the mean tree-walk time of a source
/// program in ms.
double checkOutputs(std::vector<Subject> &Subjects, uint64_t Seed,
                    int Threads, Report &Out);

/// Geometric mean over subjects of their median timed optimize (ms) or
/// run (us).
double optimizeMsGeomean(const std::vector<Subject> &Subjects, bool Traced);
double runUsGeomean(const std::vector<Subject> &Subjects, bool Traced);

/// One note line per subject: median cold optimize and serial run.
void noteSubjects(const std::vector<Subject> &Subjects, Report &Out);

/// The latency metrics over the runs of the workload's mix, per window,
/// and the rate a serial caller sustains over whole rounds at the median
/// run times.
void runLatencyMetrics(const std::vector<Subject> &Subjects,
                       const Windows &Runs, Values &M);

/// The traced per-layer pass: recomposes the daisy schedule of every
/// distinct source from the layers' own entry points (normalize, idiom
/// detection, transfer lookup, recipe application, plan compile, run),
/// each wrapped in a Bench span, \p Rounds times. Checks the composed
/// schedule's marks-aware hash against Engine::schedule (one operation
/// per source) and fills the normalize/idiom/transfer/recipe/plan.compile
/// metrics.
void composeLayers(daisy::Engine &Eng, const std::vector<Subject> &Subjects,
                   int Rounds, uint64_t Seed, Report &Out, Values &M);

/// Reference figures over the subjects: simulated and measured speedup
/// over ClangScheduler, their rank agreement, 4-thread fork speedup, and
/// the run geomeans split by lifted call and by PolyBench variant.
void referenceFigures(const std::vector<Subject> &Subjects, uint64_t Seed,
                      Values &M);

/// The search.* metrics from the statistics counters of the last set-up
/// and the database it seeded.
void searchMetrics(double SeedS, daisy::Engine &Eng, Values &M);

/// Traced / untraced ratio of the timed optimize and run geomeans.
double traceOverhead(const std::vector<Subject> &Subjects);

} // namespace perfbench

#endif // PERFBENCH_SUBJECTS_H

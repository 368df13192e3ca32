//===- perfbench/src/Subjects.cpp -----------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Subjects.h"

#include "exec/Interpreter.h"
#include "ir/StructuralHash.h"
#include "machine/Simulator.h"
#include "normalize/Pipeline.h"
#include "obs/Trace.h"
#include "sched/Embedding.h"
#include "sched/Idiom.h"
#include "sched/Schedulers.h"
#include "support/Statistics.h"
#include "transform/Parallelize.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <set>

using namespace daisy;

namespace perfbench {

void prepare(Engine &Eng, std::vector<Subject> &Subjects, uint64_t Seed) {
  for (Subject &S : Subjects) {
    S.K = S.Optimize(Eng);
    S.Pristine = seededEnv(S.K.program(), Seed, S.Group);
    S.Env = std::make_unique<DataEnv>(S.K.program());
  }
}

Windows timeRounds(Engine &Eng, std::vector<Subject> &Subjects,
                   double Seconds, bool Traced) {
  Windows Runs(Seconds);
  Clock::time_point End =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Seconds));
  do {
    for (Subject &S : Subjects) {
      Eng.clearPlanCache();
      Clock::time_point Start = Clock::now();
      Kernel Cold = S.Optimize(Eng);
      (Traced ? S.TracedOptimizeUs : S.OptimizeUs).push_back(usSince(Start));
      restore(*S.Env, *S.Pristine);
      Start = Clock::now();
      S.K.run(*S.Env);
      double Us = usSince(Start);
      (Traced ? S.TracedRunUs : S.RunUs).push_back(Us);
      Runs.add(Us);
    }
  } while (Clock::now() < End);
  return Runs;
}

double checkOutputs(std::vector<Subject> &Subjects, uint64_t Seed,
                    int Threads, Report &Out) {
  // Tree-walk every distinct source once and every scheduled program once.
  std::vector<const Program *> Sources;
  std::map<const Program *, size_t> SourceIdx;
  for (const Subject &S : Subjects)
    if (SourceIdx.emplace(S.Source.get(), Sources.size()).second)
      Sources.push_back(S.Source.get());
  std::vector<std::unique_ptr<DataEnv>> SourceRef(Sources.size()),
      SchedRef(Subjects.size());
  std::vector<double> SourceMs(Sources.size());
  parallelFor(Sources.size() + Subjects.size(), Threads, [&](size_t I) {
    if (I < Sources.size()) {
      const Subject &Owner = *std::find_if(
          Subjects.begin(), Subjects.end(),
          [&](const Subject &S) { return S.Source.get() == Sources[I]; });
      SourceRef[I] = seededEnv(*Sources[I], Seed, Owner.Group);
      Clock::time_point Start = Clock::now();
      interpretTreeWalk(*Sources[I], *SourceRef[I]);
      SourceMs[I] = usSince(Start) / 1e3;
    } else {
      const Subject &S = Subjects[I - Sources.size()];
      SchedRef[I - Sources.size()] = std::make_unique<DataEnv>(*S.Pristine);
      interpretTreeWalk(S.K.program(), *SchedRef[I - Sources.size()]);
    }
  });

  std::map<std::string, const Subject *> VariantA;
  for (const Subject &S : Subjects)
    if (S.Variant == "A")
      VariantA[S.Group] = &S;
  for (size_t I = 0; I < Subjects.size(); ++I) {
    const Subject &S = Subjects[I];
    const Program &Src = *S.Source;
    double SrcErr =
        relativeError(*S.Env, *SourceRef[SourceIdx[&Src]], Src);
    bool Exact = sameBits(*S.Env, *SchedRef[I], S.K.program());
    bool Ok = SrcErr <= Tolerance && Exact;
    std::string Why = S.Name + ": error vs tree-walk of source " +
                      std::to_string(SrcErr) + ", bit-identical to " +
                      "tree-walk of schedule: " + (Exact ? "yes" : "no");
    if (S.Variant == "B" || S.Variant == "NPBench") {
      auto A = VariantA.find(S.Group);
      double VarErr = A == VariantA.end()
                          ? INFINITY
                          : relativeError(*S.Env, *A->second->Env,
                                          *A->second->Source);
      Ok = Ok && VarErr <= Tolerance;
      Why += ", error vs A output " + std::to_string(VarErr);
    }
    Out.operation(Ok, Why);
  }
  double Sum = 0;
  for (double Ms : SourceMs)
    Sum += Ms;
  return Sum / static_cast<double>(SourceMs.size());
}

double optimizeMsGeomean(const std::vector<Subject> &Subjects, bool Traced) {
  std::vector<double> Medians;
  for (const Subject &S : Subjects)
    Medians.push_back(median(Traced ? S.TracedOptimizeUs : S.OptimizeUs) /
                      1e3);
  return geometricMean(Medians);
}

double runUsGeomean(const std::vector<Subject> &Subjects, bool Traced) {
  std::vector<double> Medians;
  for (const Subject &S : Subjects)
    Medians.push_back(median(Traced ? S.TracedRunUs : S.RunUs));
  return geometricMean(Medians);
}

void noteSubjects(const std::vector<Subject> &Subjects, Report &Out) {
  for (const Subject &S : Subjects) {
    char Line[160];
    std::snprintf(Line, sizeof(Line),
                  "  %-22s optimize %9.3f ms  run %11.1f us  (%zu runs)%s",
                  S.Name.c_str(), median(S.OptimizeUs) / 1e3,
                  median(S.RunUs), S.RunUs.size(),
                  hasLiftedCall(S.K.program()) ? "  lifted" : "");
    Out.note(Line);
  }
}

void runLatencyMetrics(const std::vector<Subject> &Subjects,
                       const Windows &Runs, Values &M) {
  double RoundUs = 0;
  for (const Subject &S : Subjects)
    RoundUs += median(S.RunUs);
  M["throughput_rps"] = static_cast<double>(Subjects.size()) / (RoundUs / 1e6);
  M["latency_p50_us"] = Runs.p50();
  M["latency_p99_us"] = Runs.p99();
}

namespace {

struct LayerCounts {
  int64_t LoopsDistributed = 0, NestsPermuted = 0;
  int64_t Lifted = 0, TransferHits = 0, TransferDefaults = 0;
};

/// DaisyScheduler::schedule, spelled out over the layers' public entry
/// points with one Bench span per layer call.
Program composeSchedule(const Program &Prog, const TransferTuningDatabase &Db,
                        const DaisyOptions &Options, LayerCounts &Counts,
                        uint64_t &NormalizedHash) {
  NormalizationStats Stats;
  Program Result = [&] {
    TraceSpan Span(TraceCategory::Bench, "normalize");
    return normalize(Prog, {}, &Stats);
  }();
  NormalizedHash = structuralHash(Result);
  Counts.LoopsDistributed += Stats.Fission.LoopsDistributed;
  Counts.NestsPermuted += Stats.StrideMin.NestsPermuted;
  for (NodePtr &Node : Result.topLevel()) {
    if (Node->kind() != NodeKind::Loop)
      continue;
    if (dynCast<Loop>(Node)->isOpaque()) {
      TraceSpan Span(TraceCategory::Bench, "recipe");
      parallelizeWithAtomics(Node, Result.params(), &Result);
      continue;
    }
    std::optional<IdiomMatch> Match;
    {
      TraceSpan Span(TraceCategory::Bench, "idiom");
      Match = detectBlasIdiom(Node, Result, Options.Idioms);
    }
    if (Match) {
      Node = Match->Call;
      ++Counts.Lifted;
      continue;
    }
    const DatabaseEntry *Entry;
    {
      TraceSpan Span(TraceCategory::Bench, "transfer");
      Entry = Db.lookup(embedNest(Node, Result), structuralHash(Node),
                        Options.MaxTransferDistance);
    }
    ++(Entry ? Counts.TransferHits : Counts.TransferDefaults);
    TraceSpan Span(TraceCategory::Bench, "recipe");
    Node = applyRecipe(Entry ? Entry->Optimization
                             : Recipe::defaultParallelRecipe(),
                       Node, Result);
  }
  return Result;
}

std::vector<const Subject *> distinctSources(const std::vector<Subject> &Subs) {
  std::vector<const Subject *> Out;
  std::set<const Program *> Seen;
  for (const Subject &S : Subs)
    if (Seen.insert(S.Source.get()).second)
      Out.push_back(&S);
  return Out;
}

PlanOptions planThreads(int Threads) {
  PlanOptions Options;
  Options.NumThreads = Threads;
  return Options;
}

} // namespace

void composeLayers(Engine &Eng, const std::vector<Subject> &Subjects,
                   int Rounds, uint64_t Seed, Report &Out, Values &M) {
  std::vector<const Subject *> Sources = distinctSources(Subjects);
  DaisyOptions Options = TuneOptions().Daisy;
  LayerCounts Counts, Repeats;
  std::map<std::string, std::map<std::string, uint64_t>> Normalized;
  uint64_t Since = TraceRecorder::instance().nowNs();
  for (int Round = 0; Round < Rounds; ++Round) {
    for (const Subject *S : Sources) {
      uint64_t NormHash = 0;
      Program Composed =
          composeSchedule(*S->Source, Eng.database(), Options,
                          Round == 0 ? Counts : Repeats, NormHash);
      Kernel K;
      {
        TraceSpan Span(TraceCategory::Bench, "compile");
        K = Kernel::compile(Composed, planThreads(1));
      }
      if (Round == 0) {
        Normalized[S->Group][S->Variant] = NormHash;
        bool Same = structuralHashWithMarks(Composed) ==
                    structuralHashWithMarks(Eng.schedule(*S->Source));
        Out.operation(Same, S->Name + ": composed schedule hash " +
                                (Same ? "matches" : "differs from") +
                                " Engine::schedule");
      }
      std::unique_ptr<DataEnv> Inputs = seededEnv(Composed, Seed, S->Group);
      TraceSpan Span(TraceCategory::Bench, "run");
      K.run(*Inputs);
    }
  }
  std::map<std::string, double> Self = benchSelfTimeUs(Since);
  double Calls = static_cast<double>(Rounds * Sources.size());
  M["normalize.ms"] = Self["normalize"] / 1e3 / Calls;
  M["idiom.ms"] = Self["idiom"] / 1e3 / Calls;
  M["transfer.ms"] = Self["transfer"] / 1e3 / Calls;
  M["recipe.ms"] = Self["recipe"] / 1e3 / Calls;
  M["plan.compile_us"] = Self["compile"] / Calls;
  M["normalize.loops_distributed"] = static_cast<double>(Counts.LoopsDistributed);
  M["normalize.nests_permuted"] = static_cast<double>(Counts.NestsPermuted);
  M["idiom.lifted"] = static_cast<double>(Counts.Lifted);
  M["transfer.hits"] = static_cast<double>(Counts.TransferHits);
  M["transfer.defaults"] = static_cast<double>(Counts.TransferDefaults);
  // Only workloads with A and B variants of a kernel have these counts.
  for (auto &[Group, ByVariant] : Normalized) {
    (void)Group;
    if (!ByVariant.count("B"))
      continue;
    bool SameAB = ByVariant["A"] == ByVariant["B"];
    M["normalize.canonical_ab"] += SameAB;
    M["normalize.canonical_all"] += SameAB && ByVariant["NPBench"] == ByVariant["A"];
  }
}

void referenceFigures(const std::vector<Subject> &Subjects, uint64_t Seed,
                      Values &M) {
  constexpr int Reps = 5;
  SimOptions Sim;
  std::vector<double> SimMs;
  auto simulate = [&](const Program &P) {
    Clock::time_point Start = Clock::now();
    double Seconds = simulateProgram(P, Sim).Seconds;
    SimMs.push_back(usSince(Start) / 1e3);
    return Seconds;
  };
  // Median of Reps serial runs of each kernel, interleaved across kernels.
  auto measure = [&](const std::vector<std::pair<Kernel, DataEnv *>> &Runs) {
    std::vector<std::vector<double>> Us(Runs.size());
    for (int R = 0; R < Reps; ++R)
      for (size_t I = 0; I < Runs.size(); ++I) {
        std::unique_ptr<DataEnv> Env =
            std::make_unique<DataEnv>(*Runs[I].second);
        Clock::time_point Start = Clock::now();
        Runs[I].first.run(*Env);
        Us[I].push_back(usSince(Start));
      }
    std::vector<double> Medians;
    for (auto &V : Us)
      Medians.push_back(median(V));
    return Medians;
  };

  // ClangScheduler baseline of every distinct source.
  std::vector<const Subject *> Sources = distinctSources(Subjects);
  std::map<const Program *, size_t> SourceIdx;
  std::vector<std::pair<Kernel, DataEnv *>> ClangRuns;
  std::vector<std::unique_ptr<DataEnv>> ClangInputs;
  std::vector<double> ClangSim;
  for (const Subject *S : Sources) {
    SourceIdx[S->Source.get()] = ClangRuns.size();
    Program Clang = *ClangScheduler().schedule(*S->Source);
    ClangSim.push_back(simulate(Clang));
    ClangInputs.push_back(seededEnv(Clang, Seed, S->Group));
    ClangRuns.push_back({Kernel::compile(Clang, planThreads(1)),
                         ClangInputs.back().get()});
  }
  std::vector<double> ClangUs = measure(ClangRuns);

  // The daisy kernels at 1 and at 4 threads, interleaved.
  std::vector<std::pair<Kernel, DataEnv *>> ForkRuns;
  std::vector<double> DaisySim;
  for (const Subject &S : Subjects) {
    DaisySim.push_back(simulate(S.K.program()));
    ForkRuns.push_back({S.K, S.Pristine.get()});
    ForkRuns.push_back(
        {Kernel::compile(S.K.program(), planThreads(4)), S.Pristine.get()});
  }
  std::vector<double> ForkUs = measure(ForkRuns);

  std::vector<double> SimSpeedup, RunSpeedup, ForkSpeedup, SimAll, RunAll;
  std::vector<double> Blas, Interp;
  std::map<std::string, std::vector<double>> ByVariant;
  for (size_t I = 0; I < Subjects.size(); ++I) {
    const Subject &S = Subjects[I];
    size_t C = SourceIdx[S.Source.get()];
    double Us = median(S.RunUs);
    SimSpeedup.push_back(ClangSim[C] / DaisySim[I]);
    RunSpeedup.push_back(ClangUs[C] / Us);
    ForkSpeedup.push_back(ForkUs[2 * I] / ForkUs[2 * I + 1]);
    SimAll.push_back(DaisySim[I]);
    RunAll.push_back(Us);
    (hasLiftedCall(S.K.program()) ? Blas : Interp).push_back(Us);
    if (!S.Variant.empty())
      ByVariant[S.Variant].push_back(Us);
  }
  for (size_t C = 0; C < ClangSim.size(); ++C) {
    SimAll.push_back(ClangSim[C]);
    RunAll.push_back(ClangUs[C]);
  }
  M["sim.ms"] = median(SimMs);
  M["sim.speedup_x"] = geometricMean(SimSpeedup);
  M["sim.kendall_tau"] = kendallTau(SimAll, RunAll);
  M["baseline.clang_run_us"] = geometricMean(ClangUs);
  M["baseline.speedup_x"] = geometricMean(RunSpeedup);
  M["exec.fork_speedup_x"] = geometricMean(ForkSpeedup);
  M["plan.run_interp_us"] = geometricMean(Interp);
  if (!Blas.empty())
    M["plan.run_blas_us"] = geometricMean(Blas);
  for (auto &[Variant, Us] : ByVariant) {
    std::string Key = Variant;
    std::transform(Key.begin(), Key.end(), Key.begin(), ::tolower);
    M["plan.run_" + Key + "_us"] = geometricMean(Us);
  }
}

void searchMetrics(double SeedS, Engine &Eng, Values &M) {
  int64_t Hits = statsCounter("SimCache.Hits");
  int64_t Misses = statsCounter("SimCache.Misses");
  M["search.seed_s"] = SeedS;
  M["search.candidates"] =
      static_cast<double>(statsCounter("Evaluator.Candidates"));
  M["search.simulations"] = static_cast<double>(Misses);
  M["search.sim_hit_ratio"] =
      Hits + Misses ? static_cast<double>(Hits) / (Hits + Misses) : 0.0;
  M["search.db_entries"] = static_cast<double>(Eng.database().size());
}

double traceOverhead(const std::vector<Subject> &Subjects) {
  return std::sqrt(optimizeMsGeomean(Subjects, true) /
                   optimizeMsGeomean(Subjects, false) *
                   runUsGeomean(Subjects, true) /
                   runUsGeomean(Subjects, false));
}

} // namespace perfbench

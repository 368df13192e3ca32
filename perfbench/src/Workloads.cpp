//===- perfbench/src/Workloads.cpp - polybench and cloudsc ----------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The two compiler workloads share one shape: set up an engine (seeding
// its database where the workload has one), optimize every program once,
// then time cold optimization and serial runs, check the last outputs
// against the tree-walk oracle, and, in the traced run, add the
// per-layer passes and reference figures.
//
//===----------------------------------------------------------------------===//

#include "Subjects.h"

#include "cloudsc/Cloudsc.h"
#include "frontends/PolyBench.h"
#include "obs/Trace.h"
#include "support/Statistics.h"

using namespace daisy;

namespace perfbench {

namespace {

using BuildFn = std::function<std::vector<Subject>()>;
using SeedFn = std::function<void(Engine &, const std::vector<Subject> &)>;

void runCompilerWorkload(const RunConfig &Config, int Setups,
                         const BuildFn &Build, const SeedFn &Seed,
                         Report &Out, Values &M) {
  TraceRecorder &Recorder = TraceRecorder::instance();
  std::unique_ptr<Engine> Eng;
  std::vector<Subject> Subjects;
  std::vector<double> SetupS, BuildMs, SeedS;
  int64_t Compiles = 0, CacheHits = 0;
  for (int I = 0; I < Setups; ++I) {
    Subjects.clear();
    Eng.reset();
    resetStatsCounters();
    Clock::time_point Start = Clock::now();
    Eng = std::make_unique<Engine>(serialEngineOptions());
    {
      TraceSpan Span(TraceCategory::Bench, "frontends");
      Clock::time_point BuildStart = Clock::now();
      Subjects = Build();
      BuildMs.push_back(usSince(BuildStart) / 1e3);
    }
    if (Seed) {
      TraceSpan Span(TraceCategory::Bench, "search.seed");
      Clock::time_point SeedStart = Clock::now();
      Seed(*Eng, Subjects);
      SeedS.push_back(usSince(SeedStart) / 1e6);
    }
    int64_t CompilesBefore = statsCounter("Engine.PlanCompiles");
    int64_t HitsBefore = statsCounter("Engine.PlanCacheHits");
    prepare(*Eng, Subjects, Config.Seed);
    SetupS.push_back(usSince(Start) / 1e6);
    Compiles = statsCounter("Engine.PlanCompiles") - CompilesBefore;
    CacheHits = statsCounter("Engine.PlanCacheHits") - HitsBefore;
  }

  // The traced run times half the window untraced and half traced: the
  // ratio is the tracing overhead the program's own spans add.
  if (Config.Trace)
    Recorder.disable();
  Windows Runs = timeRounds(*Eng, Subjects,
                            Config.Trace ? Config.Seconds / 2 : Config.Seconds,
                            false);
  if (Config.Trace) {
    Recorder.enable();
    timeRounds(*Eng, Subjects, Config.Seconds / 2, true);
  }
  M["peak_rss_mb"] = peakRssMb();

  // The traced run keeps the oracle serial so its tree-walk time is a
  // clean single-thread figure.
  double TreeWalkMs =
      checkOutputs(Subjects, Config.Seed, Config.Trace ? 1 : 4, Out);

  M["setup_s"] = median(SetupS);
  M["optimize_ms"] = optimizeMsGeomean(Subjects, false);
  M["run_us"] = runUsGeomean(Subjects, false);
  runLatencyMetrics(Subjects, Runs, M);
  Out.note("programs " + std::to_string(Subjects.size()) + ", set-ups " +
           std::to_string(SetupS.size()) + ", timed rounds " +
           std::to_string(Subjects.front().RunUs.size()) +
           ", latency samples " + std::to_string(Runs.samples()) + " in " +
           std::to_string(Runs.count()) + " one-second windows");
  noteSubjects(Subjects, Out);
  if (!Config.Trace)
    return;

  M["frontends.build_ms"] = median(BuildMs);
  if (Seed)
    searchMetrics(median(SeedS), *Eng, M);
  M["engine.plan_compiles"] = static_cast<double>(Compiles);
  M["engine.plan_cache_hits"] = static_cast<double>(CacheHits);
  M["exec.treewalk_ms"] = TreeWalkMs;
  M["obs.trace_overhead_x"] = traceOverhead(Subjects);
  composeLayers(*Eng, Subjects, 3, Config.Seed, Out, M);
  referenceFigures(Subjects, Config.Seed, M);
}

std::string variantName(VariantKind V) {
  switch (V) {
  case VariantKind::A:
    return "A";
  case VariantKind::B:
    return "B";
  case VariantKind::NPBench:
    return "NPBench";
  }
  return "?";
}

} // namespace

void runPolybench(const RunConfig &Config, Report &Out, Values &M) {
  BuildFn Build = [] {
    std::vector<Subject> Subjects;
    for (PolyBenchKernel Kernel : allPolyBenchKernels())
      for (VariantKind V :
           {VariantKind::A, VariantKind::B, VariantKind::NPBench}) {
        Subject S;
        S.Group = polyBenchName(Kernel);
        S.Variant = variantName(V);
        S.Name = S.Group + "/" + S.Variant;
        S.Source = std::make_shared<const Program>(buildPolyBench(Kernel, V));
        const Program *Src = S.Source.get();
        S.Optimize = [Src](Engine &Eng) { return Eng.optimize(*Src); };
        Subjects.push_back(std::move(S));
      }
    return Subjects;
  };
  SeedFn Seed = [](Engine &Eng, const std::vector<Subject> &Subjects) {
    TuneOptions Tune = seedingTuneOptions();
    for (const Subject &S : Subjects)
      if (S.Variant == "A")
        Eng.seedDatabase(*S.Source, Tune);
  };
  runCompilerWorkload(Config, Config.Trace ? 1 : 2, Build, Seed, Out, M);
}

void runCloudsc(const RunConfig &Config, Report &Out, Values &M) {
  BuildFn Build = [] {
    std::vector<Subject> Subjects;
    const std::pair<CloudscVariant, const char *> Variants[] = {
        {CloudscVariant::Fortran, "Fortran"},
        {CloudscVariant::C, "C"},
        {CloudscVariant::DaCe, "DaCe"}};
    for (const auto &[V, Name] : Variants) {
      auto Source =
          std::make_shared<const Program>(buildCloudsc(CloudscConfig(), V));
      const Program *Src = Source.get();
      Subject Engine, Recipe;
      Engine.Name = std::string("cloudsc/") + Name + "/engine";
      Engine.Optimize = [Src](daisy::Engine &Eng) {
        return Eng.optimize(*Src);
      };
      Recipe.Name = std::string("cloudsc/") + Name + "/recipe";
      Recipe.Optimize = [Src](daisy::Engine &Eng) {
        return Eng.compile(optimizeCloudsc(*Src));
      };
      for (Subject *S : {&Engine, &Recipe}) {
        S->Group = "cloudsc";
        S->Source = Source;
        Subjects.push_back(std::move(*S));
      }
    }
    return Subjects;
  };
  runCompilerWorkload(Config, Config.Trace ? 1 : 5, Build, nullptr, Out, M);
}

} // namespace perfbench

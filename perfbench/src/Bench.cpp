//===- perfbench/src/Bench.cpp --------------------------------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "obs/Trace.h"
#include "support/Hashing.h"
#include "support/Random.h"
#include "support/Statistics.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <thread>

using namespace daisy;

namespace perfbench {

const std::vector<MetricSpec> EndToEndMetrics = {
    {"setup_s", "s"},         {"run_us", "us"},      {"throughput_rps", "1/s"},
    {"latency_p50_us", "us"}, {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> UngatedEndToEnd = {
    {"optimize_ms", "ms"},
    {"latency_p99_us", "us"},
};

const std::vector<MetricSpec> PerLayerMetrics = {
    {"frontends.build_ms", "ms"},
    {"normalize.ms", "ms"},
    {"normalize.loops_distributed", "count"},
    {"normalize.nests_permuted", "count"},
    {"idiom.ms", "ms"},
    {"idiom.lifted", "count"},
    {"transfer.ms", "ms"},
    {"transfer.hits", "count"},
    {"transfer.defaults", "count"},
    {"recipe.ms", "ms"},
    {"search.candidates", "count"},
    {"search.simulations", "count"},
    {"search.sim_hit_ratio", "ratio"},
    {"search.db_entries", "count"},
    {"sim.ms", "ms"},
    {"sim.speedup_x", "x"},
    {"sim.kendall_tau", "tau"},
    {"plan.compile_us", "us"},
    {"plan.run_interp_us", "us"},
    {"exec.treewalk_ms", "ms"},
    {"exec.fork_speedup_x", "x"},
    {"baseline.clang_run_us", "us"},
    {"baseline.speedup_x", "x"},
    {"engine.plan_compiles", "count"},
    {"engine.plan_cache_hits", "count"},
    {"serve.queue_wait_share", "ratio"},
    {"serve.batch_wait_share", "ratio"},
    {"serve.run_share", "ratio"},
    {"serve.batched_share", "ratio"},
    {"serve.context_affinity_hits", "count"},
    {"obs.trace_overhead_x", "x"},
};

const std::vector<MetricSpec> PerLayerNotes = {
    {"search.seed_s", "s"},
    {"normalize.canonical_ab", "count"},
    {"normalize.canonical_all", "count"},
    {"plan.run_blas_us", "us"},
    {"plan.run_a_us", "us"},
    {"plan.run_b_us", "us"},
    {"plan.run_npbench_us", "us"},
    {"serve.queue_wait_p50_us", "us"},
    {"serve.queue_wait_p99_us", "us"},
    {"serve.batch_wait_p50_us", "us"},
    {"serve.run_p50_us", "us"},
    {"serve.client_restore_us", "us"},
};

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  Metrics.push_back({Name, {Value, Unit}});
}

void Report::operation(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    note("FAILED: " + What);
  }
}

void Report::print() const {
  for (const std::string &Line : Notes)
    std::printf("%s\n", Line.c_str());
  bool Finite = true;
  std::string Json = "{\"correct\": ";
  std::string Body;
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const auto &[Name, VU] = Metrics[I];
    double V = VU.first;
    if (!std::isfinite(V)) {
      Finite = false;
      V = 0.0;
    }
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    Body += (I ? ", \"" : "\"") + Name + "\": {\"value\": " + Buf +
            ", \"unit\": \"" + VU.second + "\"}";
  }
  Json += (Failed == 0 && Finite) ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Attempted) +
          ", \"failed\": " + std::to_string(Failed) + ", \"metrics\": {" +
          Body + "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
}

double quantileOf(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * Values.size()));
  return Values[std::min(Values.size() - 1, Rank ? Rank - 1 : 0)];
}

double kendallTau(const std::vector<double> &X, const std::vector<double> &Y) {
  double Concordant = 0, Discordant = 0, TiesX = 0, TiesY = 0;
  for (size_t I = 0; I < X.size(); ++I)
    for (size_t J = I + 1; J < X.size(); ++J) {
      double DX = X[I] - X[J], DY = Y[I] - Y[J];
      if (DX == 0 && DY == 0)
        continue;
      if (DX == 0)
        ++TiesX;
      else if (DY == 0)
        ++TiesY;
      else if ((DX > 0) == (DY > 0))
        ++Concordant;
      else
        ++Discordant;
    }
  double Denom = std::sqrt((Concordant + Discordant + TiesX) *
                           (Concordant + Discordant + TiesY));
  return Denom > 0 ? (Concordant - Discordant) / Denom : 0.0;
}

Windows::Windows(double Seconds)
    : Start(Clock::now()),
      Summaries(std::max<size_t>(1, static_cast<size_t>(Seconds))) {}

Windows::Summary Windows::summarize(const std::vector<double> &Samples) {
  return {static_cast<double>(Samples.size()), quantileOf(Samples, 0.50),
          quantileOf(Samples, 0.99)};
}

void Windows::add(double Us) {
  size_t Window = static_cast<size_t>(usSince(Start) / 1e6);
  if (Window >= Summaries.size())
    return;
  if (Window != Current) {
    Summaries[Current] = summarize(Open);
    Open.clear();
    Current = Window;
  }
  Open.push_back(Us);
}

double Windows::overWindows(double Summary::*Field) const {
  std::vector<double> PerWindow;
  for (size_t W = 0; W <= Current; ++W)
    PerWindow.push_back(W == Current ? summarize(Open).*Field
                                     : Summaries[W].*Field);
  return median(PerWindow);
}

size_t Windows::samples() const {
  size_t N = Open.size();
  for (size_t W = 0; W < Summaries.size(); ++W)
    if (W != Current)
      N += static_cast<size_t>(Summaries[W].Count);
  return N;
}

double peakRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

std::unique_ptr<DataEnv> seededEnv(const Program &Prog, uint64_t Seed,
                                   const std::string &Group) {
  auto Env = std::make_unique<DataEnv>(Prog);
  for (const ArrayDecl &Decl : Prog.arrays()) {
    if (Decl.Transient)
      continue;
    Rng Values(deriveSeed(deriveSeed(Seed, fnv1a(Group)), fnv1a(Decl.Name)));
    for (double &V : Env->buffer(Decl.Name))
      V = Values.nextDouble();
  }
  return Env;
}

void restore(DataEnv &To, const DataEnv &From) {
  for (size_t Slot = 0; Slot < To.slotCount(); ++Slot) {
    const std::vector<double> &Src = From.bufferAt(Slot);
    std::memcpy(To.bufferAt(Slot).data(), Src.data(),
                Src.size() * sizeof(double));
  }
}

double relativeError(const DataEnv &Got, const DataEnv &Want,
                     const Program &Ref) {
  double Worst = 0.0;
  for (const ArrayDecl &Decl : Ref.arrays()) {
    if (Decl.Transient)
      continue;
    if (!Got.contains(Decl.Name) || !Want.contains(Decl.Name))
      return std::numeric_limits<double>::infinity();
    const std::vector<double> &G = Got.buffer(Decl.Name);
    const std::vector<double> &W = Want.buffer(Decl.Name);
    if (G.size() != W.size())
      return std::numeric_limits<double>::infinity();
    for (size_t I = 0; I < G.size(); ++I) {
      double Err = std::fabs(G[I] - W[I]) / std::max(1.0, std::fabs(W[I]));
      if (!(Err <= Worst)) // NaN propagates as a failure.
        Worst = std::isnan(Err) ? std::numeric_limits<double>::infinity()
                                : Err;
    }
  }
  return Worst;
}

bool sameBits(const DataEnv &Got, const DataEnv &Want, const Program &Ref) {
  for (const ArrayDecl &Decl : Ref.arrays()) {
    if (Decl.Transient)
      continue;
    if (!Got.contains(Decl.Name) || !Want.contains(Decl.Name))
      return false;
    const std::vector<double> &G = Got.buffer(Decl.Name);
    const std::vector<double> &W = Want.buffer(Decl.Name);
    if (G.size() != W.size() ||
        std::memcmp(G.data(), W.data(), G.size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

bool hasLiftedCall(const Program &Prog) {
  for (const NodePtr &Node : Prog.topLevel())
    if (Node->kind() == NodeKind::Call)
      return true;
  return false;
}

EngineOptions serialEngineOptions() {
  EngineOptions Options;
  Options.Plan.NumThreads = 1;
  Options.Eval.NumThreads = 1;
  return Options;
}

TuneOptions seedingTuneOptions() {
  TuneOptions Tune;
  Tune.Budget.MctsRollouts = 24;
  Tune.Budget.PopulationSize = 4;
  Tune.Budget.IterationsPerEpoch = 2;
  Tune.Budget.Epochs = 3;
  return Tune;
}

void parallelFor(size_t N, int Threads,
                 const std::function<void(size_t)> &Fn) {
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < N;)
      Fn(I);
  };
  std::vector<std::thread> Pool;
  for (int T = 1; T < Threads; ++T)
    Pool.emplace_back(Worker);
  Worker();
  for (std::thread &T : Pool)
    T.join();
}

std::map<std::string, double> benchSelfTimeUs(uint64_t SinceNs) {
  struct Open {
    uint16_t Name;
    TraceCategory Category;
    uint64_t Start;
    uint64_t ChildNs;
  };
  std::map<uint32_t, std::vector<Open>> Stacks; // Per thread.
  std::map<std::string, double> Self;
  for (const TraceEvent &E : TraceRecorder::instance().snapshot()) {
    if (E.StartNs < SinceNs)
      continue;
    std::vector<Open> &Stack = Stacks[E.Tid];
    if (E.Phase == TracePhase::Begin) {
      Stack.push_back({E.NameId, E.Category, E.StartNs, 0});
    } else if (E.Phase == TracePhase::End && !Stack.empty()) {
      Open O = Stack.back();
      Stack.pop_back();
      uint64_t Dur = E.StartNs - O.Start;
      if (!Stack.empty())
        Stack.back().ChildNs += Dur;
      if (O.Category == TraceCategory::Bench)
        Self[traceNameOf(O.Name)] += (Dur - std::min(Dur, O.ChildNs)) / 1e3;
    }
  }
  return Self;
}

} // namespace perfbench

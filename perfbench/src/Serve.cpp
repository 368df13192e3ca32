//===- perfbench/src/Serve.cpp - closed-loop serving workload -------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// A closed loop through serve::Server: one client thread keeps a fixed
// number of requests in flight over two worker lanes. Requests draw their
// kernel from a seeded generator over the optimized A variants of the
// short-running PolyBench kernels, so the pipeline runs only in set-up
// and every request is a plan-cache-free run on prepared arguments; the
// time goes to queue wait, batch wait, worker wake-ups and short runs.
//
//===----------------------------------------------------------------------===//

#include "Subjects.h"

#include "exec/Interpreter.h"
#include "frontends/PolyBench.h"
#include "obs/Trace.h"
#include "serve/Server.h"
#include "support/Random.h"
#include "support/Statistics.h"

#include <cmath>
#include <cstring>
#include <thread>

using namespace daisy;
using serve::Server;

namespace perfbench {

namespace {

constexpr int Workers = 2;
constexpr size_t InFlight = 8;
/// Trace events a served request emits while the recorder is on: the
/// submit instant and the request, queue-wait, batch-wait and run spans.
constexpr uint64_t EventsPerRequest = 5;
/// Ring cells kept free for what is recorded after the traced serving
/// window: the per-layer pass and the spans of the trace check.
constexpr uint64_t TraceReserve = 1 << 16;

const PolyBenchKernel Served[] = {
    PolyBenchKernel::Gemm,    PolyBenchKernel::Syrk,
    PolyBenchKernel::Syr2k,   PolyBenchKernel::TwoMM,
    PolyBenchKernel::Atax,    PolyBenchKernel::Bicg,
    PolyBenchKernel::Mvt,     PolyBenchKernel::Gesummv,
    PolyBenchKernel::Jacobi2d, PolyBenchKernel::Covariance};

/// One in-flight request position of the client: caller-owned buffers for
/// every served kernel, bound once, restored before each submit.
struct Slot {
  std::vector<std::vector<std::vector<double>>> Buffers; ///< [kernel][array]
  std::vector<BoundArgs> Bound;                          ///< [kernel]
  size_t Kernel = 0;
  std::future<RunStatus> Done;
  Clock::time_point Submitted;
  bool Active = false;
};

/// Observable arrays of a kernel's program, in declaration order.
std::vector<const ArrayDecl *> observable(const Program &Prog) {
  std::vector<const ArrayDecl *> Out;
  for (const ArrayDecl &Decl : Prog.arrays())
    if (!Decl.Transient)
      Out.push_back(&Decl);
  return Out;
}

void bindSlot(Slot &S, const std::vector<Subject> &Subjects) {
  S.Buffers.resize(Subjects.size());
  for (size_t K = 0; K < Subjects.size(); ++K) {
    ArgBinding Args;
    for (const ArrayDecl *Decl : observable(Subjects[K].K.program()))
      S.Buffers[K].push_back(Subjects[K].Pristine->buffer(Decl->Name));
    std::vector<const ArrayDecl *> Arrays = observable(Subjects[K].K.program());
    for (size_t A = 0; A < Arrays.size(); ++A)
      Args.bind(Arrays[A]->Name, S.Buffers[K][A]);
    S.Bound.push_back(Subjects[K].K.bind(Args));
  }
}

struct WindowResult {
  Windows Latency;
  Windows RestoreUs;
  bool EndedEarly = false; ///< Stopped at the event limit.
};

/// Serves for \p Seconds (whole seconds, at least one), then lets the
/// requests in flight finish. Every completed request's outputs are
/// compared bit for bit with the tree-walk result of its kernel's program
/// on the same inputs. A nonzero \p EventLimit ends the window early once
/// the requests in flight could take the recorder's lifetime event count
/// past it, so a fast machine cannot wrap the ring over set-up's spans.
WindowResult serveWindow(Server &Srv, std::vector<Slot> &Slots,
                         const std::vector<Subject> &Subjects,
                         const std::vector<std::unique_ptr<DataEnv>> &Expected,
                         Rng &Mix, double Seconds, uint64_t EventLimit,
                         Report &Out) {
  const TraceRecorder &Recorder = TraceRecorder::instance();
  WindowResult R{Windows(Seconds), Windows(Seconds)};
  auto submit = [&](Slot &S) {
    S.Kernel = static_cast<size_t>(Mix.nextBelow(Subjects.size()));
    Clock::time_point RestoreStart = Clock::now();
    const DataEnv &Inputs = *Subjects[S.Kernel].Pristine;
    std::vector<const ArrayDecl *> Arrays =
        observable(Subjects[S.Kernel].K.program());
    for (size_t A = 0; A < Arrays.size(); ++A) {
      const std::vector<double> &Src = Inputs.buffer(Arrays[A]->Name);
      std::memcpy(S.Buffers[S.Kernel][A].data(), Src.data(),
                  Src.size() * sizeof(double));
    }
    R.RestoreUs.add(usSince(RestoreStart));
    S.Active = true;
    S.Submitted = Clock::now();
    S.Done = Srv.submit(Subjects[S.Kernel].K, S.Bound[S.Kernel]);
  };
  auto check = [&](Slot &S, const RunStatus &Status) {
    const Subject &Sub = Subjects[S.Kernel];
    std::vector<const ArrayDecl *> Arrays = observable(Sub.K.program());
    bool Ok = Status.ok();
    for (size_t A = 0; Ok && A < Arrays.size(); ++A) {
      const std::vector<double> &Want =
          Expected[S.Kernel]->buffer(Arrays[A]->Name);
      Ok = std::memcmp(S.Buffers[S.Kernel][A].data(), Want.data(),
                       Want.size() * sizeof(double)) == 0;
    }
    Out.operation(Ok, "request on " + Sub.Name + ": " +
                          (Status.ok() ? "outputs differ from tree-walk"
                                       : Status.Error));
  };

  Clock::time_point End =
      Clock::now() + std::chrono::seconds(R.Latency.count());
  for (Slot &S : Slots)
    submit(S);
  std::vector<Slot *> Ready;
  for (size_t Active = Slots.size(); Active;) {
    // Stamp every ready request first, then do the client work for them,
    // so one request's check does not count in another's latency.
    Ready.clear();
    for (Slot &S : Slots)
      if (S.Active &&
          S.Done.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        R.Latency.add(usSince(S.Submitted));
        Ready.push_back(&S);
      }
    if (Ready.empty()) {
      std::this_thread::yield();
      continue;
    }
    if (EventLimit && Recorder.emittedCount() +
                              Slots.size() * EventsPerRequest >=
                          EventLimit)
      R.EndedEarly = true;
    bool More = Clock::now() < End && !R.EndedEarly;
    for (Slot *S : Ready) {
      check(*S, S->Done.get());
      S->Active = false;
      if (More)
        submit(*S);
      else
        --Active;
    }
  }
  return R;
}

} // namespace

void runServe(const RunConfig &Config, Report &Out, Values &M) {
  TraceRecorder &Recorder = TraceRecorder::instance();
  std::unique_ptr<Server> Srv;
  std::vector<Subject> Subjects;
  std::vector<Slot> Slots;
  std::vector<double> SetupS, BuildMs, SeedS;
  int64_t Compiles = 0, CacheHits = 0;
  for (int I = 0, Setups = Config.Trace ? 1 : 2; I < Setups; ++I) {
    Slots.clear();
    Subjects.clear();
    Srv.reset();
    resetStatsCounters();
    Clock::time_point Start = Clock::now();
    serve::ServerOptions Options;
    Options.Workers = Workers;
    Options.Engine = serialEngineOptions();
    Srv = std::make_unique<Server>(Options);
    Server *S = Srv.get();
    {
      TraceSpan Span(TraceCategory::Bench, "frontends");
      Clock::time_point BuildStart = Clock::now();
      for (PolyBenchKernel Kernel : Served) {
        Subject Sub;
        Sub.Group = polyBenchName(Kernel);
        Sub.Variant = "A";
        Sub.Name = Sub.Group + "/A";
        Sub.Source = std::make_shared<const Program>(
            buildPolyBench(Kernel, VariantKind::A));
        const Program *Src = Sub.Source.get();
        Sub.Optimize = [S, Src](Engine &) { return S->optimize(*Src); };
        Subjects.push_back(std::move(Sub));
      }
      BuildMs.push_back(usSince(BuildStart) / 1e3);
    }
    {
      TraceSpan Span(TraceCategory::Bench, "search.seed");
      Clock::time_point SeedStart = Clock::now();
      TuneOptions Tune = seedingTuneOptions();
      for (const Subject &Sub : Subjects)
        S->shardFor(*Sub.Source).seedDatabase(*Sub.Source, Tune);
      SeedS.push_back(usSince(SeedStart) / 1e6);
    }
    int64_t CompilesBefore = statsCounter("Engine.PlanCompiles");
    int64_t HitsBefore = statsCounter("Engine.PlanCacheHits");
    prepare(S->shard(0), Subjects, Config.Seed);
    Slots.resize(InFlight);
    for (Slot &Sl : Slots)
      bindSlot(Sl, Subjects);
    SetupS.push_back(usSince(Start) / 1e6);
    Compiles = statsCounter("Engine.PlanCompiles") - CompilesBefore;
    CacheHits = statsCounter("Engine.PlanCacheHits") - HitsBefore;
  }
  for (Slot &Sl : Slots)
    for (const BoundArgs &B : Sl.Bound)
      if (!B.ok()) {
        Out.operation(false, "binding: " + B.error());
        return;
      }

  // The oracle every request is compared with: the tree-walk result of
  // each served program on the inputs its requests are restored to.
  std::vector<std::unique_ptr<DataEnv>> Expected(Subjects.size());
  parallelFor(Subjects.size(), 4, [&](size_t K) {
    Expected[K] = std::make_unique<DataEnv>(*Subjects[K].Pristine);
    interpretTreeWalk(Subjects[K].K.program(), *Expected[K]);
  });

  Engine &Shard = Srv->shard(0);
  Rng Mix(deriveSeed(Config.Seed, 0x5E47Eull));
  // Three tenths of the window time cold optimization and serial runs of
  // the served programs with the server idle; the rest serves.
  double RoundsS = 0.3 * Config.Seconds;
  double ServeS = Config.Seconds - RoundsS;
  if (Config.Trace) {
    Recorder.disable();
    RoundsS /= 2;
    ServeS /= 2;
  }
  timeRounds(Shard, Subjects, RoundsS, false);
  WindowResult Untraced =
      serveWindow(*Srv, Slots, Subjects, Expected, Mix, ServeS, 0, Out);
  WindowResult Traced{Windows(0), Windows(0)};
  if (Config.Trace) {
    Recorder.enable();
    timeRounds(Shard, Subjects, RoundsS, true);
    uint64_t EventLimit = Recorder.capacity() - TraceReserve;
    Traced = serveWindow(*Srv, Slots, Subjects, Expected, Mix, ServeS,
                         EventLimit, Out);
    if (Traced.EndedEarly)
      Out.note("traced serving ended early at the trace event budget");
  }
  M["peak_rss_mb"] = peakRssMb();
  double TreeWalkMs =
      checkOutputs(Subjects, Config.Seed, Config.Trace ? 1 : 4, Out);

  double Rps = Untraced.Latency.perSecond();
  double P50 = Untraced.Latency.p50();
  M["setup_s"] = median(SetupS);
  M["optimize_ms"] = optimizeMsGeomean(Subjects, false);
  M["run_us"] = runUsGeomean(Subjects, false);
  M["throughput_rps"] = Rps;
  M["latency_p50_us"] = P50;
  M["latency_p99_us"] = Untraced.Latency.p99();
  Out.note("served requests " + std::to_string(Untraced.Latency.samples()) +
           " in " + std::to_string(Untraced.Latency.count()) +
           " one-second windows, workers " + std::to_string(Workers) +
           ", in flight " + std::to_string(InFlight) + ", set-ups " +
           std::to_string(SetupS.size()));
  noteSubjects(Subjects, Out);
  if (!Config.Trace)
    return;

  M["frontends.build_ms"] = median(BuildMs);
  searchMetrics(median(SeedS), Shard, M);
  M["engine.plan_compiles"] = static_cast<double>(Compiles);
  M["engine.plan_cache_hits"] = static_cast<double>(CacheHits);
  M["exec.treewalk_ms"] = TreeWalkMs;
  using Stage = Server::Stage;
  M["serve.queue_wait_p50_us"] = Srv->stageQuantileUs(Stage::QueueWait, 0.5);
  M["serve.queue_wait_p99_us"] = Srv->stageQuantileUs(Stage::QueueWait, 0.99);
  M["serve.batch_wait_p50_us"] = Srv->stageQuantileUs(Stage::BatchWait, 0.5);
  M["serve.run_p50_us"] = Srv->stageQuantileUs(Stage::Run, 0.5);
  // Each stage's share of the summed sojourn: what latency is made of.
  double SojournUs = Srv->latencySumUs();
  M["serve.queue_wait_share"] = Srv->stageSumUs(Stage::QueueWait) / SojournUs;
  M["serve.batch_wait_share"] = Srv->stageSumUs(Stage::BatchWait) / SojournUs;
  M["serve.run_share"] = Srv->stageSumUs(Stage::Run) / SojournUs;
  int64_t Completed = statsCounter("Serve.Completed");
  M["serve.batched_share"] =
      Completed ? static_cast<double>(statsCounter("Serve.BatchedRuns")) /
                      static_cast<double>(Completed)
                : 0.0;
  M["serve.context_affinity_hits"] =
      static_cast<double>(statsCounter("Serve.ContextAffinityHits"));
  M["serve.client_restore_us"] = Untraced.RestoreUs.p50();
  M["obs.trace_overhead_x"] =
      std::sqrt(Traced.Latency.p50() / P50 * Rps /
                Traced.Latency.perSecond());
  composeLayers(Shard, Subjects, 3, Config.Seed, Out, M);
  referenceFigures(Subjects, Config.Seed, M);
}

} // namespace perfbench

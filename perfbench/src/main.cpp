//===- perfbench/src/main.cpp - Benchmark command line ---------------------==//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload polybench|cloudsc|serve --seed N --seconds S
//           --trace 0|1 [--trace-out PATH]
//
// Prints human-readable notes, then one JSON object as the last line:
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run, which also writes a Chrome trace to PATH), plus the number of
// verified operations attempted and failed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "obs/Trace.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

using namespace perfbench;

namespace {

/// Flight-recorder cells of a traced run (40 bytes each).
constexpr size_t TraceCapacity = 1 << 20;

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "polybench|cloudsc|serve --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n",
               Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Config;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Value = Argv[I + 1];
    if (Flag == "--workload")
      Config.Workload = Value;
    else if (Flag == "--seed")
      Config.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      Config.Seconds = std::strtod(Value.c_str(), nullptr);
    else if (Flag == "--trace")
      Config.Trace = Value != "0";
    else if (Flag == "--trace-out")
      Config.TracePath = Value;
    else
      return usage(("unknown flag " + Flag).c_str());
  }
  if (Argc % 2 == 0)
    return usage("flags take one value each");
  if (!(Config.Seconds > 0))
    return usage("--seconds must be positive");

  void (*Run)(const RunConfig &, Report &, Values &) = nullptr;
  if (Config.Workload == "polybench")
    Run = runPolybench;
  else if (Config.Workload == "cloudsc")
    Run = runCloudsc;
  else if (Config.Workload == "serve")
    Run = runServe;
  else
    return usage("unknown workload");

  daisy::TraceRecorder &Recorder = daisy::TraceRecorder::instance();
  if (Config.Trace)
    Recorder.enable(TraceCapacity);
  Report Out;
  Values Metrics;
  try {
    Run(Config, Out, Metrics);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }

  if (Config.Trace) {
    Recorder.disable();
    // A wrapped ring has overwritten set-up's spans: the trace would lack
    // layers for a reason that is the benchmark's, not the program's.
    Out.operation(Recorder.emittedCount() <= Recorder.capacity(),
                  "the trace ring wrapped: " +
                      std::to_string(Recorder.emittedCount()) +
                      " events in " + std::to_string(Recorder.capacity()) +
                      " cells");
    Out.operation(Recorder.dumpTrace(Config.TracePath),
                  "writing the trace to " + Config.TracePath);
    // Layers a workload does not exercise report 0.
    for (const MetricSpec &Spec : PerLayerMetrics)
      Out.metric(Spec.Name, Metrics[Spec.Name], Spec.Unit);
    for (const MetricSpec &Spec : PerLayerNotes)
      if (Metrics.count(Spec.Name))
        Out.note("  " + std::string(Spec.Name) + " = " +
                 std::to_string(Metrics[Spec.Name]) + " " + Spec.Unit);
  } else {
    for (const MetricSpec &Spec : EndToEndMetrics) {
      if (!Metrics.count(Spec.Name) || !(Metrics[Spec.Name] > 0)) {
        std::fprintf(stderr, "perfbench: no measurement of %s\n", Spec.Name);
        return 1;
      }
      Out.metric(Spec.Name, Metrics[Spec.Name], Spec.Unit);
    }
    for (const MetricSpec &Spec : UngatedEndToEnd)
      Out.note(std::string(Spec.Name) + " = " +
               std::to_string(Metrics[Spec.Name]) + " " + Spec.Unit +
               " (not gated)");
  }
  Out.print();
  return 0;
}

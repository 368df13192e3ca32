//===- perfbench/src/Bench.h - Shared benchmark harness ----------*- C++ -*-=//
//
// Part of the daisy project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types and helpers shared by the three benchmark workloads: the result
/// record printed as the final JSON line, order statistics, seeded
/// inputs with restore, the tree-walk output comparisons, peak RSS, and
/// per-layer self time from the flight-recorder trace.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "api/Engine.h"
#include "exec/DataEnv.h"
#include "ir/Program.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Wall-clock microseconds from \p Start to now.
inline double usSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - Start)
      .count();
}

/// Command-line settings of one run.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Where the traced run writes its Chrome trace.
  std::string TracePath = "perfbench-trace.json";
};

/// Everything a run prints: metrics in insertion order, plus the
/// operation accounting.
struct Report {
  int64_t Attempted = 0;
  int64_t Failed = 0;
  std::vector<std::string> Notes; ///< Human-readable lines, printed first.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;

  void metric(const std::string &Name, double Value, const std::string &Unit);
  void note(const std::string &Line) { Notes.push_back(Line); }
  /// One verified operation; \p Ok false counts it failed.
  void operation(bool Ok, const std::string &What);
  /// Prints the notes, then the result object as the last line.
  void print() const;
};

/// Nearest-rank quantile (0 <= Q <= 1); 0 for an empty sample.
double quantileOf(std::vector<double> Values, double Q);
/// Kendall rank correlation (tau-b) between two equally long samples.
double kendallTau(const std::vector<double> &X, const std::vector<double> &Y);

/// Samples bucketed by the one-second window they completed in. Each
/// window is summarized (count, median, p99) when the next one begins, so
/// memory stays one window's worth however many samples arrive. A figure
/// is the median over windows, so a burst of interference from outside
/// the process skews one window, not the figure.
class Windows {
public:
  /// Windows of one second each, as many as whole seconds in \p Seconds
  /// (at least one), starting now.
  explicit Windows(double Seconds);
  /// Records a sample completed now; past the last window it is dropped.
  void add(double Us);
  /// Medians below are over the windows begun so far: a caller that stops
  /// early is not charged the empty windows it never reached.
  /// Median over windows of each window's median and p99.
  double p50() const { return overWindows(&Summary::P50); }
  double p99() const { return overWindows(&Summary::P99); }
  /// Median over windows of the samples each window holds: a rate per
  /// second.
  double perSecond() const { return overWindows(&Summary::Count); }
  size_t samples() const;
  size_t count() const { return Summaries.size(); }

private:
  struct Summary {
    double Count = 0, P50 = 0, P99 = 0;
  };
  static Summary summarize(const std::vector<double> &Samples);
  double overWindows(double Summary::*Field) const;

  Clock::time_point Start;
  std::vector<Summary> Summaries;
  size_t Current = 0;           ///< Window the open samples belong to.
  std::vector<double> Open;     ///< Samples of window Current.
};

/// getrusage high-water resident set of this process, in MB.
double peakRssMb();

/// An environment for \p Prog whose observable arrays hold values drawn
/// from (\p Seed, \p Group, array name); transients are zero. Programs of
/// one \p Group that declare an array of the same name get the same
/// values, which is what lets variants be compared with each other.
std::unique_ptr<daisy::DataEnv> seededEnv(const daisy::Program &Prog,
                                          uint64_t Seed,
                                          const std::string &Group);

/// Copies every buffer of \p From into \p To (same program layout).
void restore(daisy::DataEnv &To, const daisy::DataEnv &From);

/// Largest |a - b| / max(1, |b|) over the observable arrays of \p Ref
/// that both environments hold; infinity when one of them is missing.
double relativeError(const daisy::DataEnv &Got, const daisy::DataEnv &Want,
                     const daisy::Program &Ref);

/// True when every observable array of \p Ref is bit-identical in both.
bool sameBits(const daisy::DataEnv &Got, const daisy::DataEnv &Want,
              const daisy::Program &Ref);

/// Tolerance of the checks that compare across reassociating rewrites
/// (BLAS lifting, variant reorderings): relativeError must not exceed it.
constexpr double Tolerance = 1e-9;

/// True when a top-level node of \p Prog is a lifted library call.
bool hasLiftedCall(const daisy::Program &Prog);

/// Engine configuration every workload uses: serial plans and serial
/// candidate scoring, whatever DAISY_THREADS or the hardware says.
daisy::EngineOptions serialEngineOptions();

/// The search budget the database is seeded with (the figure benches').
daisy::TuneOptions seedingTuneOptions();

/// Runs \p Fn(I) for I in [0, N) on \p Threads threads.
void parallelFor(size_t N, int Threads, const std::function<void(size_t)> &Fn);

/// Sums per-span self time (span duration minus the time its child spans
/// cover, any category) by span name, over Bench-category spans that
/// began at or after \p SinceNs.
std::map<std::string, double> benchSelfTimeUs(uint64_t SinceNs);

/// Metric values by name. A workload fills the end-to-end metrics in an
/// untraced run and the per-layer metrics in a traced one.
using Values = std::map<std::string, double>;

struct MetricSpec {
  const char *Name;
  const char *Unit;
};
/// The metrics BENCHMARK.json declares, in its order.
extern const std::vector<MetricSpec> EndToEndMetrics;
/// End-to-end figures every untraced run prints as notes, because they
/// move with the machine beyond the largest allowed bound.
extern const std::vector<MetricSpec> UngatedEndToEnd;
extern const std::vector<MetricSpec> PerLayerMetrics;
/// Per-layer figures that only some workloads produce (a time that reads
/// 0 elsewhere, or a histogram bucket). The traced run prints them as
/// notes, where present, instead of as metrics.
extern const std::vector<MetricSpec> PerLayerNotes;

/// Workload entry points.
void runPolybench(const RunConfig &Config, Report &Out, Values &Metrics);
void runCloudsc(const RunConfig &Config, Report &Out, Values &Metrics);
void runServe(const RunConfig &Config, Report &Out, Values &Metrics);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H

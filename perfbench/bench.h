//===- bench.h - Shared pieces of the repository benchmark ------*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark drives the an5d pipeline only through public functions
/// of src/ modules. Each workload fills a Record: end-to-end metrics on an
/// untraced run, per-layer metrics on a traced run (spans recorded by the
/// benchmark around each call into a layer, see LayerSpan). main.cpp prints
/// the record and writes it, with the host context, under the output
/// directory.
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_PERFBENCH_BENCH_H
#define AN5D_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since an arbitrary origin.
inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> Values);
double geomean(const std::vector<double> &Values);

/// One reported metric value with its unit and the samples behind it.
struct MetricValue {
  double Value = 0;
  std::string Unit;
  std::size_t Samples = 0; ///< 0 for counts and derived values.
};

/// The outcome of one workload run.
struct Record {
  long long Attempted = 0;
  long long Failed = 0;
  std::map<std::string, MetricValue> Metrics;
  /// Free-form lines (per-row tables, cache assertions) for the log.
  std::vector<std::string> Notes;

  void set(const std::string &Name, double Value, const std::string &Unit,
           std::size_t Samples = 0) {
    Metrics[Name] = {Value, Unit, Samples};
  }
  /// Adds \p Delta to a per-layer accumulator (created at zero).
  void add(const std::string &Name, double Delta, const std::string &Unit) {
    MetricValue &M = Metrics[Name];
    M.Unit = Unit;
    M.Value += Delta;
  }
  /// Counts one attempted operation; \p Ok false counts it as failed.
  void attempt(bool Ok, const std::string &What);
  void note(std::string Line) { Notes.push_back(std::move(Line)); }
};

/// Host roof measured in the same run (Williams, Waterman & Patterson,
/// CACM 2009): STREAM-triad bandwidth on the kernel thread count and a
/// one-core multiply-add rate. Zero when the probe could not run.
struct HostRoof {
  double TriadGBs = 0;
  double TriadArrayMiB = 0;
  double LlcMiB = 0; ///< Last-level cache size; 0 if unknown.
  /// The triad arrays span at least twice the last-level cache, so
  /// TriadGBs is a memory roof; otherwise it is a cache-level one.
  bool PastLlc = false;
  double MulAddGflops = 0;
};

HostRoof measureHostRoof(int Threads);

/// CPU model, core count, cache sizes and load average, as JSON members.
std::string hostContextJson();
std::string loadAverage();

/// Sets peak_rss_mb from the process high-water mark. Workloads call it
/// after their first round, so the figure covers set-up plus a fixed
/// amount of work rather than growing with the time box.
void recordPeakRss(Record &Out);

/// Settings shared by every workload.
struct Context {
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Kernel OpenMP pool, compile workers and simulated sweep threads.
  int Threads = 1;
  /// Private scratch directory for kernel caches, removed at exit.
  std::string WorkDir;
  /// Where traces and the run record are written.
  std::string OutDir;
  HostRoof Roof;
};

/// Benchmark-side spans around the calls into each layer. They are
/// appended to obs::TraceRecorder::global() without enabling it, so the
/// spans inside src/ stay off, and written with its Chrome trace export
/// (loads in Perfetto).
class LayerSpan {
public:
  /// Starts timing; the span is recorded on close() only if \p Record.
  LayerSpan(bool Record, std::string Name)
      : Record(Record), Name(std::move(Name)), Start(nowSeconds()) {}
  LayerSpan(const LayerSpan &) = delete;
  LayerSpan &operator=(const LayerSpan &) = delete;
  ~LayerSpan() { close(); }
  /// Ends the span now; returns its duration in seconds.
  double close();

private:
  bool Record;
  std::string Name;
  double Start;
  double Elapsed = -1;
};

/// Records a span timed elsewhere (e.g. on a worker thread, added after
/// the join) on trace lane \p Lane.
void recordSpan(std::string Name, double Start, double Seconds, unsigned Lane);

/// Writes every recorded span to \p Path as Chrome trace-event JSON.
void writeTrace(const std::string &Path);

/// \p Text as a quoted, escaped JSON string.
std::string jsonString(const std::string &Text);

/// One stencil of the front-half generator.
struct GeneratedStencil {
  std::string Name;
  std::string Source;
  bool IsFloat = true;
};

/// The seeded C-source generator: a fixed stratified set of shapes
/// (star, box, Jacobi-like) x dimensionality 1-3 x radius 1-4 (1-2 for
/// 3D box and Jacobi-like) x element type, 64 stencils, with every
/// coefficient and the Jacobi-like tap subsets drawn from \p Seed.
std::vector<GeneratedStencil> generateStencils(std::uint64_t Seed);

/// The run_native kernel row labels, in report order.
const std::vector<std::string> &nativeKernelLabels();

void runNative(const Context &Ctx, Record &Out);
void tuneCold(const Context &Ctx, Record &Out);
void tuneWarm(const Context &Ctx, Record &Out);
/// Per-layer metrics of the in-process front half (frontend, model,
/// schedule, analysis, sim) on the generated stencils, for traced runs.
void frontHalfLayers(const Context &Ctx, Record &Out);

} // namespace perfbench

#endif // AN5D_PERFBENCH_BENCH_H

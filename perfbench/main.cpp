//===- main.cpp - Repository benchmark program ----------------------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
//   an5d_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR
//
// Runs one workload in this process and prints, as the last line of
// stdout, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. A table of
// every metric with its unit and sample count goes to stderr; the full
// record, stamped with the host context and the same-run roof, is written
// to DIR/record-<workload>-seed<N>-trace<T>.json. perfbench/run.py builds
// this program and is the documented entry point.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "runtime/NativeCompiler.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unistd.h>

using namespace perfbench;

namespace {

using MetricList = std::vector<std::pair<std::string, std::string>>;

/// End-to-end metric names and units, the set every untraced run reports.
const MetricList &endToEndMetrics() {
  static const MetricList Names = {
      {"setup_s", "s"}, {"op_ms", "ms"}, {"peak_rss_mb", "MB"}};
  return Names;
}

/// Per-layer metric names and units, the set every traced run reports.
const MetricList &perLayerMetrics() {
  static const MetricList Names = [] {
    MetricList N = {
        {"frontend.extract_ms", "ms"},
        {"model.rank_ms", "ms"},
        {"model.configs_ranked", "count"},
        {"schedule.lower_ms", "ms"},
        {"analysis.gate_ms", "ms"},
        {"analysis.rejections", "count"},
        {"sim.simulate_ms", "ms"},
        {"codegen.emit_ms", "ms"},
        {"codegen.source_kb", "KiB"},
        {"runtime.probe_ms", "ms"},
        {"runtime.compile_s", "s"},
        {"runtime.compiles", "count"},
        {"runtime.cache_lookup_ms", "ms"},
        {"runtime.cache_hit_ratio", "ratio"},
        {"runtime.load_ms", "ms"},
        {"runtime.measure_ms", "ms"},
        {"tuning.candidates", "count"},
        {"tuning.measure_failures", "count"},
        {"tuning.wall_ms", "ms"},
        {"tuning.layer_sum_ms", "ms"},
        {"tuning.unattributed_ms", "ms"},
        {"tuning.winner_gcells_per_s", "Gcells/s"},
        {"host.triad_gbs", "GB/s"},
        {"host.muladd_gflops", "GFLOP/s"},
        {"bench.trace_overhead_ms", "ms"},
    };
    for (const std::string &K : nativeKernelLabels()) {
      N.push_back({"runtime.run_ms." + K, "ms"});
      N.push_back({"runtime.gcells_per_s." + K, "Gcells/s"});
      N.push_back({"runtime.pct_bw_roof." + K, "%"});
      N.push_back({"runtime.subnormal_cells." + K, "count"});
    }
    return N;
  }();
  return Names;
}

int usage(const char *Message) {
  std::fprintf(stderr,
               "an5d_perfbench: %s\nusage: an5d_perfbench --workload "
               "run_native|tune_cold|tune_warm --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n",
               Message);
  return 2;
}

/// Keeps the run private: no ambient kernel cache, compiler override,
/// lint/trace switch or OpenMP pool size leaks in, and every temporary
/// file (compiler probes, compiler scratch) lands under \p WorkDir.
void isolateEnvironment(const std::string &WorkDir) {
  for (const char *Name :
       {"OMP_NUM_THREADS", "OMP_PROC_BIND", "OMP_PLACES", "GOMP_CPU_AFFINITY",
        "AN5D_KERNEL_CACHE", "AN5D_KERNEL_CACHE_MAX_MB", "AN5D_CXX",
        "AN5D_KERNEL_SANITIZE", "AN5D_LINT_KERNELS", "AN5D_TRACE",
        "AN5D_METRICS"})
    unsetenv(Name);
  std::string Tmp = WorkDir + "/tmp";
  std::filesystem::create_directories(Tmp);
  setenv("TMPDIR", Tmp.c_str(), 1);
  setenv("HOME", WorkDir.c_str(), 1);
}

std::string number(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload, WorkDir;
  Context Ctx;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Value = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      Workload = Value;
    } else if (Flag == "--seed") {
      Ctx.Seed = std::strtoull(Value.c_str(), &End, 10);
      HaveSeed = *End == 0 && !Value.empty();
    } else if (Flag == "--seconds") {
      Ctx.Seconds = std::strtod(Value.c_str(), &End);
      HaveSeconds = *End == 0 && Ctx.Seconds > 0;
    } else if (Flag == "--trace") {
      HaveTrace = Value == "0" || Value == "1";
      Ctx.Trace = Value == "1";
    } else if (Flag == "--work-dir") {
      WorkDir = Value;
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }
  void (*Run)(const Context &, Record &) =
      Workload == "run_native"   ? runNative
      : Workload == "tune_cold"  ? tuneCold
      : Workload == "tune_warm"  ? tuneWarm
                                 : nullptr;
  if (!Run || !HaveSeed || !HaveSeconds || !HaveTrace || WorkDir.empty())
    return usage("missing or invalid arguments");

  // Kernel pool, compile workers and simulated sweep: pinned to four
  // threads, never above nproc.
  int Nproc = static_cast<int>(std::thread::hardware_concurrency());
  Ctx.Threads = std::max(1, std::min(4, Nproc));
  Ctx.OutDir = WorkDir;
  Ctx.WorkDir = WorkDir + "/scratch-" + std::to_string(getpid());
  std::filesystem::create_directories(Ctx.WorkDir);
  isolateEnvironment(Ctx.WorkDir);

  std::string LoadStart = loadAverage();
  Ctx.Roof = measureHostRoof(Ctx.Threads);
  Record Out;
  Run(Ctx, Out);
  Out.set("host.triad_gbs", Ctx.Roof.TriadGBs, "GB/s");
  Out.set("host.muladd_gflops", Ctx.Roof.MulAddGflops, "GFLOP/s");
  std::string LoadEnd = loadAverage();
  std::filesystem::remove_all(Ctx.WorkDir);

  // The reported set: every end-to-end metric untraced, every per-layer
  // metric traced. A per-layer metric the workload does not exercise
  // reads 0; a missing end-to-end metric means its rows all failed.
  const auto &Reported = Ctx.Trace ? perLayerMetrics() : endToEndMetrics();
  bool Complete = true;
  std::string Metrics;
  for (const auto &[Name, Unit] : Reported) {
    auto It = Out.Metrics.find(Name);
    if (It == Out.Metrics.end()) {
      if (!Ctx.Trace) {
        Complete = false;
        std::fprintf(stderr, "perfbench: no value for %s\n", Name.c_str());
        continue;
      }
      It = Out.Metrics.insert({Name, {0, Unit, 0}}).first;
    }
    Metrics += std::string(Metrics.empty() ? "" : ", ") + "\"" + Name +
               "\": {\"value\": " + number(It->second.Value) +
               ", \"unit\": \"" + Unit + "\"}";
  }
  bool Correct = Complete && Out.Failed == 0 && Out.Attempted > 0;

  // Human-readable table: every metric by name, unit and sample count.
  std::fprintf(stderr, "== %s seed=%llu trace=%d threads=%d\n",
               Workload.c_str(), static_cast<unsigned long long>(Ctx.Seed),
               Ctx.Trace ? 1 : 0, Ctx.Threads);
  for (const std::string &Note : Out.Notes)
    std::fprintf(stderr, "  %s\n", Note.c_str());
  for (const auto &[Name, M] : Out.Metrics)
    std::fprintf(stderr, "  %-36s %14.6g %-9s%s\n", Name.c_str(), M.Value,
                 M.Unit.c_str(),
                 M.Samples ? (" n=" + std::to_string(M.Samples)).c_str() : "");
  double FailedRatio =
      Out.Attempted ? static_cast<double>(Out.Failed) / Out.Attempted : 1.0;
  std::fprintf(stderr, "  %-36s %14.6g (%lld of %lld operations)\n",
               "failed_ratio", FailedRatio, Out.Failed, Out.Attempted);

  // The record: host context, same-run roof, seed and every metric.
  std::ostringstream Record;
  Record << "{\"workload\": " << jsonString(Workload)
         << ", \"seed\": " << Ctx.Seed << ", \"trace\": " << (Ctx.Trace ? 1 : 0)
         << ", \"seconds\": " << number(Ctx.Seconds)
         << ", \"threads\": " << Ctx.Threads << ",\n \"host\": {"
         << hostContextJson()
         << ", \"loadavg_start\": " << jsonString(LoadStart)
         << ", \"loadavg_end\": " << jsonString(LoadEnd) << ", \"compiler\": "
         << jsonString(an5d::NativeCompiler().fingerprint({}))
         << "},\n \"roof\": {\"triad_gbs\": " << number(Ctx.Roof.TriadGBs)
         << ", \"triad_array_mib\": " << number(Ctx.Roof.TriadArrayMiB)
         << ", \"llc_mib\": " << number(Ctx.Roof.LlcMiB)
         << ", \"triad_level\": \""
         << (Ctx.Roof.PastLlc ? "memory" : "cache") << "\""
         << ", \"muladd_gflops_1core\": " << number(Ctx.Roof.MulAddGflops)
         << ", \"bytes_per_cell\": \"computed: 2 * element size / bT\"},\n"
         << " \"failed_ratio\": " << number(FailedRatio)
         << ",\n \"metrics\": {";
  bool First = true;
  for (const auto &[Name, M] : Out.Metrics) {
    Record << (First ? "\n  " : ",\n  ") << "\"" << Name
           << "\": {\"value\": " << number(M.Value) << ", \"unit\": \""
           << M.Unit << "\", \"samples\": " << M.Samples << "}";
    First = false;
  }
  Record << "\n }}\n";
  std::ofstream(Ctx.OutDir + "/record-" + Workload + "-seed" +
                std::to_string(Ctx.Seed) + "-trace" +
                (Ctx.Trace ? "1" : "0") + ".json")
      << Record.str();

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              Correct ? "true" : "false", Out.Attempted, Out.Failed,
              Metrics.c_str());
  return 0;
}

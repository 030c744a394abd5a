//===- workloads.cpp - The benchmark workloads ----------------------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// run_native  times NativeExecutor::run on a fixed kernel set.
// tune_cold   times Tuner::tune (Native backend) against empty caches.
// tune_warm   times Tuner::tune (Native backend) against a filled cache.
//
// Untraced runs report the end-to-end metrics. Traced runs (--trace 1)
// report the per-layer metrics: they re-drive each operation through the
// layers' public functions with a span around every call, and take the
// untraced wall time of the same operation in the same run to attribute
// it. The traced run_native ends with a front-half pass (parse to pick on
// generated stencils, Simulated backend) for the layers no native workload
// reaches. Every output is checked against the reference executor outside
// the timed regions; a mismatch fails the row and drops its timing.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "analysis/ScheduleVerifier.h"
#include "analysis/passes/AnalysisPass.h"
#include "analysis/passes/ResourceEstimator.h"
#include "codegen/CppCodegen.h"
#include "frontend/StencilExtractor.h"
#include "model/GpuSpec.h"
#include "obs/Metrics.h"
#include "runtime/KernelCache.h"
#include "runtime/NativeCompiler.h"
#include "runtime/NativeExecutor.h"
#include "runtime/NativeMeasurement.h"
#include "schedule/ScheduleIR.h"
#include "sim/BlockedExecutor.h"
#include "sim/Grid.h"
#include "sim/ReferenceExecutor.h"
#include "stencils/Benchmarks.h"
#include "support/Diagnostic.h"
#include "tuning/ParallelSweep.h"
#include "tuning/Tuner.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string_view>
#include <thread>

namespace perfbench {

using namespace an5d;
namespace fs = std::filesystem;

namespace {

/// Set-up repetitions per run; setup_s is their median.
constexpr int SetupRepeats = 3;

/// A private, empty directory under the run's work directory.
std::string freshDir(const Context &Ctx, const std::string &Tag) {
  static int Counter = 0;
  fs::path Dir =
      fs::path(Ctx.WorkDir) / (Tag + "-" + std::to_string(Counter++));
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  return Dir.string();
}

long long cacheCounter(const char *Name) {
  return obs::MetricsRegistry::global().counterValue(Name);
}

/// Kernel-cache hit/miss/failure counters, read before and after an
/// operation to assert what it did to the cache.
struct CacheCounts {
  long long Hits = cacheCounter("kernel_cache.hits");
  long long Misses = cacheCounter("kernel_cache.misses");
  long long Failures = cacheCounter("kernel_cache.failures");
  CacheCounts since(const CacheCounts &Before) const {
    CacheCounts D = *this;
    D.Hits -= Before.Hits;
    D.Misses -= Before.Misses;
    D.Failures -= Before.Failures;
    return D;
  }
};

template <typename T> long long subnormalCells(const Grid<T> &G) {
  long long Count = 0;
  for (T V : G.raw())
    Count += std::fpclassify(V) == FP_SUBNORMAL;
  return Count;
}

template <typename T> bool sameBits(const Grid<T> &A, const Grid<T> &B) {
  return A.size() == B.size() &&
         std::memcmp(A.data(), B.data(), A.size() * sizeof(T)) == 0;
}

/// Extents that cover more than one block along every blocked axis and
/// more than one hS chunk along the streaming axis of \p Config.
std::vector<long long> checkExtents(const BlockConfig &Config, int NumDims) {
  long long Stream = Config.HS > 0 ? Config.HS + 9 : 61;
  std::vector<long long> Extents = {Stream};
  for (int B : Config.BS)
    Extents.push_back(B + 13);
  if (NumDims == 1)
    Extents = {Config.HS > 0 ? 2 * Config.HS + 37 : 333};
  return Extents;
}

/// Runs \p Step on a seeded grid and on a copy advanced by referenceRun;
/// true when the results agree bit for bit.
template <typename T, typename StepFn>
bool matchesReference(const StencilProgram &Program,
                      const std::vector<long long> &Extents, long long Steps,
                      std::uint64_t Seed, StepFn &&Step) {
  Grid<T> R0(Extents, Program.radius());
  fillGridDeterministic(R0, Seed);
  Grid<T> R1 = R0, X0 = R0, X1 = R0;
  referenceRun<T>(Program, {&R0, &R1}, Steps);
  Step(X0, X1, Steps);
  return Steps % 2 ? sameBits(R1, X1) : sameBits(R0, X0);
}

bool nativeMatchesReference(const StencilProgram &Program,
                            const NativeExecutor &Executor,
                            const BlockConfig &Config, std::uint64_t Seed) {
  std::vector<long long> Extents = checkExtents(Config, Program.numDims());
  long long Steps = 2 * Config.BT + 1; // two full temporal blocks + a tail
  auto Run = [&](auto &X0, auto &X1, long long N) {
    using T = typename std::decay_t<decltype(X0.raw())>::value_type;
    Executor.run<T>({&X0, &X1}, N);
  };
  return Program.elemType() == ScalarType::Float
             ? matchesReference<float>(Program, Extents, Steps, Seed, Run)
             : matchesReference<double>(Program, Extents, Steps, Seed, Run);
}

bool emulatorMatchesReference(const StencilProgram &Program,
                              const ScheduleIR &Schedule, std::uint64_t Seed) {
  std::vector<long long> Extents =
      checkExtents(Schedule.Config, Program.numDims());
  long long Steps = Schedule.Config.BT + 1; // one full block + a tail
  auto Run = [&](auto &X0, auto &X1, long long N) {
    using T = typename std::decay_t<decltype(X0.raw())>::value_type;
    BlockedExecutor<T>(Program, Schedule).run({&X0, &X1}, N);
  };
  return Program.elemType() == ScalarType::Float
             ? matchesReference<float>(Program, Extents, Steps, Seed, Run)
             : matchesReference<double>(Program, Extents, Steps, Seed, Run);
}

//===-- run_native --------------------------------------------------------===//

struct KernelSpec {
  const char *Label;
  const char *Stencil;
  ScalarType Type;
  int BT;
  std::vector<int> BS;
  int HS;
  std::vector<long long> Extents; ///< 4-8 MiB per grid, past L2.
  /// A multiple of the deep bT, so every timed block runs full depth.
  long long Steps;
};

const std::vector<KernelSpec> &kernelSet() {
  static const std::vector<KernelSpec> Set = {
      {"j2d5pt_f_bt1", "j2d5pt", ScalarType::Float, 1, {256}, 256,
       {1024, 2048}, 32},
      {"j2d5pt_f_bt8", "j2d5pt", ScalarType::Float, 8, {256}, 256,
       {1024, 2048}, 32},
      {"star2d2r_f_bt1", "star2d2r", ScalarType::Float, 1, {256}, 256,
       {1024, 2048}, 36},
      {"star2d2r_f_bt6", "star2d2r", ScalarType::Float, 6, {256}, 256,
       {1024, 2048}, 36},
      {"j3d27pt_f_bt1", "j3d27pt", ScalarType::Float, 1, {32, 32}, 128,
       {64, 128, 128}, 16},
      {"j3d27pt_f_bt4", "j3d27pt", ScalarType::Float, 4, {32, 32}, 128,
       {64, 128, 128}, 16},
      {"star3d1r_d_bt1", "star3d1r", ScalarType::Double, 1, {32, 32}, 128,
       {64, 128, 128}, 16},
      {"star3d1r_d_bt4", "star3d1r", ScalarType::Double, 4, {32, 32}, 128,
       {64, 128, 128}, 16},
      {"j1d3pt_f_bt1", "j1d3pt", ScalarType::Float, 1, {}, 1024,
       {1 << 20}, 64},
      {"j1d3pt_f_bt16", "j1d3pt", ScalarType::Float, 16, {}, 1024,
       {1 << 20}, 64},
  };
  return Set;
}

BlockConfig configOf(const KernelSpec &K) {
  BlockConfig C;
  C.BT = K.BT;
  C.BS = K.BS;
  C.HS = K.HS;
  return C;
}

/// One loaded kernel with its pristine input and double buffers.
struct NativeRow {
  const KernelSpec *Spec = nullptr;
  std::unique_ptr<StencilProgram> Program;
  std::unique_ptr<NativeExecutor> Executor;
  bool Ok = false;
  std::vector<double> Seconds;
};

/// Grids in either precision; a row uses the one matching its stencil.
template <typename T> struct GridSet {
  std::unique_ptr<Grid<T>> Pristine, Buf0, Buf1;
  void make(const std::vector<long long> &Extents, int Radius,
            std::uint64_t Seed) {
    Pristine = std::make_unique<Grid<T>>(Extents, Radius);
    fillGridDeterministic(*Pristine, Seed);
    Buf0 = std::make_unique<Grid<T>>(*Pristine);
    Buf1 = std::make_unique<Grid<T>>(*Pristine);
  }
  /// Resets both buffers from the pristine copy, then times one run.
  double timedRun(const NativeExecutor &Executor, long long Steps) {
    copyGrid(*Pristine, *Buf0);
    copyGrid(*Pristine, *Buf1);
    double Start = nowSeconds();
    Executor.run<T>({Buf0.get(), Buf1.get()}, Steps);
    return nowSeconds() - Start;
  }
  const Grid<T> &output(long long Steps) const {
    return Steps % 2 ? *Buf1 : *Buf0;
  }
};

/// Builds every row's executor into \p Cache across \p Threads workers.
void buildKernels(std::vector<NativeRow> &Rows, KernelCache &Cache,
                  const NativeRuntimeOptions &Options, int Threads) {
  std::atomic<std::size_t> Next{0};
  auto Worker = [&] {
    for (std::size_t I; (I = Next.fetch_add(1)) < Rows.size();)
      Rows[I].Executor = std::make_unique<NativeExecutor>(
          *Rows[I].Program, configOf(*Rows[I].Spec), Options, &Cache);
  };
  std::vector<std::thread> Pool;
  for (int T = 1; T < Threads; ++T)
    Pool.emplace_back(Worker);
  Worker();
  for (std::thread &Th : Pool)
    Th.join();
}

double cellUpdates(const std::vector<long long> &Extents, long long Steps) {
  double Cells = static_cast<double>(Steps);
  for (long long E : Extents)
    Cells *= static_cast<double>(E);
  return Cells;
}

/// STREAM-style bytes per cell update of a bT-deep temporal block:
/// every cell is read and written once per block. Computed, not measured.
double computedBytesPerCell(int ElemSize, int BT) {
  return 2.0 * ElemSize / BT;
}

/// A hash of a grid's bytes (a cheap run-to-run determinism check).
template <typename T> std::size_t gridHash(const Grid<T> &G) {
  return std::hash<std::string_view>{}(std::string_view(
      reinterpret_cast<const char *>(G.data()), G.size() * sizeof(T)));
}

} // namespace

const std::vector<std::string> &nativeKernelLabels() {
  static const std::vector<std::string> Labels = [] {
    std::vector<std::string> L;
    for (const KernelSpec &K : kernelSet())
      L.push_back(K.Label);
    return L;
  }();
  return Labels;
}

void runNative(const Context &Ctx, Record &Out) {
  NativeRuntimeOptions Options;
  Options.Threads = Ctx.Threads;

  // Set-up: the compiler probe (once per process) and a pre-build of the
  // whole kernel set into a fresh private cache, repeated.
  double ProbeSeconds = nowSeconds();
  { NativeCompiler Probe; }
  ProbeSeconds = nowSeconds() - ProbeSeconds;
  std::vector<double> SetupSeconds;
  std::vector<NativeRow> Rows;
  std::unique_ptr<KernelCache> Cache;
  double CompileSeconds = 0;
  long long Compiles = 0;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    double Start = nowSeconds();
    Rows.clear();
    for (const KernelSpec &K : kernelSet()) {
      NativeRow Row;
      Row.Spec = &K;
      Row.Program = makeBenchmarkStencil(K.Stencil, K.Type);
      Rows.push_back(std::move(Row));
    }
    Cache = std::make_unique<KernelCache>(freshDir(Ctx, "kc-native"));
    buildKernels(Rows, *Cache, Options, Ctx.Threads);
    SetupSeconds.push_back(nowSeconds() - Start);
    CompileSeconds = 0;
    for (const NativeRow &Row : Rows)
      CompileSeconds += Row.Executor->compileSeconds();
    Compiles = static_cast<long long>(Cache->stats().Misses);
  }

  // Inputs: one seeded grid set per stencil, shared by its two depths.
  std::map<std::string, GridSet<float>> FloatGrids;
  std::map<std::string, GridSet<double>> DoubleGrids;
  for (const NativeRow &Row : Rows) {
    const KernelSpec &K = *Row.Spec;
    if (K.Type == ScalarType::Float && !FloatGrids.count(K.Stencil))
      FloatGrids[K.Stencil].make(K.Extents, Row.Program->radius(), Ctx.Seed);
    if (K.Type == ScalarType::Double && !DoubleGrids.count(K.Stencil))
      DoubleGrids[K.Stencil].make(K.Extents, Row.Program->radius(), Ctx.Seed);
  }
  auto TimedRun = [&](const NativeRow &Row) {
    const KernelSpec &K = *Row.Spec;
    return K.Type == ScalarType::Float
               ? FloatGrids[K.Stencil].timedRun(*Row.Executor, K.Steps)
               : DoubleGrids[K.Stencil].timedRun(*Row.Executor, K.Steps);
  };
  auto OutputHash = [&](const NativeRow &Row) {
    const KernelSpec &K = *Row.Spec;
    return K.Type == ScalarType::Float
               ? gridHash(FloatGrids[K.Stencil].output(K.Steps))
               : gridHash(DoubleGrids[K.Stencil].output(K.Steps));
  };

  // Check before timing: bit-for-bit against referenceRun on a grid that
  // spans several blocks, chunks and temporal blocks.
  for (NativeRow &Row : Rows) {
    Row.Ok = Row.Executor->ok() &&
             nativeMatchesReference(*Row.Program, *Row.Executor,
                                    configOf(*Row.Spec), Ctx.Seed + 1);
    if (!Row.Ok && !Row.Executor->ok())
      std::fprintf(stderr, "perfbench: %s\n", Row.Executor->error().c_str());
  }

  // Warm each kernel once (its first run pages in code and spins up the
  // OpenMP pool) and keep the output hash: every timed run starts from
  // the same pristine grids, so every output must hash the same. The two
  // depths of one stencil share grids; bit-exactness makes their outputs
  // equal too.
  std::vector<std::size_t> FirstHash(Rows.size());
  std::vector<long long> Subnormals(Rows.size(), 0);
  for (std::size_t I = 0; I < Rows.size(); ++I) {
    if (!Rows[I].Ok)
      continue;
    TimedRun(Rows[I]);
    FirstHash[I] = OutputHash(Rows[I]);
    const KernelSpec &K = *Rows[I].Spec;
    Subnormals[I] =
        K.Type == ScalarType::Float
            ? subnormalCells(FloatGrids[K.Stencil].output(K.Steps))
            : subnormalCells(DoubleGrids[K.Stencil].output(K.Steps));
  }

  // Timing: rounds over the kernel set, interleaved so host noise spreads
  // evenly over the rows. In a traced run, odd rounds record spans and
  // even rounds do not; the gap between them is the tracing overhead.
  std::vector<double> RoundOn, RoundOff;
  double Deadline = nowSeconds() + Ctx.Seconds;
  for (int Round = 0; Round < 3 || nowSeconds() < Deadline; ++Round) {
    bool Tracing = Ctx.Trace && Round % 2;
    double RoundStart = nowSeconds();
    for (NativeRow &Row : Rows) {
      if (!Row.Ok)
        continue;
      LayerSpan Span(Tracing, std::string("runtime.run.") + Row.Spec->Label);
      Row.Seconds.push_back(TimedRun(Row));
    }
    (Tracing ? RoundOn : RoundOff).push_back(nowSeconds() - RoundStart);
    if (Round == 0)
      recordPeakRss(Out);
  }

  std::vector<double> MedianMs, Rates;
  for (std::size_t I = 0; I < Rows.size(); ++I) {
    NativeRow &Row = Rows[I];
    const KernelSpec &K = *Row.Spec;
    bool Same = Row.Ok && OutputHash(Row) == FirstHash[I];
    Out.attempt(Row.Ok && Same,
                std::string(K.Label) + (Row.Ok ? ": output changed between "
                                                 "runs from pristine grids"
                                               : ": native != reference"));
    if (!Row.Ok || !Same)
      continue;
    double Ms = 1e3 * median(Row.Seconds);
    double Rate = cellUpdates(K.Extents, K.Steps) / (Ms * 1e-3) / 1e9;
    MedianMs.push_back(Ms);
    Rates.push_back(Rate);
    double Bytes = computedBytesPerCell(Row.Program->wordSize(), K.BT);
    double PctRoof = 100.0 * Rate * Bytes / Ctx.Roof.TriadGBs;
    char Line[200];
    std::snprintf(Line, sizeof(Line),
                  "%-16s %9.3f ms  %7.3f Gcells/s  %6.1f%% of triad roof "
                  "(%.2f B/cell computed)  n=%zu  subnormal=%lld",
                  K.Label, Ms, Rate, PctRoof, Bytes, Row.Seconds.size(),
                  Subnormals[I]);
    Out.note(Line);
    if (Ctx.Trace) {
      std::string L = K.Label;
      Out.set("runtime.run_ms." + L, Ms, "ms", Row.Seconds.size());
      Out.set("runtime.gcells_per_s." + L, Rate, "Gcells/s",
              Row.Seconds.size());
      Out.set("runtime.pct_bw_roof." + L, PctRoof, "%");
      Out.set("runtime.subnormal_cells." + L,
              static_cast<double>(Subnormals[I]), "count");
    }
  }

  Out.set("setup_s", median(SetupSeconds), "s", SetupSeconds.size());
  if (!MedianMs.empty())
    Out.set("op_ms", geomean(MedianMs), "ms", Rows.front().Seconds.size());
  Out.note("kernel_gcells_per_s " + std::to_string(geomean(Rates)) +
           " Gcells/s (geomean over " + std::to_string(Rates.size()) +
           " kernels)");
  if (Ctx.Trace) {
    Out.set("runtime.probe_ms", 1e3 * ProbeSeconds, "ms");
    Out.set("runtime.compile_s", CompileSeconds, "s");
    Out.set("runtime.compiles", static_cast<double>(Compiles), "count");
    double PerOp = static_cast<double>(Rows.size());
    Out.set("bench.trace_overhead_ms",
            1e3 * (median(RoundOn) - median(RoundOff)) / PerOp, "ms");

    // The front-half layers (frontend, model, schedule, analysis, sim) are
    // measured here too, over a third of the time: no workload times them
    // end to end, because a simulated tune's time swings with host load on
    // small shared hosts.
    Context Front = Ctx;
    Front.Seconds = Ctx.Seconds / 3;
    frontHalfLayers(Front, Out);
    writeTrace(Ctx.OutDir + "/trace-run_native.json");
  }
}

//===-- tune_cold / tune_warm ---------------------------------------------===//

namespace {

struct TuneStencil {
  const char *Name;
  std::unique_ptr<StencilProgram> Program;
  ProblemSize Problem;
  /// run_native-sized grid for re-timing the winner, and the fewest steps
  /// to run on it (rounded up to whole temporal blocks of the winner).
  std::vector<long long> RunExtents;
  long long MinRunSteps;
};

std::vector<TuneStencil> tuneStencils() {
  std::vector<TuneStencil> Set;
  Set.push_back({"j2d5pt", makeBenchmarkStencil("j2d5pt", ScalarType::Float),
                 nativeMeasurementProblem(2), {1024, 2048}, 32});
  Set.push_back({"j3d27pt", makeBenchmarkStencil("j3d27pt", ScalarType::Float),
                 nativeMeasurementProblem(3), {64, 128, 128}, 16});
  return Set;
}

TuneOptions nativeTuneOptions(const Context &Ctx, const std::string &CacheDir) {
  TuneOptions Options;
  Options.Backend = MeasurementBackend::Native;
  Options.TopK = 8;
  Options.Threads = Ctx.Threads;
  Options.Native.CompileThreads = Ctx.Threads;
  Options.Native.Runtime.Threads = Ctx.Threads;
  Options.Native.Runtime.CacheDir = CacheDir;
  return Options;
}

/// Candidates a native tune compiles: the top-K minus gate rejections.
long long compiledCandidates(const TuneOutcome &Outcome) {
  return static_cast<long long>(Outcome.TopByModel.size() -
                                Outcome.VerifierRejections -
                                Outcome.AnalysisRejections);
}

/// One timed Tuner::tune with the cache assertion of its kind: a cold
/// tune must miss on every candidate, a warm one must hit on every one.
struct TimedTune {
  TuneOutcome Outcome;
  double Seconds = 0;
  bool Ok = false;
};

TimedTune runTune(const Context &Ctx, const TuneStencil &S,
                  const std::string &CacheDir, bool ExpectWarm, Record &Out) {
  Tuner T(GpuSpec::teslaV100());
  CacheCounts Before;
  double Start = nowSeconds();
  TimedTune R;
  R.Outcome = T.tune(*S.Program, S.Problem, nativeTuneOptions(Ctx, CacheDir));
  R.Seconds = nowSeconds() - Start;
  CacheCounts D = CacheCounts().since(Before);
  long long N = compiledCandidates(R.Outcome);
  bool CacheOk = ExpectWarm ? D.Hits == N && D.Misses == 0
                            : D.Hits == 0 && D.Misses == N;
  R.Ok = R.Outcome.Feasible && R.Outcome.MeasurementFailures == 0 &&
         D.Failures == 0 && CacheOk;
  Out.attempt(R.Ok, std::string(S.Name) + (ExpectWarm ? " warm" : " cold") +
                        " tune: feasible=" +
                        std::to_string(R.Outcome.Feasible) + " hits=" +
                        std::to_string(D.Hits) + " misses=" +
                        std::to_string(D.Misses) + " expected " +
                        std::to_string(N) + " " +
                        (ExpectWarm ? "hits" : "misses") + ", failures=" +
                        std::to_string(R.Outcome.MeasurementFailures));
  return R;
}

/// Sum of a re-drive's per-layer times (its metrics in ms).
double layerSumMs(const Record &Layers) {
  double Sum = 0;
  for (const auto &[Name, M] : Layers.Metrics)
    if (M.Unit == "ms")
      Sum += M.Value;
  return Sum;
}

/// The gate the tuner runs per candidate: the schedule verifier, the
/// dataflow pass pipeline and the resource estimate; true when the
/// candidate passes.
bool analysisGate(const StencilProgram &Program, const ScheduleIR &IR,
                  const ProblemSize &Problem,
                  const AnalysisPassManager &Passes) {
  if (!verifyScheduleIR(IR, &Problem).proven())
    return false;
  AnalysisInput Input;
  Input.Program = &Program;
  Input.Schedule = &IR;
  if (!Passes.run(Input).proven())
    return false;
  (void)estimateResources(Program, IR);
  return true;
}

/// One candidate's build stage in a re-driven native tune.
struct BuiltCandidate {
  ScheduleIR IR;
  std::unique_ptr<NativeExecutor> Executor;
  KernelArtifact Artifact;
  double SourceKiB = 0;
  /// Start and duration (seconds) of emit, lookup and the constructor.
  double Start = 0, Emit = 0, Lookup = 0, Construct = 0;
  int Worker = 0;
};

/// Re-drives the native tuner's sequence through public functions, in
/// the tuner's three stages: rank, then per candidate lower and gate
/// (serial); emit, cache lookup and load across the compile workers; then
/// measure (serial). Serial calls get a span each when \p Tracing. The
/// build stage runs in parallel, so its wall time is split over emit,
/// lookup and load in proportion to their busy time; its per-call spans go
/// on one trace lane per worker. Adds each layer's time and counts to
/// \p L. The re-drive must take the same path as \p Timed, the untraced
/// tune of the same stencil in this round: same ranked, rejected and
/// compiled candidate counts, checked into \p Out.
void redriveNativeTune(const Context &Ctx, const TuneStencil &S,
                       const std::string &CacheDir, bool Tracing,
                       const TuneOutcome &Timed, Record &L, Record &Out) {
  L.add("analysis.rejections", 0, "count");
  L.add("tuning.measure_failures", 0, "count");
  Tuner T(GpuSpec::teslaV100());
  TuneOptions Options = nativeTuneOptions(Ctx, CacheDir);
  const StencilProgram &P = *S.Program;
  std::vector<RankedConfig> Ranked;
  {
    LayerSpan Span(Tracing, "model.rank");
    Ranked = T.rankByModel(P, S.Problem, Options.TopK);
    L.add("model.rank_ms", 1e3 * Span.close(), "ms");
  }
  const AnalysisPassManager Passes = AnalysisPassManager::standardPipeline();
  std::vector<BuiltCandidate> Built;
  std::size_t Rejections = 0;
  for (const RankedConfig &Candidate : Ranked) {
    L.add("tuning.candidates", 1, "count");
    BuiltCandidate B;
    {
      LayerSpan Span(Tracing, "schedule.lower");
      B.IR = lowerSchedule(P, Candidate.Config);
      L.add("schedule.lower_ms", 1e3 * Span.close(), "ms");
    }
    bool Pass;
    {
      LayerSpan Span(Tracing, "analysis.gate");
      // The native sweep verifies each schedule once more on its own.
      Pass = analysisGate(P, B.IR, S.Problem, Passes) &&
             verifyScheduleIR(B.IR).proven();
      L.add("analysis.gate_ms", 1e3 * Span.close(), "ms");
    }
    if (Pass)
      Built.push_back(std::move(B));
    else
      ++Rejections;
  }
  L.add("analysis.rejections", static_cast<double>(Rejections), "count");
  Out.attempt(Ranked.size() == Timed.TopByModel.size() &&
                  Rejections ==
                      Timed.VerifierRejections + Timed.AnalysisRejections &&
                  static_cast<long long>(Built.size()) ==
                      compiledCandidates(Timed),
              std::string(S.Name) + " re-driven tune: " +
                  std::to_string(Ranked.size()) + " ranked, " +
                  std::to_string(Rejections) + " rejected, " +
                  std::to_string(Built.size()) +
                  " built; the tuner's path differs");

  KernelCache Cache(CacheDir);
  NativeCompiler Compiler;
  std::atomic<std::size_t> Next{0};
  auto Worker = [&](int Id) {
    for (std::size_t I; (I = Next.fetch_add(1)) < Built.size();) {
      BuiltCandidate &B = Built[I];
      B.Worker = Id;
      B.Start = nowSeconds();
      std::string Source = generateCppKernelLibrary(P, B.IR);
      double Emitted = nowSeconds();
      B.Artifact = Cache.getOrBuild(Source, Compiler,
                                    Options.Native.Runtime.ExtraCompileFlags);
      double Looked = nowSeconds();
      // The constructor emits and looks up again (now a hit) before it
      // loads; load time is what remains after those two.
      B.Executor = std::make_unique<NativeExecutor>(
          P, B.IR, Options.Native.Runtime, &Cache);
      B.Emit = Emitted - B.Start;
      B.Lookup = Looked - Emitted;
      B.Construct = nowSeconds() - Looked;
      B.SourceKiB = static_cast<double>(Source.size()) / 1024.0;
    }
  };
  double StageStart = nowSeconds();
  {
    std::vector<std::thread> Pool;
    for (int Id = 1; Id < Ctx.Threads; ++Id)
      Pool.emplace_back(Worker, Id);
    Worker(0);
    for (std::thread &Th : Pool)
      Th.join();
  }
  double StageWall = nowSeconds() - StageStart;
  double Emit = 0, Lookup = 0, Load = 0, Busy = 0;
  for (const BuiltCandidate &B : Built) {
    double HitLookup = B.Lookup - B.Artifact.CompileSeconds;
    double NetLoad = std::max(0.0, B.Construct - B.Emit - HitLookup);
    Emit += B.Emit;
    Lookup += B.Lookup;
    Load += NetLoad;
    Busy += B.Emit + B.Lookup + B.Construct;
    L.add("codegen.source_kb", B.SourceKiB, "KiB");
    L.add("runtime.compile_s", B.Artifact.CompileSeconds, "s");
    L.add("runtime.compiles", !B.Artifact.CacheHit, "count");
    L.add("runtime.cache_hit_ratio",
          B.Artifact.CacheHit / static_cast<double>(Built.size()), "ratio");
    if (!Tracing)
      continue;
    recordSpan("codegen.emit", B.Start, B.Emit, B.Worker);
    recordSpan("runtime.cache_lookup", B.Start + B.Emit, B.Lookup, B.Worker);
    recordSpan("runtime.load", B.Start + B.Emit + B.Lookup, B.Construct,
               B.Worker);
  }
  double Share = Busy > 0 ? StageWall / Busy : 0;
  L.add("codegen.emit_ms", 1e3 * Emit * Share, "ms");
  L.add("runtime.cache_lookup_ms", 1e3 * Lookup * Share, "ms");
  L.add("runtime.load_ms", 1e3 * Load * Share, "ms");

  for (const BuiltCandidate &B : Built) {
    if (!B.Executor->ok()) {
      L.add("tuning.measure_failures", 1, "count");
      continue;
    }
    LayerSpan Span(Tracing, "runtime.measure");
    KernelTiming Timing =
        P.elemType() == ScalarType::Float
            ? timeNativeKernel<float>(*B.Executor, S.Problem, P.radius(),
                                      Options.Native.Repeats, Ctx.Threads)
            : timeNativeKernel<double>(*B.Executor, S.Problem, P.radius(),
                                       Options.Native.Repeats, Ctx.Threads);
    L.add("tuning.measure_failures", Timing.Rc != 0, "count");
    L.add("runtime.measure_ms", 1e3 * Span.close(), "ms");
  }
}

/// Checks a tuned winner bit for bit against the reference; a traced run
/// also re-times it under the run_native protocol (pristine grids per
/// run, median of the runs). Returns the rate, or 0 when not timed or the
/// check failed. The tune stencils are float.
double checkWinner(const Context &Ctx, const TuneStencil &S,
                  const BlockConfig &Config, const std::string &CacheDir,
                  Record &Out) {
  NativeRuntimeOptions Options;
  Options.Threads = Ctx.Threads;
  Options.CacheDir = CacheDir;
  NativeExecutor Executor(*S.Program, Config, Options);
  bool Ok = Executor.ok() &&
            nativeMatchesReference(*S.Program, Executor, Config, Ctx.Seed + 2);
  Out.attempt(Ok, std::string(S.Name) + " winner " + Config.toString() +
                      ": native != reference");
  if (!Ok || !Ctx.Trace)
    return 0;
  long long Steps = (S.MinRunSteps + Config.BT - 1) / Config.BT * Config.BT;
  GridSet<float> Grids;
  Grids.make(S.RunExtents, S.Program->radius(), Ctx.Seed);
  Grids.timedRun(Executor, Steps); // warmup
  std::vector<double> Seconds;
  for (int I = 0; I < 9; ++I)
    Seconds.push_back(Grids.timedRun(Executor, Steps));
  return cellUpdates(S.RunExtents, Steps) / median(Seconds) / 1e9;
}

/// Shared body of the two native tune workloads.
void tuneNative(const Context &Ctx, Record &Out, bool Warm) {
  const char *Kind = Warm ? "warm" : "cold";
  std::vector<TuneStencil> Stencils = tuneStencils();

  // Set-up, repeated: the compiler probe (first repetition only) plus,
  // for the cold workload, one toolchain pre-build into a fresh cache;
  // for the warm workload, cold tunes of every stencil that fill the
  // cache the timed tunes then read.
  std::vector<double> SetupSeconds;
  std::string WarmDir;
  double ProbeSeconds = 0;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    double Start = nowSeconds();
    NativeCompiler Probe;
    if (Rep == 0)
      ProbeSeconds = nowSeconds() - Start;
    std::string Dir = freshDir(Ctx, std::string("kc-setup-") + Kind);
    if (Warm) {
      for (const TuneStencil &S : Stencils)
        runTune(Ctx, S, Dir, /*ExpectWarm=*/false, Out);
    } else {
      NativeRuntimeOptions Options;
      Options.Threads = Ctx.Threads;
      Options.CacheDir = Dir;
      NativeExecutor Check(*Stencils[0].Program,
                           Tuner::sconf(*Stencils[0].Program), Options);
      Out.attempt(Check.ok(), "toolchain pre-build: " + Check.error());
    }
    SetupSeconds.push_back(nowSeconds() - Start);
    if (Warm) {
      if (!WarmDir.empty())
        fs::remove_all(WarmDir);
      WarmDir = Dir;
    } else {
      fs::remove_all(Dir);
    }
  }

  // Timing: rounds of one tune per stencil until the time is up. A traced
  // run follows each timed tune with a re-driven one (its own fresh cache
  // when cold), alternating span recording on and off.
  std::vector<std::vector<double>> Seconds(Stencils.size());
  std::vector<std::set<std::string>> Winners(Stencils.size());
  std::vector<BlockConfig> WinnerConfigs;
  std::vector<std::size_t> WinnerStencil;
  std::vector<double> RoundWall, LayerSum, RedriveOn, RedriveOff;
  std::vector<Record> Layers; // per round, summed over its stencils
  double Deadline = nowSeconds() + Ctx.Seconds;
  int MinRounds = Ctx.Trace ? 2 : 1; // a traced run needs one of each kind
  for (int Round = 0; Round < MinRounds || nowSeconds() < Deadline; ++Round) {
    double Wall = 0;
    Record RoundLayers;
    double RedriveWall = 0;
    bool Tracing = Ctx.Trace && Round % 2 == 0;
    for (std::size_t I = 0; I < Stencils.size(); ++I) {
      const TuneStencil &S = Stencils[I];
      std::string Dir = Warm ? WarmDir : freshDir(Ctx, "kc-cold");
      TimedTune R = runTune(Ctx, S, Dir, Warm, Out);
      if (R.Ok) {
        Seconds[I].push_back(R.Seconds);
        if (Winners[I].insert(R.Outcome.Best.toString()).second) {
          WinnerConfigs.push_back(R.Outcome.Best);
          WinnerStencil.push_back(I);
        }
      }
      Wall += R.Seconds;
      if (!Warm)
        fs::remove_all(Dir);
      if (!Ctx.Trace)
        continue;
      std::string RedriveDir = Warm ? WarmDir : freshDir(Ctx, "kc-redrive");
      double Start = nowSeconds();
      redriveNativeTune(Ctx, S, RedriveDir, Tracing, R.Outcome, RoundLayers,
                        Out);
      RedriveWall += nowSeconds() - Start;
      if (!Warm)
        fs::remove_all(RedriveDir);
    }
    if (Round == 0)
      recordPeakRss(Out);
    if (Ctx.Trace) {
      RoundWall.push_back(Wall);
      LayerSum.push_back(layerSumMs(RoundLayers));
      Layers.push_back(RoundLayers);
      (Tracing ? RedriveOn : RedriveOff).push_back(RedriveWall);
    }
  }

  // Check every distinct winner bit for bit (outside the timed region);
  // a traced run also re-times them under the run_native protocol.
  std::string CheckDir = Warm ? WarmDir : freshDir(Ctx, "kc-check");
  std::vector<double> WinnerRates;
  for (std::size_t W = 0; W < WinnerConfigs.size(); ++W) {
    double Rate = checkWinner(Ctx, Stencils[WinnerStencil[W]],
                             WinnerConfigs[W], CheckDir, Out);
    if (Rate > 0)
      WinnerRates.push_back(Rate);
  }

  std::vector<double> MedianMs;
  std::size_t Samples = Seconds.front().size();
  for (std::size_t I = 0; I < Stencils.size(); ++I) {
    Samples = std::min(Samples, Seconds[I].size());
    if (Seconds[I].empty())
      continue;
    MedianMs.push_back(1e3 * median(Seconds[I]));
    char Line[200];
    std::snprintf(Line, sizeof(Line),
                  "%-8s %s tune %9.1f ms  n=%zu  winners: %zu",
                  Stencils[I].Name, Kind, MedianMs.back(), Seconds[I].size(),
                  Winners[I].size());
    Out.note(Line);
  }
  Out.set("setup_s", median(SetupSeconds), "s", SetupSeconds.size());
  if (MedianMs.size() == Stencils.size())
    Out.set("op_ms", geomean(MedianMs), "ms", Samples);

  if (Ctx.Trace) {
    // Per-layer values are per tune: a round's sums over its stencils
    // divided by the stencil count, median over rounds.
    double PerTune = static_cast<double>(Stencils.size());
    for (const auto &[Name, First] : Layers.front().Metrics) {
      std::vector<double> V;
      for (const Record &Round : Layers) {
        auto It = Round.Metrics.find(Name);
        V.push_back(It == Round.Metrics.end() ? 0 : It->second.Value / PerTune);
      }
      Out.set(Name, median(V), First.Unit);
    }
    Out.set("runtime.probe_ms", 1e3 * ProbeSeconds, "ms");
    double WallMs = 1e3 * median(RoundWall) / PerTune;
    double SumMs = median(LayerSum) / PerTune;
    Out.set("tuning.wall_ms", WallMs, "ms", RoundWall.size());
    Out.set("tuning.layer_sum_ms", SumMs, "ms", LayerSum.size());
    Out.set("tuning.unattributed_ms", WallMs - SumMs, "ms");
    Out.set("tuning.winner_gcells_per_s", geomean(WinnerRates), "Gcells/s",
            WinnerRates.size());
    Out.set("bench.trace_overhead_ms",
            1e3 * (median(RedriveOn) - median(RedriveOff)) / PerTune, "ms");
    writeTrace(Ctx.OutDir + "/trace-tune_" + Kind + ".json");
  }
  fs::remove_all(CheckDir);
}

} // namespace

void tuneCold(const Context &Ctx, Record &Out) { tuneNative(Ctx, Out, false); }
void tuneWarm(const Context &Ctx, Record &Out) { tuneNative(Ctx, Out, true); }

//===-- front half --------------------------------------------------------===//

namespace {

std::unique_ptr<StencilProgram> extract(const GeneratedStencil &G) {
  DiagnosticEngine Diags;
  StencilExtractor Extractor(Diags);
  auto Result = Extractor.extractFromSource(
      G.Source, G.Name, G.IsFloat ? ScalarType::Float : ScalarType::Double);
  return Result ? std::move(Result->Program) : nullptr;
}

TuneOptions modelTuneOptions(const Context &Ctx) {
  TuneOptions Options; // Simulated backend, default top-K and caps
  Options.Threads = Ctx.Threads;
  return Options;
}

/// Re-drives the simulated tune through public functions with a span
/// around each layer call; returns the pick (empty when infeasible).
std::string redriveModelTune(const Context &Ctx, const GeneratedStencil &G,
                             Record &Out) {
  std::unique_ptr<StencilProgram> P;
  {
    LayerSpan Span(true, "frontend.extract");
    P = extract(G);
    Out.add("frontend.extract_ms", 1e3 * Span.close(), "ms");
  }
  if (!P)
    return "";
  Tuner T(GpuSpec::teslaV100());
  TuneOptions Options = modelTuneOptions(Ctx);
  ProblemSize Problem = ProblemSize::paperDefault(P->numDims());
  std::vector<RankedConfig> Ranked;
  {
    LayerSpan Span(true, "model.rank");
    Ranked = T.rankByModel(*P, Problem, Options.TopK);
    Out.add("model.rank_ms", 1e3 * Span.close(), "ms");
  }
  Out.add("model.configs_ranked", static_cast<double>(Ranked.size()), "count");
  Out.add("analysis.rejections", 0, "count");
  const AnalysisPassManager Passes = AnalysisPassManager::standardPipeline();
  std::vector<SweepCandidate> Candidates;
  for (const RankedConfig &Candidate : Ranked) {
    ScheduleIR IR;
    {
      LayerSpan Span(true, "schedule.lower");
      IR = lowerSchedule(*P, Candidate.Config);
      Out.add("schedule.lower_ms", 1e3 * Span.close(), "ms");
    }
    bool Pass;
    {
      LayerSpan Span(true, "analysis.gate");
      Pass = analysisGate(*P, IR, Problem, Passes);
      Out.add("analysis.gate_ms", 1e3 * Span.close(), "ms");
    }
    if (!Pass) {
      Out.add("analysis.rejections", 1, "count");
      continue;
    }
    for (int Cap : Options.RegisterCaps) {
      SweepCandidate Item;
      Item.Config = Candidate.Config;
      Item.Config.RegisterCap = Cap;
      Candidates.push_back(std::move(Item));
    }
  }
  Out.add("tuning.candidates", static_cast<double>(Candidates.size()), "count");
  std::vector<MeasuredResult> Results;
  {
    LayerSpan Span(true, "sim.simulate");
    Results = parallelMeasuredSweep(*P, T.spec(), Candidates, {Problem},
                                    Options.Threads);
    Out.add("sim.simulate_ms", 1e3 * Span.close(), "ms");
  }
  // The tuner's reduction: first strictly better measured GFLOP/s wins.
  const MeasuredResult *Best = nullptr;
  std::string Pick;
  for (std::size_t I = 0; I < Results.size(); ++I)
    if (Results[I].Feasible &&
        (!Best || Results[I].MeasuredGflops > Best->MeasuredGflops)) {
      Best = &Results[I];
      Pick = Candidates[I].Config.toString();
    }
  return Pick;
}

} // namespace

void frontHalfLayers(const Context &Ctx, Record &Out) {
  // Rounds over the generated stencils: per stencil, an untraced parse to
  // pick (extract, then a Simulated-backend Tuner::tune) for the wall time,
  // then the traced re-drive of the same sequence.
  std::vector<GeneratedStencil> Set = generateStencils(Ctx.Seed);
  Tuner T(GpuSpec::teslaV100());
  TuneOptions Options = modelTuneOptions(Ctx);
  std::vector<std::string> Picks(Set.size());
  std::vector<BlockConfig> PickConfigs(Set.size());
  std::vector<bool> Ok(Set.size(), true);
  Record Layers; // per-layer sums over every re-driven stencil tune
  double Wall = 0;
  long long Tunes = 0;
  double Deadline = nowSeconds() + Ctx.Seconds;
  for (int Round = 0; Round < 2 || nowSeconds() < Deadline; ++Round) {
    for (std::size_t I = 0; I < Set.size(); ++I) {
      double Start = nowSeconds();
      std::unique_ptr<StencilProgram> P = extract(Set[I]);
      TuneOutcome Outcome;
      if (P)
        Outcome = T.tune(*P, ProblemSize::paperDefault(P->numDims()), Options);
      Wall += nowSeconds() - Start;
      ++Tunes;
      // The simulated tune is deterministic: every round and the re-drive
      // must pick the same configuration.
      std::string Pick = Outcome.Feasible ? Outcome.Best.toString() : "";
      if (Round == 0) {
        Picks[I] = Pick;
        PickConfigs[I] = Outcome.Best;
      }
      if (Pick.empty() || Pick != Picks[I] ||
          redriveModelTune(Ctx, Set[I], Layers) != Picks[I])
        Ok[I] = false;
    }
  }

  // Checks outside the timed region: every pick passes the schedule
  // verifier and its blocked emulation matches the reference bit for bit.
  for (std::size_t I = 0; I < Set.size(); ++I) {
    if (Ok[I]) {
      std::unique_ptr<StencilProgram> P = extract(Set[I]);
      ScheduleIR IR = lowerSchedule(*P, PickConfigs[I]);
      ProblemSize Problem = ProblemSize::paperDefault(P->numDims());
      Ok[I] = verifyScheduleIR(IR, &Problem).proven() &&
              emulatorMatchesReference(*P, IR, Ctx.Seed + 3);
    }
    Out.attempt(Ok[I], Set[I].Name + " pick '" + Picks[I] +
                           "': infeasible, unstable or emulator != reference");
  }

  // Per stencil tune: the mean of each layer and of the untraced wall time.
  double N = static_cast<double>(Tunes);
  for (const auto &[Name, M] : Layers.Metrics)
    Out.set(Name, M.Value / N, M.Unit, Tunes);
  double WallMs = 1e3 * Wall / N;
  double LayerSumMs = layerSumMs(Layers) / N;
  Out.set("tuning.wall_ms", WallMs, "ms", Tunes);
  Out.set("tuning.layer_sum_ms", LayerSumMs, "ms", Tunes);
  Out.set("tuning.unattributed_ms", WallMs - LayerSumMs, "ms");
}

} // namespace perfbench

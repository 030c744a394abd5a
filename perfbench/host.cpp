//===- host.cpp - Shared helpers, host context and same-run roof ----------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "obs/JsonLite.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  std::size_t N = Values.size();
  return N % 2 ? Values[N / 2] : 0.5 * (Values[N / 2 - 1] + Values[N / 2]);
}

double geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double LogSum = 0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

void Record::attempt(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    std::fprintf(stderr, "perfbench: FAILED %s\n", What.c_str());
  }
}

double LayerSpan::close() {
  if (Elapsed < 0) {
    Elapsed = nowSeconds() - Start;
    if (Record)
      recordSpan(std::move(Name), Start, Elapsed, 0);
  }
  return Elapsed;
}

void recordSpan(std::string Name, double Start, double Seconds, unsigned Lane) {
  an5d::obs::SpanRecord Span;
  Span.Name = std::move(Name);
  Span.StartNs = std::llround(Start * 1e9);
  Span.DurationNs = std::llround(Seconds * 1e9);
  Span.ThreadId = Lane;
  an5d::obs::TraceRecorder::global().record(std::move(Span));
}

void writeTrace(const std::string &Path) {
  std::ofstream(Path) << an5d::obs::TraceRecorder::global().toChromeTraceJson();
}

std::string jsonString(const std::string &Text) {
  std::string Out;
  an5d::obs::appendJsonString(Out, Text);
  return Out;
}

namespace {

std::string readFirstLine(const std::string &Path) {
  std::ifstream In(Path);
  std::string Line;
  std::getline(In, Line);
  return Line;
}

// Kept scalar so the figure is a one-lane multiply-add rate, not whatever
// the auto-vectorizer makes of eight independent chains.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((noinline, optimize("no-tree-vectorize")))
#endif
double mulAddChains(long long Iterations, double M, double A) {
  double X0 = 1, X1 = 2, X2 = 3, X3 = 4, X4 = 5, X5 = 6, X6 = 7, X7 = 8;
  for (long long I = 0; I < Iterations; ++I) {
    X0 = X0 * M + A;
    X1 = X1 * M + A;
    X2 = X2 * M + A;
    X3 = X3 * M + A;
    X4 = X4 * M + A;
    X5 = X5 * M + A;
    X6 = X6 * M + A;
    X7 = X7 * M + A;
  }
  return X0 + X1 + X2 + X3 + X4 + X5 + X6 + X7;
}

} // namespace

namespace {

/// Size in bytes of the highest-level cache cpu0 reports; 0 if unknown.
double lastLevelCacheBytes() {
  double Bytes = 0;
  int Best = 0;
  for (int Index = 0; Index < 8; ++Index) {
    std::string Dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(Index);
    std::string Level = readFirstLine(Dir + "/level");
    if (Level.empty())
      break;
    std::string Size = readFirstLine(Dir + "/size"); // e.g. "307200K"
    double Value = std::atof(Size.c_str());
    char Suffix = Size.empty() ? 0 : Size.back();
    Value *= Suffix == 'K' ? 1024.0 : Suffix == 'M' ? 1048576.0 : 1.0;
    if (std::atoi(Level.c_str()) >= Best) {
      Best = std::atoi(Level.c_str());
      Bytes = Value;
    }
  }
  return Bytes;
}

HostRoof probeRoof(int Threads) {
  HostRoof Roof;
  // STREAM triad a = b + s*c, each thread first-touching and then
  // streaming its own slice. The three arrays together span twice the
  // last-level cache (at least 48 MiB, at most 1 GiB), so the figure is a
  // memory roof wherever the cap allows. A timed pass runs enough sweeps
  // to move about 2 GiB, so thread start-up is noise; best of ten passes.
  // STREAM's byte count: 24 bytes per element (no write-allocate).
  Roof.LlcMiB = lastLevelCacheBytes() / (1 << 20);
  double Footprint =
      std::clamp(2 * Roof.LlcMiB, 48.0, 1024.0) * (1 << 20); // bytes
  const std::size_t N = static_cast<std::size_t>(Footprint / 24);
  const int Sweeps = std::max(2, static_cast<int>(2.0 * (1 << 30) / Footprint));
  std::vector<double> A(N), B(N), C(N);
  // Runs Body(Lo, Hi) over Threads slices of [0, N) in parallel.
  auto Parallel = [&](auto &&Body) {
    auto Slice = [&](int T) {
      Body(N * static_cast<std::size_t>(T) / Threads,
           N * static_cast<std::size_t>(T + 1) / Threads);
    };
    std::vector<std::thread> Pool;
    for (int T = 1; T < Threads; ++T)
      Pool.emplace_back(Slice, T);
    Slice(0);
    for (std::thread &Th : Pool)
      Th.join();
  };
  Parallel([&](std::size_t Lo, std::size_t Hi) {
    for (std::size_t I = Lo; I < Hi; ++I) {
      A[I] = 0;
      B[I] = 1.0 + static_cast<double>(I % 7);
      C[I] = 0.5;
    }
  });
  double Best = 1e30;
  for (int Rep = 0; Rep < 10; ++Rep) {
    double Start = nowSeconds();
    Parallel([&](std::size_t Lo, std::size_t Hi) {
      for (int Sweep = 0; Sweep < Sweeps; ++Sweep) {
        const double S = 3.0 + Sweep;
        for (std::size_t I = Lo; I < Hi; ++I)
          A[I] = B[I] + S * C[I];
      }
    });
    Best = std::min(Best, nowSeconds() - Start);
  }
  Roof.TriadGBs = 24.0 * static_cast<double>(N) * Sweeps / Best / 1e9;
  Roof.TriadArrayMiB = static_cast<double>(N * sizeof(double)) / (1 << 20);
  Roof.PastLlc = Roof.LlcMiB > 0 && 3 * Roof.TriadArrayMiB >= 2 * Roof.LlcMiB;

  // One core, eight independent multiply-add chains (2 FLOP each).
  const long long Iterations = 20'000'000;
  [[maybe_unused]] volatile double Sink = 0;
  double BestMulAdd = 1e30;
  for (int Rep = 0; Rep < 3; ++Rep) {
    double Start = nowSeconds();
    Sink = mulAddChains(Iterations, 0.999999, 1e-3);
    BestMulAdd = std::min(BestMulAdd, nowSeconds() - Start);
  }
  Roof.MulAddGflops = 16.0 * static_cast<double>(Iterations) / BestMulAdd / 1e9;
  return Roof;
}

} // namespace

HostRoof measureHostRoof(int Threads) {
  // The probe runs in a child process so its arrays do not become the
  // benchmark's peak RSS. Call before starting any thread.
  int Pipe[2];
  if (pipe(Pipe) != 0)
    return probeRoof(Threads);
  pid_t Child = fork();
  if (Child == 0) {
    close(Pipe[0]);
    HostRoof Roof = probeRoof(Threads);
    ssize_t Written = write(Pipe[1], &Roof, sizeof(Roof));
    _exit(Written == static_cast<ssize_t>(sizeof(Roof)) ? 0 : 1);
  }
  close(Pipe[1]);
  HostRoof Roof;
  bool Ok = Child > 0 && read(Pipe[0], &Roof, sizeof(Roof)) ==
                             static_cast<ssize_t>(sizeof(Roof));
  close(Pipe[0]);
  int Status = 0;
  if (Child > 0)
    waitpid(Child, &Status, 0);
  return Ok ? Roof : HostRoof();
}

std::string loadAverage() {
  std::istringstream In(readFirstLine("/proc/loadavg"));
  std::string One, Five, Fifteen;
  In >> One >> Five >> Fifteen;
  return One + " " + Five + " " + Fifteen;
}

std::string hostContextJson() {
  std::string Model;
  {
    std::ifstream In("/proc/cpuinfo");
    for (std::string Line; std::getline(In, Line);)
      if (Line.rfind("model name", 0) == 0) {
        Model = Line.substr(Line.find(':') + 2);
        break;
      }
  }
  std::string Caches;
  for (int Index = 0; Index < 8; ++Index) {
    std::string Dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(Index);
    std::string Level = readFirstLine(Dir + "/level");
    if (Level.empty())
      break;
    std::string Type = readFirstLine(Dir + "/type");
    if (!Caches.empty())
      Caches += ", ";
    Caches += "L" + Level + (Type == "Data"          ? "d"
                             : Type == "Instruction" ? "i"
                                                     : "") +
              " " + readFirstLine(Dir + "/size");
  }
  std::ostringstream Out;
  Out << "\"cpu_model\": " << jsonString(Model) << ", \"nproc\": "
      << std::thread::hardware_concurrency()
      << ", \"caches_per_core\": " << jsonString(Caches);
  return Out.str();
}

void recordPeakRss(Record &Out) {
  struct rusage Usage = {};
  getrusage(RUSAGE_SELF, &Usage);
  // ru_maxrss is KiB; the metric is decimal megabytes.
  Out.set("peak_rss_mb", static_cast<double>(Usage.ru_maxrss) * 1024 / 1e6,
          "MB");
}

} // namespace perfbench

//===- AnalysisPassTest.cpp - Static dataflow pass framework -----------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The static analysis pipeline in three layers:
///
///  - framework: finding rendering (string / diagnostic / JSON), report
///    aggregation, pass manager wiring and its obs metrics;
///  - soundness: every builtin stencil lowers to a tape the tape verifier
///    proves clean (the schedule-level property over every enumerated
///    configuration lives in ScheduleIrTest);
///  - completeness: mutation tests corrupt exactly one fact of a known-good
///    tape and assert the one finding ID that must catch it, plus
///    fixed-seed fuzzing over random DSL programs and random tape
///    corruptions (never crash; structured findings or success only).
///    Schedule mutations live in ScheduleVerifierTest.
///
//===----------------------------------------------------------------------===//

#include "analysis/passes/AnalysisPass.h"
#include "analysis/passes/ResourceEstimator.h"
#include "analysis/passes/TapeVerifier.h"
#include "frontend/StencilExtractor.h"
#include "model/PerformanceModel.h"
#include "model/RegisterModel.h"
#include "model/SharedMemoryModel.h"
#include "obs/JsonLite.h"
#include "obs/Metrics.h"
#include "schedule/ScheduleIR.h"
#include "stencils/Benchmarks.h"
#include "tuning/Tuner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

using namespace an5d;

namespace {

TapeFacts factsOf(const StencilProgram &Program) {
  return TapeFacts::of(Program.plan(), Program);
}

std::vector<std::string> allBuiltinNames() {
  std::vector<std::string> Names = benchmarkStencilNames();
  for (const std::string &Name : extraStencilNames())
    Names.push_back(Name);
  return Names;
}

} // namespace

//===----------------------------------------------------------------------===//
// Framework: findings, reports, pass manager
//===----------------------------------------------------------------------===//

TEST(AnalysisFramework, FindingRendersStably) {
  AnalysisFinding F;
  F.Id = "AN5D-A101";
  F.Severity = FindingSeverity::Error;
  F.Pass = "tape-verifier";
  F.Subject = "op 3 Add";
  F.Message = "stack underflow";
  EXPECT_EQ(F.toString(),
            "[AN5D-A101][error] tape-verifier: stack underflow (op 3 Add)");

  Diagnostic D = F.toDiagnostic();
  EXPECT_EQ(D.Kind, DiagnosticKind::Error);
  EXPECT_EQ(D.Message, "[AN5D-A101] stack underflow (op 3 Add)");

  F.Severity = FindingSeverity::Warn;
  EXPECT_EQ(F.toDiagnostic().Kind, DiagnosticKind::Warning);
  F.Severity = FindingSeverity::Info;
  EXPECT_EQ(F.toDiagnostic().Kind, DiagnosticKind::Note);
}

TEST(AnalysisFramework, SeverityNames) {
  EXPECT_STREQ(findingSeverityName(FindingSeverity::Error), "error");
  EXPECT_STREQ(findingSeverityName(FindingSeverity::Warn), "warn");
  EXPECT_STREQ(findingSeverityName(FindingSeverity::Info), "info");
}

TEST(AnalysisFramework, ReportAggregates) {
  AnalysisReport Report;
  EXPECT_TRUE(Report.proven());
  EXPECT_EQ(Report.toString(), "analysis clean\n");

  AnalysisFinding E;
  E.Id = "AN5D-A201";
  E.Severity = FindingSeverity::Error;
  Report.Findings.push_back(E);
  AnalysisFinding W = E;
  W.Id = "AN5D-A209";
  W.Severity = FindingSeverity::Warn;
  Report.Findings.push_back(W);

  EXPECT_EQ(Report.errorCount(), 1u);
  EXPECT_EQ(Report.countBySeverity(FindingSeverity::Warn), 1u);
  EXPECT_EQ(Report.countBySeverity(FindingSeverity::Info), 0u);
  EXPECT_FALSE(Report.proven());
  EXPECT_TRUE(Report.hasFinding("AN5D-A201"));
  EXPECT_TRUE(Report.hasFinding("AN5D-A209"));
  EXPECT_FALSE(Report.hasFinding("AN5D-A101"));

  DiagnosticEngine Diags;
  Report.render(Diags);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.diagnostics().size(), 2u);
}

TEST(AnalysisFramework, ReportJsonRoundTrips) {
  AnalysisReport Report;
  AnalysisFinding F;
  F.Id = "AN5D-A207";
  F.Severity = FindingSeverity::Error;
  F.Pass = "schedule-verifier";
  F.Subject = "degree 2 tier 1 axis 0";
  F.Message = "ring lane overflow with \"quotes\" and\nnewline";
  Report.Findings.push_back(F);
  F.Id = "AN5D-A302";
  F.Severity = FindingSeverity::Info;
  Report.Findings.push_back(F);

  std::string Error;
  std::optional<obs::JsonValue> Parsed = obs::parseJson(Report.toJson(), &Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  ASSERT_TRUE(Parsed->isArray());
  ASSERT_EQ(Parsed->Items.size(), 2u);

  const obs::JsonValue &First = Parsed->Items[0];
  ASSERT_TRUE(First.isObject());
  ASSERT_NE(First.find("id"), nullptr);
  EXPECT_EQ(First.find("id")->String, "AN5D-A207");
  EXPECT_EQ(First.find("severity")->String, "error");
  EXPECT_EQ(First.find("pass")->String, "schedule-verifier");
  EXPECT_EQ(First.find("subject")->String, "degree 2 tier 1 axis 0");
  EXPECT_EQ(First.find("message")->String,
            "ring lane overflow with \"quotes\" and\nnewline");
  EXPECT_EQ(Parsed->Items[1].find("severity")->String, "info");
}

TEST(AnalysisFramework, StandardPipelineRunsAllPassesWithMetrics) {
  auto Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  ASSERT_NE(Program, nullptr);
  BlockConfig Config;
  Config.BT = 2;
  Config.BS = {64};
  Config.HS = 0;
  ScheduleIR IR = lowerSchedule(*Program, Config);

  AnalysisPassManager Passes = AnalysisPassManager::standardPipeline();
  EXPECT_EQ(Passes.numPasses(), 2u);

  obs::MetricsRegistry &Registry = obs::MetricsRegistry::global();
  long long RunsBefore = Registry.counterValue("analysis.pass_runs");
  long long FindingsBefore = Registry.counterValue("analysis.findings");

  AnalysisInput Input;
  Input.Program = Program.get();
  Input.Schedule = &IR;
  AnalysisReport Report = Passes.run(Input);

  EXPECT_TRUE(Report.Findings.empty()) << Report.toString();
  EXPECT_EQ(Registry.counterValue("analysis.pass_runs") - RunsBefore, 2);
  EXPECT_EQ(Registry.counterValue("analysis.findings") - FindingsBefore, 0);
}

TEST(AnalysisFramework, PlanDefaultsToProgramAndScheduleIsOptional) {
  auto Program = makeBenchmarkStencil("star2d2r", ScalarType::Float);
  AnalysisInput Input;
  Input.Program = Program.get(); // no Plan, no Schedule
  AnalysisReport Report = AnalysisPassManager::standardPipeline().run(Input);
  EXPECT_TRUE(Report.Findings.empty()) << Report.toString();
}

//===----------------------------------------------------------------------===//
// Soundness: every builtin, every enumerated feasible configuration
//===----------------------------------------------------------------------===//

TEST(AnalysisSoundness, EveryBuiltinTapeVerifies) {
  for (const std::string &Name : allBuiltinNames())
    for (ScalarType Type : {ScalarType::Float, ScalarType::Double}) {
      auto Program = makeBenchmarkStencil(Name, Type);
      ASSERT_NE(Program, nullptr) << Name;
      AnalysisReport Report = verifyTape(factsOf(*Program));
      EXPECT_TRUE(Report.Findings.empty())
          << Name << ": " << Report.toString();
    }
}

//===----------------------------------------------------------------------===//
// Tape mutations: one corrupted fact, one finding ID
//===----------------------------------------------------------------------===//

TEST(TapeMutation, A101StackUnderflow) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  Facts.Ops.insert(Facts.Ops.begin(), TapeOp{TapeOpKind::Add, 0});
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A101")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A102StackResidue) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  Facts.Ops.push_back(TapeOp{TapeOpKind::PushConst, 0});
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A102")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A103DepthDeclaredTooSmallIsError) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  Facts.MaxStackDepth -= 1;
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A103")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A103DepthDeclaredTooLargeIsWarn) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  Facts.MaxStackDepth += 1;
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A103")) << Report.toString();
  EXPECT_TRUE(Report.proven()) << "loose declaration must stay advisory";
  EXPECT_EQ(Report.countBySeverity(FindingSeverity::Warn), 1u);
}

TEST(TapeMutation, A104ConstantIndexOutOfRange) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  bool Mutated = false;
  for (TapeOp &Op : Facts.Ops)
    if (!Mutated && Op.Kind == TapeOpKind::PushConst) {
      Op.Arg = static_cast<std::uint16_t>(Facts.Constants.size());
      Mutated = true;
    }
  ASSERT_TRUE(Mutated) << "expected at least one PushConst in j2d5pt";
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A104")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A105TapIndexOutOfRange) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  bool Mutated = false;
  for (TapeOp &Op : Facts.Ops)
    if (!Mutated && Op.Kind == TapeOpKind::LoadTap) {
      Op.Arg = static_cast<std::uint16_t>(Facts.Taps.size());
      Mutated = true;
    }
  ASSERT_TRUE(Mutated) << "expected at least one LoadTap in j2d5pt";
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A105")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A106MathSelectorOutsideEnum) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  Facts.Ops.push_back(TapeOp{TapeOpKind::MathCall, 17});
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A106")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A107FusedOpInBasePlan) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  Facts.Ops.push_back(TapeOp{TapeOpKind::MacConstTap, 0});
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A107")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A108TapArityMismatch) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  ASSERT_FALSE(Facts.Taps.empty());
  Facts.Taps[0].pop_back();
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A108")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A109TapOffsetBeyondRadius) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  ASSERT_FALSE(Facts.Taps.empty());
  Facts.Taps[0] = {0, Facts.Radius + 1};
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A109")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A110NonFiniteConstant) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  ASSERT_FALSE(Facts.Constants.empty());
  Facts.Constants[0] = std::numeric_limits<double>::quiet_NaN();
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A110")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A111DivisionByConstantZero) {
  TapeFacts Facts;
  Facts.Ops = {TapeOp{TapeOpKind::LoadTap, 0}, TapeOp{TapeOpKind::PushConst, 0},
               TapeOp{TapeOpKind::Div, 0}};
  Facts.Constants = {0.0};
  Facts.Taps = {{0, 0}};
  Facts.MaxStackDepth = 2;
  Facts.HasConstantDivision = true;
  Facts.NumDims = 2;
  Facts.Radius = 1;
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A111")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A112PredicateFalseNegativeIsError) {
  TapeFacts Facts;
  Facts.Ops = {TapeOp{TapeOpKind::LoadTap, 0}, TapeOp{TapeOpKind::PushConst, 0},
               TapeOp{TapeOpKind::Div, 0}};
  Facts.Constants = {2.0};
  Facts.Taps = {{0, 0}};
  Facts.MaxStackDepth = 2;
  Facts.HasConstantDivision = false; // the lie under test
  Facts.NumDims = 2;
  Facts.Radius = 1;
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A112")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

TEST(TapeMutation, A112StalePredicateIsWarn) {
  auto P = makeBenchmarkStencil("star2d1r", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  ASSERT_FALSE(Facts.HasConstantDivision)
      << "star2d1r is expected to be division-free";
  Facts.HasConstantDivision = true;
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A112")) << Report.toString();
  EXPECT_TRUE(Report.proven());
  EXPECT_EQ(Report.countBySeverity(FindingSeverity::Warn), 1u);
}

TEST(TapeMutation, A113UnusedConstantIsInfo) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  Facts.Constants.push_back(42.0);
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A113")) << Report.toString();
  EXPECT_TRUE(Report.proven());
  EXPECT_EQ(Report.countBySeverity(FindingSeverity::Info), 1u);
}

TEST(TapeMutation, A114UnusedTapIsWarn) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  TapeFacts Facts = factsOf(*P);
  Facts.Taps.push_back({1, 1});
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A114")) << Report.toString();
  EXPECT_TRUE(Report.proven());
  EXPECT_EQ(Report.countBySeverity(FindingSeverity::Warn), 1u);
}

TEST(TapeMutation, A115NonFiniteConstantFold) {
  TapeFacts Facts;
  Facts.Ops = {TapeOp{TapeOpKind::PushConst, 0},
               TapeOp{TapeOpKind::MathCall,
                      static_cast<std::uint16_t>(MathFn::Sqrt)}};
  Facts.Constants = {-1.0}; // sqrt(-1) folds to NaN at CompiledTape build
  Facts.MaxStackDepth = 1;
  Facts.NumDims = 1;
  Facts.Radius = 0;
  AnalysisReport Report = verifyTape(Facts);
  EXPECT_TRUE(Report.hasFinding("AN5D-A115")) << Report.toString();
  EXPECT_FALSE(Report.proven());
}

//===----------------------------------------------------------------------===//
// Resource estimation: features and grading
//===----------------------------------------------------------------------===//

TEST(ResourceEstimation, MatchesOccupancyModels) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  BlockConfig Config;
  Config.BT = 4;
  Config.BS = {128};
  Config.HS = 0;
  ResourceEstimate E = estimateResources(*P, Config);
  ASSERT_TRUE(E.Valid);
  EXPECT_EQ(E.RegistersPerThread, an5dRegistersPerThread(*P, Config.BT));
  EXPECT_EQ(E.SmemBytesPerBlock,
            an5dSmemBytesPerBlock(*P, Config.numThreads()));
  // bT=4 tiers x RingDepth 3 x 8-byte words.
  EXPECT_EQ(E.RingBytesPerThread, 96);
  EXPECT_EQ(E.RingBytesPerBlock, 96 * Config.numThreads());
  EXPECT_GT(E.TapeFlops, 0);
  EXPECT_GT(E.ArithmeticIntensity, 0.0);
  EXPECT_GE(E.LoadRedundancy, 1.0);
}

TEST(ResourceEstimation, OccupancySliceAgreesWithFullEstimate) {
  auto P = makeBenchmarkStencil("star3d2r", ScalarType::Float);
  BlockConfig Config;
  Config.BT = 2;
  Config.BS = {32, 32};
  Config.HS = 0;
  ResourceEstimate Full = estimateResources(*P, Config);
  ResourceEstimate Occ = estimateOccupancy(*P, Config);
  ASSERT_TRUE(Full.Valid);
  ASSERT_TRUE(Occ.Valid);
  EXPECT_EQ(Occ.RegistersPerThread, Full.RegistersPerThread);
  EXPECT_EQ(Occ.SmemBytesPerBlock, Full.SmemBytesPerBlock);
  EXPECT_EQ(Occ.RingBytesPerThread, Full.RingBytesPerThread);
  EXPECT_EQ(Occ.RingBytesPerBlock, Full.RingBytesPerBlock);
}

TEST(ResourceEstimation, ModelBreakdownCarriesTheEstimate) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  BlockConfig Config;
  Config.BT = 4;
  Config.BS = {256};
  Config.HS = 0;
  ModelBreakdown Out = evaluateModel(*P, GpuSpec::teslaV100(), Config,
                                     ProblemSize::paperDefault(2));
  ASSERT_TRUE(Out.Feasible);
  ASSERT_TRUE(Out.Resources.Valid);
  EXPECT_EQ(Out.Resources.RegistersPerThread,
            an5dRegistersPerThread(*P, Config.BT));
  EXPECT_EQ(Out.Resources.SmemBytesPerBlock,
            an5dSmemBytesPerBlock(*P, Config.numThreads()));
}

TEST(ResourceEstimation, A301FiresOnRegisterOverflow) {
  // Double-precision star2d4r at bT=16: 2*16*9 + 16 + 30 = 334 registers
  // per thread, far past the 255-register ISA encoding bound.
  auto P = makeBenchmarkStencil("star2d4r", ScalarType::Double);
  BlockConfig Config;
  Config.BT = 16;
  Config.BS = {512};
  Config.HS = 0;
  ASSERT_TRUE(Config.isFeasible(P->radius()));
  ASSERT_GT(an5dRegistersPerThread(*P, Config.BT), 255);
  ScheduleIR IR = lowerSchedule(*P, Config);
  AnalysisInput Input;
  Input.Program = P.get();
  Input.Schedule = &IR;
  AnalysisReport Report = AnalysisPassManager::standardPipeline().run(Input);
  EXPECT_TRUE(Report.hasFinding("AN5D-A301")) << Report.toString();
  EXPECT_TRUE(Report.proven()) << "register pressure is advisory for the "
                                  "tuner (the model prunes it)";
}

TEST(ResourceEstimation, A302FiresOnLowArithmeticIntensity) {
  // star1d1r at bT=1: ~5 FLOP against 16 amortized gmem bytes per cell.
  auto P = makeBenchmarkStencil("star1d1r", ScalarType::Float);
  BlockConfig Config;
  Config.BT = 1;
  Config.BS = {};
  Config.HS = 0;
  ScheduleIR IR = lowerSchedule(*P, Config);
  ResourceEstimate E = estimateResources(*P, IR);
  ASSERT_TRUE(E.Valid);
  ASSERT_LT(E.ArithmeticIntensity, 1.0);
  AnalysisInput Input;
  Input.Program = P.get();
  Input.Schedule = &IR;
  AnalysisReport Report = AnalysisPassManager::standardPipeline().run(Input);
  EXPECT_TRUE(Report.hasFinding("AN5D-A302")) << Report.toString();
  EXPECT_TRUE(Report.proven());
}

TEST(ResourceEstimation, InvalidOnDegenerateSchedule) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  BlockConfig Config;
  Config.BT = 0; // lowers to an empty invocation list
  Config.BS = {64};
  ScheduleIR IR = lowerSchedule(*P, Config);
  ResourceEstimate E = estimateResources(*P, IR);
  EXPECT_FALSE(E.Valid);
}

//===----------------------------------------------------------------------===//
// Tuner integration: the pipeline gates candidates pre-JIT
//===----------------------------------------------------------------------===//

TEST(AnalysisTunerGate, EnumeratedCandidatesAreNeverRejected) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  Tuner T(GpuSpec::teslaV100());
  TuneOutcome Outcome = T.tune(*P, ProblemSize::paperDefault(2));
  EXPECT_TRUE(Outcome.Feasible);
  EXPECT_EQ(Outcome.AnalysisRejections, 0u) << Outcome.FirstAnalysisRejection;
  EXPECT_TRUE(Outcome.FirstAnalysisRejection.empty());
  EXPECT_EQ(Outcome.VerifierRejections, 0u);
}

TEST(AnalysisTunerGate, SweepCandidatesCarryResourceFeatures) {
  auto P = makeBenchmarkStencil("star2d2r", ScalarType::Float);
  Tuner T(GpuSpec::teslaV100());
  TuneOutcome Outcome = T.tune(*P, ProblemSize::paperDefault(2));
  ASSERT_TRUE(Outcome.Feasible);
  ASSERT_FALSE(Outcome.TopByModel.empty());
  // Every surviving model-ranked candidate was re-estimated from its
  // lowered schedule on the way into the measured sweep.
  const RankedConfig &Best = Outcome.TopByModel.front();
  EXPECT_TRUE(Best.Model.Resources.Valid);
  EXPECT_EQ(Best.Model.Resources.RegistersPerThread,
            an5dRegistersPerThread(*P, Best.Config.BT));
}

//===----------------------------------------------------------------------===//
// Fixed-seed fuzzing: DSL programs and tape corruptions
//===----------------------------------------------------------------------===//

namespace {

/// Deliberate corruptions with known-graceful failure modes (each trips a
/// parser or extractor diagnostic, never an assert).
enum class SourceCorruption {
  None,
  DropSemicolon,
  UnbalanceParen,
  TimeVarInValue,
  LoopVarAsCoefficient,
  ModuloInValue,
  Count,
};

std::string makeRandomStencilSource(std::mt19937 &Rng,
                                    SourceCorruption Corruption) {
  std::uniform_int_distribution<int> DimDist(1, 3);
  std::uniform_int_distribution<int> RadiusDist(1, 2);
  const int Dims = DimDist(Rng);
  const int Radius = RadiusDist(Rng);
  const char *Vars[] = {"i", "j", "k"};

  std::string Src = "for (t = 0; t < I_T; t++)\n";
  for (int D = 0; D < Dims; ++D) {
    Src += std::string(2 * (D + 1), ' ') + "for (" + Vars[D] + " = 1; " +
           Vars[D] + " <= I_S" + std::to_string(Dims - D) + "; " + Vars[D] +
           "++)\n";
  }

  auto Subscript = [&](const std::vector<int> &Offsets) {
    std::string Ref = "A[t%2]";
    for (int D = 0; D < Dims; ++D) {
      Ref += "[" + std::string(Vars[D]);
      if (Offsets[D] > 0)
        Ref += "+" + std::to_string(Offsets[D]);
      else if (Offsets[D] < 0)
        Ref += std::to_string(Offsets[D]);
      Ref += "]";
    }
    return Ref;
  };

  std::string Lhs = "A[(t+1)%2]";
  for (int D = 0; D < Dims; ++D)
    Lhs += "[" + std::string(Vars[D]) + "]";

  std::uniform_int_distribution<int> TermDist(1, 6);
  std::uniform_int_distribution<int> OffsetDist(-Radius, Radius);
  std::uniform_int_distribution<int> CoefDist(1, 99);
  const int Terms = TermDist(Rng);
  std::string Rhs;
  for (int T = 0; T < Terms; ++T) {
    std::vector<int> Offsets(Dims, 0);
    // Star-style taps keep one axis active so the extractor's shape
    // classification stays within supported territory.
    Offsets[static_cast<std::size_t>(T) % Dims] = OffsetDist(Rng);
    if (T > 0)
      Rhs += (Rng() % 2 ? " + " : " - ");
    Rhs += "0." + std::to_string(CoefDist(Rng)) + "f * " + Subscript(Offsets);
  }
  // Ensure at least one tap reads the center cell (keeps the program
  // non-degenerate whatever the offsets rolled above).
  Rhs += " + 0.5f * " + Subscript(std::vector<int>(Dims, 0));

  switch (Corruption) {
  case SourceCorruption::TimeVarInValue:
    Rhs += " + t";
    break;
  case SourceCorruption::LoopVarAsCoefficient:
    Rhs += " + " + std::string(Vars[0]);
    break;
  case SourceCorruption::ModuloInValue:
    Rhs += " % 2";
    break;
  default:
    break;
  }

  Src += std::string(2 * (Dims + 1), ' ') + Lhs + " = " + Rhs +
         (Corruption == SourceCorruption::DropSemicolon ? "\n" : ";\n");
  if (Corruption == SourceCorruption::UnbalanceParen) {
    std::size_t Paren = Src.find('(');
    Src[Paren] = ' ';
  }
  return Src;
}

} // namespace

TEST(AnalysisFuzz, RandomDslProgramsNeverCrashTheFrontend) {
  std::mt19937 Rng(0xA5D51u); // fixed seed: reproducible corpus
  int Extracted = 0, Rejected = 0;
  for (int Iter = 0; Iter < 300; ++Iter) {
    // Half the corpus stays uncorrupted so both outcomes get coverage.
    SourceCorruption Corruption =
        (Rng() % 2) ? SourceCorruption::None
                    : static_cast<SourceCorruption>(
                          1 + Rng() % (static_cast<unsigned>(
                                           SourceCorruption::Count) -
                                       1));
    std::string Src = makeRandomStencilSource(Rng, Corruption);

    DiagnosticEngine Diags;
    StencilExtractor Extractor(Diags);
    auto Result =
        Extractor.extractFromSource(Src, "fuzz" + std::to_string(Iter));

    if (Result) {
      // Success implies a TapeVerifier-clean plan (extraction re-verifies
      // at lowering time and refuses anything the interpreter refutes).
      AnalysisReport Report = verifyTape(factsOf(*Result->Program));
      EXPECT_EQ(Report.errorCount(), 0u)
          << "iteration " << Iter << "\n"
          << Src << Report.toString();
      ++Extracted;
    } else {
      EXPECT_TRUE(Diags.hasErrors())
          << "iteration " << Iter
          << ": rejection without a structured diagnostic\n"
          << Src;
      ++Rejected;
    }
    if (Corruption == SourceCorruption::None)
      EXPECT_TRUE(Result.has_value())
          << "iteration " << Iter << ": uncorrupted program rejected\n"
          << Src << Diags.toString();
  }
  // The corpus must exercise both outcomes or the loop proves nothing.
  EXPECT_GT(Extracted, 50);
  EXPECT_GT(Rejected, 50);
}

TEST(AnalysisFuzz, RandomTapeCorruptionsNeverCrashTheVerifier) {
  auto P = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
  const TapeFacts Pristine = factsOf(*P);
  std::mt19937 Rng(0xA5D52u); // fixed seed: reproducible corpus
  for (int Iter = 0; Iter < 500; ++Iter) {
    TapeFacts Facts = Pristine;
    std::uniform_int_distribution<int> MutationCount(1, 3);
    for (int M = MutationCount(Rng); M > 0; --M) {
      switch (Rng() % 8) {
      case 0:
        if (!Facts.Ops.empty())
          Facts.Ops[Rng() % Facts.Ops.size()].Kind =
              static_cast<TapeOpKind>(Rng() % 17);
        break;
      case 1:
        if (!Facts.Ops.empty())
          Facts.Ops[Rng() % Facts.Ops.size()].Arg =
              static_cast<std::uint16_t>(Rng() % 1000);
        break;
      case 2:
        if (!Facts.Ops.empty())
          Facts.Ops.erase(Facts.Ops.begin() +
                          static_cast<long>(Rng() % Facts.Ops.size()));
        break;
      case 3:
        Facts.Ops.push_back(TapeOp{static_cast<TapeOpKind>(Rng() % 17),
                                   static_cast<std::uint16_t>(Rng() % 64)});
        break;
      case 4:
        Facts.MaxStackDepth += static_cast<int>(Rng() % 7) - 3;
        break;
      case 5:
        if (!Facts.Constants.empty())
          Facts.Constants[Rng() % Facts.Constants.size()] =
              (Rng() % 2) ? std::numeric_limits<double>::infinity() : -1.0;
        break;
      case 6:
        if (!Facts.Taps.empty()) {
          std::vector<int> &Tap = Facts.Taps[Rng() % Facts.Taps.size()];
          if (Rng() % 2 && !Tap.empty())
            Tap.pop_back();
          else
            Tap.push_back(static_cast<int>(Rng() % 9) - 4);
        }
        break;
      default:
        Facts.HasConstantDivision = !Facts.HasConstantDivision;
        break;
      }
    }
    // Whatever the corruption, the verifier must terminate with a
    // well-formed, JSON-renderable report — never crash or hang.
    AnalysisReport Report = verifyTape(Facts);
    std::string Rendered = Report.toString();
    EXPECT_FALSE(Rendered.empty());
    std::string Error;
    EXPECT_TRUE(obs::parseJson(Report.toJson(), &Error).has_value())
        << Error << " in iteration " << Iter;
  }
}

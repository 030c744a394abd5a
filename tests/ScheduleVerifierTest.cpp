//===- ScheduleVerifierTest.cpp - The one schedule checker ----------------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// verifyScheduleIR end to end:
///
///  - configuration-level verdicts: host-schedule proofs, non-positive bT,
///    arity mismatch and halo-consuming blocks;
///  - mutation tests: corrupt one invariant of a known-good lowered IR (2D
///    j2d5pt, or the 1D star1d1r stream) and assert the exact set of
///    AN5D-A2xx Error IDs that catch it. Subjects name axes with axis 0 as
///    the streaming axis.
///
/// The property over every builtin x enumerated configuration (proven iff
/// feasible) lives in ScheduleIrTest.
///
//===----------------------------------------------------------------------===//

#include "analysis/ScheduleVerifier.h"
#include "stencils/Benchmarks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <set>

using namespace an5d;

namespace {

/// A known-good lowered IR the mutation tests corrupt one field at a time:
/// j2d5pt (radius 1) at bT=2 bS=64, or the 1D pure-streaming star1d1r at
/// bT=2 hS=8.
struct GoodSchedule {
  std::unique_ptr<StencilProgram> Program;
  ScheduleIR IR;

  explicit GoodSchedule(long long HS = 0) {
    Program = makeBenchmarkStencil("j2d5pt", ScalarType::Float);
    BlockConfig Config;
    Config.BT = 2;
    Config.BS = {64};
    Config.HS = HS;
    IR = lowerSchedule(*Program, Config);
  }

  static GoodSchedule stream1d() {
    GoodSchedule S;
    S.Program = makeBenchmarkStencil("star1d1r", ScalarType::Float);
    BlockConfig Config;
    Config.BT = 2;
    Config.BS.clear();
    Config.HS = 8;
    S.IR = lowerSchedule(*S.Program, Config);
    return S;
  }

  /// Shared invariants must change on the IR and every invocation in
  /// lockstep, or AN5D-A210 (structural disagreement) fires instead of
  /// the invariant check under test.
  template <typename Fn> void mutateShared(Fn &&Mutate) {
    Mutate(IR.GridHalo, IR.RingDepth, IR.Radius, IR.HaloPolicy);
    for (InvocationSchedule &Inv : IR.Invocations)
      Mutate(Inv.GridHalo, Inv.RingDepth, Inv.Radius, Inv.HaloPolicy);
  }

  /// The degree-\p Degree invocation, for single-degree corruptions.
  InvocationSchedule &at(int Degree) {
    return IR.Invocations[static_cast<std::size_t>(Degree) - 1];
  }

  AnalysisReport verify(const ProblemSize *Problem = nullptr) const {
    return verifyScheduleIR(IR, Problem);
  }
};

using IdSet = std::set<std::string>;

/// The distinct IDs of \p Report's findings; every schedule-verifier
/// finding is an Error.
IdSet ids(const AnalysisReport &Report) {
  IdSet Out;
  for (const AnalysisFinding &F : Report.Findings) {
    EXPECT_EQ(F.Severity, FindingSeverity::Error) << F.toString();
    EXPECT_EQ(F.Pass, "schedule-verifier") << F.toString();
    Out.insert(F.Id);
  }
  return Out;
}

/// Asserts that \p Report carries exactly the Error IDs \p Expected.
void expectIds(const AnalysisReport &Report, const IdSet &Expected) {
  EXPECT_EQ(ids(Report), Expected) << Report.toString();
  EXPECT_FALSE(Report.proven()) << Report.toString();
}

bool anySubject(const AnalysisReport &Report, const std::string &Subject) {
  return std::any_of(
      Report.Findings.begin(), Report.Findings.end(),
      [&](const AnalysisFinding &F) { return F.Subject == Subject; });
}

ProblemSize problem2d(long long TimeSteps) {
  ProblemSize Problem;
  Problem.Extents = {512, 512};
  Problem.TimeSteps = TimeSteps;
  return Problem;
}

} // namespace

//===----------------------------------------------------------------------===//
// Configuration-level verdicts
//===----------------------------------------------------------------------===//

TEST(ScheduleVerifier, ProvenConfigsIncludeHostScheduleCheck) {
  auto P = makeJacobi2d5pt(ScalarType::Float);
  BlockConfig C;
  C.BT = 4;
  C.BS = {128};
  C.HS = 256;
  ProblemSize Problem = problem2d(1000);
  ScheduleIR IR = lowerSchedule(*P, C);
  AnalysisReport Verdict = verifyScheduleIR(IR, &Problem);
  EXPECT_TRUE(Verdict.Findings.empty()) << Verdict.toString();
  EXPECT_EQ(IR.Invocations.size(), 4u);
}

TEST(ScheduleVerifier, RejectsNonPositiveTemporalDegree) {
  auto P = makeJacobi2d5pt(ScalarType::Float);
  BlockConfig C;
  C.BT = 0;
  C.BS = {64};
  expectIds(verifyScheduleIR(lowerSchedule(*P, C)), {"AN5D-A210"});
}

TEST(ScheduleVerifier, RejectsArityMismatch) {
  auto P = makeJacobi2d5pt(ScalarType::Float);
  BlockConfig C;
  C.BT = 2;
  C.BS.clear(); // 2D stencil needs one blocked dimension.
  C.HS = 128;
  expectIds(verifyScheduleIR(lowerSchedule(*P, C)), {"AN5D-A210"});
}

TEST(ScheduleVerifier, RejectsHaloConsumingBlock) {
  auto P = makeJacobi2d5pt(ScalarType::Float); // radius 1
  BlockConfig C;
  C.BT = 4;
  C.BS = {8}; // 8 - 2*4*1 = 0: no compute region at full degree.
  C.HS = 128;
  EXPECT_FALSE(C.isFeasible(P->radius(), INT_MAX));
  AnalysisReport Verdict = verifyScheduleIR(lowerSchedule(*P, C));
  expectIds(Verdict, {"AN5D-A210"});
  // Only the degrees whose halo overflows the block are flagged: degree 4
  // needs 8 halo lanes, degree 3 needs 6 (leaving width 2). The partial
  // degrees stay safe, and each finding names the offending degree.
  for (const AnalysisFinding &F : Verdict.Findings)
    EXPECT_EQ(F.Subject, "degree 4") << F.toString();
}

//===----------------------------------------------------------------------===//
// Mutations: one corrupted invariant, the exact Error IDs
//===----------------------------------------------------------------------===//

TEST(ScheduleVerifier, GoodSchedulesAreProven) {
  ProblemSize Problem = problem2d(7);
  for (const GoodSchedule &S :
       {GoodSchedule(), GoodSchedule(/*HS=*/128), GoodSchedule::stream1d()}) {
    AnalysisReport Report = S.verify(&Problem);
    EXPECT_TRUE(Report.Findings.empty()) << Report.toString();
  }
}

TEST(ScheduleVerifier, ShallowRingIsClobbered) {
  GoodSchedule S;
  // 2*rad + 1 -> 2*rad: the consumer's oldest plane is overwritten.
  S.mutateShared([](long long &, long long &RingDepth, int &,
                    ScheduleHaloPolicy &) { --RingDepth; });
  expectIds(S.verify(), {"AN5D-A204"});
}

TEST(ScheduleVerifier, ShrunkTierReachViolatesProducerRegion) {
  GoodSchedule S; // degree 2: tier 1 reach = rad.
  --S.at(2).Tiers[0].Reach;
  // Tier 2's taps now escape tier 1's valid region. Reach is one value
  // for every axis, so the streaming axis sees it as well.
  AnalysisReport Report = S.verify();
  expectIds(Report, {"AN5D-A213", "AN5D-A214"});
  EXPECT_TRUE(anySubject(Report, "degree 2 tier 2 axis 1"));
  EXPECT_TRUE(anySubject(Report, "degree 2 tier 2 axis 0"));
}

TEST(ScheduleVerifier, ShrunkLoadSpanUnderflowsTheRing) {
  GoodSchedule S;
  --S.at(1).LoadSpanHalo; // Tier 1's leftmost tap reads an unloaded lane.
  AnalysisReport Report = S.verify();
  expectIds(Report, {"AN5D-A206"});
  ASSERT_EQ(Report.Findings.size(), 1u);
  EXPECT_EQ(Report.Findings.front().Subject, "degree 1 tier 1 axis 1");
}

TEST(ScheduleVerifier, ShrunkGridHaloIsCaughtOn1d) {
  GoodSchedule S = GoodSchedule::stream1d();
  // A zero halo cannot hold radius-1 stream taps (boundary pinning).
  S.mutateShared([](long long &GridHalo, long long &, int &,
                    ScheduleHaloPolicy &) { --GridHalo; });
  AnalysisReport Report = S.verify();
  expectIds(Report, {"AN5D-A203"});
  EXPECT_TRUE(anySubject(Report, "degree 1 axis 0"));
}

TEST(ScheduleVerifier, SwappedWaveOrderIsCaught) {
  GoodSchedule S; // degree 2
  // Tier 1 now runs *after* tier 2 within a streaming step, so tier 2's
  // same-step read of its producer's newest plane breaks.
  std::swap(S.at(2).Tiers[0].OrderPosition, S.at(2).Tiers[1].OrderPosition);
  AnalysisReport Report = S.verify();
  expectIds(Report, {"AN5D-A205"});
  EXPECT_TRUE(anySubject(Report, "degree 2 tier 2 axis 0"));

  // A tie is no order at all: the producer does not provably run first.
  GoodSchedule Tied;
  Tied.at(2).Tiers[1].OrderPosition = Tied.at(2).Tiers[0].OrderPosition;
  expectIds(Tied.verify(), {"AN5D-A205"});
}

TEST(ScheduleVerifier, SwappedStreamLagsAreCaught) {
  GoodSchedule S; // degree 2
  // Tier 2 now runs *ahead* of tier 1 in the stream (it reads planes its
  // producer has not written), and tier 1 lags the load by 2*rad planes,
  // which its own ring cannot span.
  std::swap(S.at(2).Tiers[0].StreamLag, S.at(2).Tiers[1].StreamLag);
  expectIds(S.verify(), {"AN5D-A204", "AN5D-A205"});
}

TEST(ScheduleVerifier, OverlappingBlocksAreARace) {
  GoodSchedule S;
  --S.at(2).BlockStride[0]; // Adjacent blocks now share one written lane.
  AnalysisReport Report = S.verify();
  expectIds(Report, {"AN5D-A209"});
  ASSERT_EQ(Report.Findings.size(), 1u);
  EXPECT_EQ(Report.Findings.front().Subject, "degree 2 axis 1");
  EXPECT_NE(Report.Findings.front().Message.find("both write 1 cell"),
            std::string::npos)
      << Report.toString();
}

TEST(ScheduleVerifier, StretchedBlockStrideLeavesAGap) {
  GoodSchedule S;
  ++S.at(2).BlockStride[0];
  AnalysisReport Report = S.verify();
  expectIds(Report, {"AN5D-A209"});
  EXPECT_NE(Report.toString().find("unwritten"), std::string::npos);
}

TEST(ScheduleVerifier, WidenedStoreIsARace) {
  GoodSchedule S;
  // Stores one lane into the neighbor's region, a lane the final tier
  // never computed.
  ++S.at(2).StoreWidth[0];
  expectIds(S.verify(), {"AN5D-A208", "AN5D-A209"});
}

TEST(ScheduleVerifier, OverlappingChunksAreARace) {
  GoodSchedule S = GoodSchedule::stream1d();
  --S.at(2).ChunkStride;
  AnalysisReport Report = S.verify();
  expectIds(Report, {"AN5D-A209"});
  ASSERT_EQ(Report.Findings.size(), 1u);
  EXPECT_EQ(Report.Findings.front().Subject, "degree 2 axis 0");
}

TEST(ScheduleVerifier, StretchedChunkStrideLeavesAGap) {
  GoodSchedule S = GoodSchedule::stream1d();
  ++S.at(2).ChunkStride;
  AnalysisReport Report = S.verify();
  expectIds(Report, {"AN5D-A209"});
  EXPECT_NE(Report.toString().find("unwritten"), std::string::npos);
}

TEST(ScheduleVerifier, MissingTierIsMalformed) {
  GoodSchedule S; // degree 2, two tiers
  S.at(2).Tiers.pop_back();
  expectIds(S.verify(), {"AN5D-A210"});
}

TEST(ScheduleVerifier, ExtraBlockedAxisIsMalformed) {
  GoodSchedule S = GoodSchedule::stream1d();
  S.at(1).BS.push_back(10); // A 1D stream has no blocked axes.
  expectIds(S.verify(), {"AN5D-A210"});
}

TEST(ScheduleVerifier, FindingsRenderAsDiagnostics) {
  GoodSchedule S;
  S.mutateShared([](long long &, long long &RingDepth, int &,
                    ScheduleHaloPolicy &) { --RingDepth; });
  AnalysisReport Report = S.verify();
  ASSERT_FALSE(Report.proven());
  DiagnosticEngine Diags;
  Report.render(Diags);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), Report.Findings.size());
  EXPECT_NE(Diags.toString().find("[AN5D-A204]"), std::string::npos);
}

TEST(ScheduleVerifier, A201StreamLoadsPastAllocation) {
  GoodSchedule S;
  S.mutateShared([](long long &GridHalo, long long &, int &,
                    ScheduleHaloPolicy &) { GridHalo += 1; });
  expectIds(S.verify(), {"AN5D-A201"});
}

TEST(ScheduleVerifier, A202BlockedLoadsPastAllocation) {
  GoodSchedule S;
  S.mutateShared([](long long &, long long &, int &Radius,
                    ScheduleHaloPolicy &) { Radius += 1; });
  expectIds(S.verify(), {"AN5D-A202"});
}

TEST(ScheduleVerifier, A203GridHaloBelowWidestTap) {
  GoodSchedule S;
  S.mutateShared([](long long &GridHalo, long long &, int &,
                    ScheduleHaloPolicy &) { GridHalo = 0; });
  AnalysisReport Report = S.verify();
  // The shrunk halo stays inside the allocation (no AN5D-A201) but no
  // longer holds the taps of either axis.
  expectIds(Report, {"AN5D-A203"});
  EXPECT_TRUE(anySubject(Report, "degree 2 axis 0"));
  EXPECT_TRUE(anySubject(Report, "degree 2 axis 1"));
}

TEST(ScheduleVerifier, A204RingTooShallowOn1dStream) {
  GoodSchedule S = GoodSchedule::stream1d();
  S.mutateShared([](long long &, long long &RingDepth, int &,
                    ScheduleHaloPolicy &) { RingDepth -= 1; });
  expectIds(S.verify(), {"AN5D-A204"});
}

TEST(ScheduleVerifier, A205ConsumerOutrunsProducer) {
  GoodSchedule S;
  // Both tiers move one plane up the stream: with lag 0, tier 1 reads
  // plane s+1 at step s, one step before the load stage writes it.
  S.at(2).Tiers[0].StreamLag = 0;
  S.at(2).Tiers[1].StreamLag = 1;
  AnalysisReport Report = S.verify();
  expectIds(Report, {"AN5D-A205"});
  EXPECT_TRUE(anySubject(Report, "degree 2 tier 1 axis 0"));
}

TEST(ScheduleVerifier, A206RingLaneUnderflow) {
  GoodSchedule S;
  S.at(2).LoadSpanHalo -= 1;
  AnalysisReport Report = S.verify();
  expectIds(Report, {"AN5D-A206"});
  EXPECT_TRUE(anySubject(Report, "degree 2 tier 1 axis 1"));
}

TEST(ScheduleVerifier, A207RingLaneOverflow) {
  GoodSchedule S;
  // Tier 1 needs exactly BS lanes (halo + compute + reach + tap), so any
  // shrink of the loaded span overflows the span's last lanes.
  S.at(2).BS[0] -= 2;
  expectIds(S.verify(), {"AN5D-A207"});
}

TEST(ScheduleVerifier, A208StoreWiderThanCompute) {
  GoodSchedule S;
  // Stride and store widen together: the tiling stays a partition, but
  // the final tier stores a lane it never computed.
  S.at(1).StoreWidth[0] += 1;
  S.at(1).BlockStride[0] += 1;
  expectIds(S.verify(), {"AN5D-A208"});
}

TEST(ScheduleVerifier, A209ChunkStrideGapIsError) {
  GoodSchedule S(/*HS=*/128);
  ASSERT_GT(S.at(1).ChunkLength, 0);
  S.at(1).ChunkStride += 16; // 16 sub-planes per chunk are never written.
  expectIds(S.verify(), {"AN5D-A209"});
}

TEST(ScheduleVerifier, A210StructurallyMalformed) {
  {
    GoodSchedule S;
    S.IR.Invocations.clear();
    expectIds(S.verify(), {"AN5D-A210"});
  }
  {
    GoodSchedule S;
    S.at(2).Taps.front().push_back(0); // a 3-component tap in 2D
    expectIds(S.verify(), {"AN5D-A210"});
  }
}

TEST(ScheduleVerifier, A211HaloPolicyContradictsShape) {
  GoodSchedule S;
  S.mutateShared([](long long &, long long &, int &,
                    ScheduleHaloPolicy &Policy) {
    Policy = ScheduleHaloPolicy::PinBoundaryOnly;
  });
  expectIds(S.verify(), {"AN5D-A211"});
}

TEST(ScheduleVerifier, A212HostScheduleNeedsEveryIssuedDegree) {
  GoodSchedule S; // bT = 2
  S.IR.Invocations.pop_back(); // no degree-2 invocation left
  // One time-step issues a single degree-1 call: still covered.
  ProblemSize OneStep = problem2d(1);
  EXPECT_TRUE(S.verify(&OneStep).Findings.empty());
  // Four time-steps issue two degree-2 calls the IR cannot run.
  ProblemSize FourSteps = problem2d(4);
  AnalysisReport Report = S.verify(&FourSteps);
  expectIds(Report, {"AN5D-A212"});
  EXPECT_TRUE(anySubject(Report, "host schedule"));
  // Without a problem the host schedule is out of scope.
  EXPECT_TRUE(S.verify().Findings.empty());
}

TEST(ScheduleVerifier, A213TierReadsOutsideProducerRegion) {
  GoodSchedule S;
  // Keep only the in-plane taps, so the streaming axis reads no
  // neighbour planes and the corruption below is visible on axis 1 only.
  std::vector<std::vector<int>> &Taps = S.at(2).Taps;
  Taps.erase(std::remove_if(Taps.begin(), Taps.end(),
                            [](const std::vector<int> &Tap) {
                              return Tap[0] != 0;
                            }),
             Taps.end());
  ASSERT_TRUE(S.verify().Findings.empty()) << S.verify().toString();
  --S.at(2).Tiers[0].Reach;
  AnalysisReport Report = S.verify();
  expectIds(Report, {"AN5D-A213"});
  EXPECT_TRUE(anySubject(Report, "degree 2 tier 2 axis 1"));
}

TEST(ScheduleVerifier, A214StreamReadsOutsideProducerReach) {
  GoodSchedule S = GoodSchedule::stream1d();
  // The load stage now stops one plane short of what tier 1 reads.
  --S.at(2).LoadStreamReach;
  AnalysisReport Report = S.verify();
  expectIds(Report, {"AN5D-A214"});
  EXPECT_TRUE(anySubject(Report, "degree 2 tier 1 axis 0"));
}

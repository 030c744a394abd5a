//===- ScheduleVerifier.cpp - Static proof of N.5D schedule safety --------===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/ScheduleVerifier.h"

#include "obs/Metrics.h"
#include "sim/TimeBlockScheduler.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

using namespace an5d;
using std::to_string;

namespace {

void error(AnalysisReport &Report, const char *Id, std::string Subject,
           std::string Message) {
  AnalysisFinding F;
  F.Id = Id;
  F.Severity = FindingSeverity::Error;
  F.Pass = "schedule-verifier";
  F.Subject = std::move(Subject);
  F.Message = std::move(Message);
  Report.Findings.push_back(std::move(F));
}

/// Closed integer interval [Lo, Hi].
struct Span {
  long long Lo = 0;
  long long Hi = 0;

  bool within(const Span &Outer) const {
    return Lo >= Outer.Lo && Hi <= Outer.Hi;
  }
  std::string str() const {
    return "[" + to_string(Lo) + ", " + to_string(Hi) + "]";
  }
};

/// Minimum and maximum tap offset along \p Axis (0 = streaming); always
/// contains offset 0, the cell being updated.
Span tapRange(const std::vector<std::vector<int>> &Taps, std::size_t Axis) {
  Span R;
  for (const std::vector<int> &Tap : Taps) {
    R.Lo = std::min<long long>(R.Lo, Tap[Axis]);
    R.Hi = std::max<long long>(R.Hi, Tap[Axis]);
  }
  return R;
}

/// "degree D[ tier T][ axis A]": where a finding sits (axis 0 is the
/// streaming axis). Built only when a finding is reported.
std::string where(int Degree, int Tier = -1, std::size_t Axis = SIZE_MAX) {
  std::string Out = "degree " + to_string(Degree);
  if (Tier >= 0)
    Out += " tier " + to_string(Tier);
  if (Axis != SIZE_MAX)
    Out += " axis " + to_string(Axis);
  return Out;
}

/// AN5D-A210. Returns false when \p Inv is too malformed for the per-axis
/// and per-tier checks to index into it.
bool checkStructure(const ScheduleIR &IR, const InvocationSchedule &Inv,
                    AnalysisReport &Report) {
  auto Malformed = [&](std::string Message) {
    error(Report, "AN5D-A210", where(Inv.Degree), std::move(Message));
  };

  bool Ok = true;
  if (Inv.NumDims < 1 || Inv.Radius < 1 || Inv.Degree < 1) {
    Malformed("non-positive NumDims, Radius or Degree");
    Ok = false;
  }
  if (Inv.NumDims != IR.NumDims || Inv.Radius != IR.Radius ||
      Inv.GridHalo != IR.GridHalo || Inv.RingDepth != IR.RingDepth ||
      Inv.HaloPolicy != IR.HaloPolicy) {
    Malformed("invocation disagrees with the shared ScheduleIR invariants");
    Ok = false;
  }
  if (Inv.RingDepth < 1) {
    Malformed("ring depth must be at least 1");
    Ok = false;
  }
  if (Inv.GridHalo < 0 || Inv.LoadSpanHalo < 0 || Inv.LoadStreamReach < 0 ||
      Inv.ChunkLength < 0 || Inv.ChunkStride < 0) {
    Malformed("negative halo, reach or chunk field");
    Ok = false;
  }

  const std::size_t Blocked =
      Inv.NumDims > 1 ? static_cast<std::size_t>(Inv.NumDims - 1) : 0;
  if (Inv.BS.size() != Blocked || Inv.ComputeWidth.size() != Blocked ||
      Inv.BlockStride.size() != Blocked || Inv.StoreWidth.size() != Blocked) {
    Malformed("bS carries " + to_string(Inv.BS.size()) +
              " entries but the stencil has " + to_string(Blocked) +
              " non-streaming dimensions (or the per-axis widths disagree)");
    return false;
  }
  for (std::size_t A = 0; A < Blocked; ++A) {
    const std::string On = " on axis " + to_string(A + 1);
    if (Inv.ComputeWidth[A] < 1) {
      Malformed("compute width " + to_string(Inv.ComputeWidth[A]) + On +
                " is not positive: bS=" + to_string(Inv.BS[A]) +
                " cannot hold 2*" + to_string(Inv.Degree) + "*" +
                to_string(Inv.Radius) + " halo cells");
      Ok = false;
    } else if (Inv.BS[A] < 1 || Inv.BlockStride[A] < 1 ||
               Inv.StoreWidth[A] < 1) {
      Malformed("non-positive block span, stride or store width" + On);
      Ok = false;
    }
  }

  if (Inv.Tiers.size() != static_cast<std::size_t>(std::max(Inv.Degree, 0))) {
    Malformed("degree " + to_string(Inv.Degree) +
              " needs one computing tier per degree but the invocation has " +
              to_string(Inv.Tiers.size()));
    return false;
  }
  for (std::size_t T = 0; T < Inv.Tiers.size(); ++T) {
    if (Inv.Tiers[T].Tier != static_cast<int>(T) + 1) {
      Malformed("tier numbering broken at position " + to_string(T));
      Ok = false;
    }
    if (Inv.Tiers[T].StreamLag < 0 || Inv.Tiers[T].Reach < 0) {
      Malformed("negative stream lag or reach at tier " + to_string(T + 1));
      Ok = false;
    }
  }

  for (std::size_t K = 0; K < Inv.Taps.size(); ++K) {
    if (static_cast<int>(Inv.Taps[K].size()) != Inv.NumDims) {
      Malformed("tap " + to_string(K) + " arity does not match NumDims");
      return false;
    }
  }
  return Ok;
}

/// Every per-invocation check, A201-A211 and A213-A214.
void checkInvocation(const ScheduleIR &IR, const InvocationSchedule &Inv,
                     AnalysisReport &Report) {
  if (!checkStructure(IR, Inv, Report))
    return;
  const int D = Inv.Degree;
  const std::size_t NumDims = static_cast<std::size_t>(Inv.NumDims);
  const std::size_t Blocked = Inv.BS.size();

  // AN5D-A211: the 1D pure-streaming schedule (no blocked axes) is the
  // only shape without a spatial halo to carry.
  const bool WantsPin = Blocked == 0;
  const bool IsPin = Inv.HaloPolicy == ScheduleHaloPolicy::PinBoundaryOnly;
  if (WantsPin != IsPin)
    error(Report, "AN5D-A211", where(D),
          std::string("halo policy ") +
              scheduleHaloPolicyName(Inv.HaloPolicy) +
              (WantsPin ? " on a schedule with no blocked axes"
                        : " on a schedule with blocked axes"));

  // The buffers allocate the widest tap per side (sim/Grid's radius).
  std::vector<Span> Taps;
  long long AllocHalo = 0;
  for (std::size_t Axis = 0; Axis < NumDims; ++Axis) {
    Taps.push_back(tapRange(Inv.Taps, Axis));
    AllocHalo = std::max({AllocHalo, -Taps[Axis].Lo, Taps[Axis].Hi});
  }

  // AN5D-A201: tier-0 stream loads are clamped to [-GridHalo,
  // E-1+GridHalo], which must stay inside the allocation for every extent.
  if (Inv.GridHalo > AllocHalo)
    error(Report, "AN5D-A201", where(D, -1, 0),
          "stream-axis loads reach " + to_string(Inv.GridHalo) +
              " cells past the edge but only " + to_string(AllocHalo) +
              " are allocated");

  // AN5D-A202: blocked-axis loads are clipped by the Exists region
  // [-Radius, E+Radius) before touching the buffers.
  for (std::size_t Axis = 1; Axis < NumDims; ++Axis)
    if (Inv.Radius > AllocHalo)
      error(Report, "AN5D-A202", where(D, -1, Axis),
            "blocked-axis loads reach " + to_string(Inv.Radius) +
                " cells past the edge but only " + to_string(AllocHalo) +
                " are allocated");

  // AN5D-A203: every tap of a valid computation, and every boundary
  // pinning read, lands inside the grid halo.
  for (std::size_t Axis = 0; Axis < NumDims; ++Axis) {
    const long long Widest = std::max(-Taps[Axis].Lo, Taps[Axis].Hi);
    if (Inv.GridHalo < Widest)
      error(Report, "AN5D-A203", where(D, -1, Axis),
            "grid halo " + to_string(Inv.GridHalo) +
                " is smaller than the widest tap offset " + to_string(Widest));
  }

  // Per-tier pipeline checks. The producer of tier T is tier T-1; tier 1
  // consumes the tier-0 load stage (lag 0, position LoadOrderPosition,
  // stream reach LoadStreamReach).
  const Span StreamTap = Taps[0];
  for (std::size_t I = 0; I < Inv.Tiers.size(); ++I) {
    const TierSchedule &Tier = Inv.Tiers[I];
    const TierSchedule *Producer = I == 0 ? nullptr : &Inv.Tiers[I - 1];
    const int ProducerTier = Producer ? Producer->Tier : 0;
    const long long ProducerLag = Producer ? Producer->StreamLag : 0;
    const int ProducerPos =
        Producer ? Producer->OrderPosition : Inv.LoadOrderPosition;
    const long long ProducerReach =
        Producer ? Producer->Reach : Inv.LoadStreamReach;
    const long long LagDiff = Tier.StreamLag - ProducerLag;

    // AN5D-A205: at step s the consumer reads the producer's sub-plane
    // s - StreamLag + StreamTap.Hi. A same-step read needs the producer to
    // run earlier in the step; otherwise only step s-1 is written.
    const long long Newest =
        ProducerPos < Tier.OrderPosition ? LagDiff : LagDiff - 1;
    if (Newest < StreamTap.Hi)
      error(Report, "AN5D-A205", where(D, Tier.Tier, 0),
            "reads the sub-plane at stream tap " + to_string(StreamTap.Hi) +
                " before producer tier " + to_string(ProducerTier) +
                " has written it (lag difference " + to_string(LagDiff) +
                (ProducerPos < Tier.OrderPosition
                     ? ")"
                     : ", producer not ordered before the consumer)"));

    // AN5D-A204: the oldest consumed sub-plane s - StreamLag +
    // StreamTap.Lo is overwritten (slot reuse) RingDepth planes after
    // production; it must survive until the consumer's read. Equality is
    // tolerable only when the consumer runs before the producer within
    // the step.
    const long long LifetimeNeed = LagDiff - StreamTap.Lo;
    if (Inv.RingDepth < LifetimeNeed ||
        (Inv.RingDepth == LifetimeNeed && Tier.OrderPosition >= ProducerPos))
      error(Report, "AN5D-A204", where(D, Tier.Tier, 0),
            "ring depth " + to_string(Inv.RingDepth) +
                " cannot hold a sub-plane of producer tier " +
                to_string(ProducerTier) + " for the " +
                to_string(LifetimeNeed) +
                " steps between production and last read");

    // AN5D-A214: the tier's computed planes, widened by the stream taps,
    // must stay within what its producer covers around the chunk
    // (symbolic in the chunk bounds, so only the reach offsets compare).
    const Span StreamReads{-Tier.Reach + StreamTap.Lo,
                           Tier.Reach + StreamTap.Hi};
    const Span StreamCovered{-ProducerReach, ProducerReach};
    if (!StreamReads.within(StreamCovered))
      error(Report, "AN5D-A214", where(D, Tier.Tier, 0),
            "needs producer sub-planes at chunk offsets " +
                StreamReads.str() + " but tier " + to_string(ProducerTier) +
                " only covers " + StreamCovered.str());

    // Blocked axes: a tier evaluates lanes across its valid region
    // [-Reach, CW-1+Reach] and reads them widened by the taps. The reads
    // must fall inside the loaded span [-LoadSpanHalo, BS-1-LoadSpanHalo]
    // (the ring rows) and inside the producer tier's valid region.
    for (std::size_t A = 0; A < Blocked; ++A) {
      const Span &Tap = Taps[A + 1];
      const long long CW = Inv.ComputeWidth[A];
      const Span Reads{-Tier.Reach + Tap.Lo, CW - 1 + Tier.Reach + Tap.Hi};
      // AN5D-A206 / AN5D-A207: ring lane underflow / overflow.
      if (Reads.Lo < -Inv.LoadSpanHalo)
        error(Report, "AN5D-A206", where(D, Tier.Tier, A + 1),
              "ring lane underflow: load-span halo " +
                  to_string(Inv.LoadSpanHalo) + " does not cover reach " +
                  to_string(Tier.Reach) + " plus tap " + to_string(Tap.Lo));
      if (Reads.Hi > Inv.BS[A] - 1 - Inv.LoadSpanHalo)
        error(Report, "AN5D-A207", where(D, Tier.Tier, A + 1),
              "ring lane overflow: span needs " +
                  to_string(Inv.LoadSpanHalo + Reads.Hi + 1) +
                  " lanes but the block loads " + to_string(Inv.BS[A]));
      // AN5D-A213: tier 1 reads the loaded span itself; later tiers read
      // only what their producer computed.
      if (Producer) {
        const Span Produced{-Producer->Reach, CW - 1 + Producer->Reach};
        if (!Reads.within(Produced))
          error(Report, "AN5D-A213", where(D, Tier.Tier, A + 1),
                "reads lanes " + Reads.str() + " outside tier " +
                    to_string(ProducerTier) + "'s valid region " +
                    Produced.str());
      }
    }
  }

  // AN5D-A208 / AN5D-A209: stores come from computed cells, and the
  // chunk x block worksharing set partitions the interior: adjacent
  // strides neither overlap (a data race on `out`) nor leave gaps.
  auto Tiling = [&](std::size_t Axis, const char *Unit, long long Stride,
                    long long Width) {
    const std::string Detail =
        " (stride " + to_string(Stride) + ", width " + to_string(Width) + ")";
    if (Stride < Width)
      error(Report, "AN5D-A209", where(D, -1, Axis),
            "adjacent work items both write " + to_string(Width - Stride) +
                " " + Unit + ", a data race" + Detail);
    else if (Stride > Width)
      error(Report, "AN5D-A209", where(D, -1, Axis),
            "adjacent work items leave " + to_string(Stride - Width) + " " +
                Unit + " unwritten" + Detail);
  };
  for (std::size_t A = 0; A < Blocked; ++A) {
    if (Inv.StoreWidth[A] > Inv.ComputeWidth[A])
      error(Report, "AN5D-A208", where(D, -1, A + 1),
            "store width " + to_string(Inv.StoreWidth[A]) +
                " exceeds computed width " + to_string(Inv.ComputeWidth[A]));
    Tiling(A + 1, "cell(s)", Inv.BlockStride[A], Inv.StoreWidth[A]);
  }
  if (Inv.ChunkLength > 0)
    Tiling(0, "sub-plane(s)", Inv.ChunkStride, Inv.ChunkLength);
}

/// AN5D-A212: the Section 4.3.1 host schedule for \p TimeSteps keeps its
/// postconditions and only issues degrees the IR lowers.
void checkHostSchedule(const ScheduleIR &IR, long long TimeSteps,
                       AnalysisReport &Report) {
  const int BT = IR.Config.BT;
  const std::vector<int> Degrees = scheduleTimeBlocks(TimeSteps, BT);
  const std::string Subject = "host schedule";
  std::string Broken =
      describeBrokenTimeBlockSchedule(Degrees, TimeSteps, BT);
  if (!Broken.empty()) {
    error(Report, "AN5D-A212", Subject, std::move(Broken));
    return;
  }
  for (int Degree : Degrees) {
    const std::size_t Index = static_cast<std::size_t>(Degree) - 1;
    if (Index >= IR.Invocations.size() ||
        IR.Invocations[Index].Degree != Degree) {
      error(Report, "AN5D-A212", Subject,
            "issues a degree-" + to_string(Degree) +
                " call but the schedule lowers no invocation of that degree");
      return;
    }
  }
}

} // namespace

AnalysisReport an5d::verifyScheduleIR(const ScheduleIR &IR,
                                      const ProblemSize *Problem) {
  AnalysisReport Report;
  const BlockConfig &Config = IR.Config;
  if (Config.BT < 1 || IR.Invocations.empty()) {
    error(Report, "AN5D-A210", IR.StencilName,
          "schedule lowered no invocations (bT=" + to_string(Config.BT) +
              ")");
  } else if (static_cast<int>(Config.BS.size()) != IR.NumDims - 1) {
    error(Report, "AN5D-A210", IR.StencilName,
          "bS carries " + to_string(Config.BS.size()) + " entries but " +
              IR.StencilName + " has " + to_string(IR.NumDims - 1) +
              " non-streaming dimensions");
  } else {
    // The host schedule can issue any degree in [1, bT], so a config is
    // safe only when every degree's invocation is. The IR carries exactly
    // those invocations; nothing is re-lowered here.
    for (const InvocationSchedule &Inv : IR.Invocations)
      checkInvocation(IR, Inv, Report);
    if (Problem && Problem->TimeSteps > 0)
      checkHostSchedule(IR, Problem->TimeSteps, Report);
  }
  obs::count("verifier.checks");
  if (!Report.proven())
    obs::count("verifier.rejections");
  return Report;
}

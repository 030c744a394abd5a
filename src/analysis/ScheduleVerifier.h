//===- ScheduleVerifier.h - Static proof of N.5D schedule safety -*- C++ -*-===//
//
// Part of the AN5D reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one schedule checker: interval analysis over a lowered ScheduleIR
/// proving, before any kernel is compiled, the N.5D invariants of
/// Section 4 for every invocation degree the host schedule can issue:
///
///   1. every load stays inside the allocated halo (the bT x radius rule
///      for the padded global grid, the loaded block span and each tier's
///      shrinking valid region, including the 1D empty-bS streaming
///      schedule and boundary-plane pinning),
///   2. each tier's 2*radius + 1 register ring outlives every sub-plane a
///      consumer still reads (ring clobber),
///   3. wavefront order holds: no tier reads a sub-plane its producer has
///      not written by that streaming step, and
///   4. the write-sets of concurrently scheduled OpenMP work items (the
///      chunk x block worksharing set) are pairwise disjoint and gap-free.
///
/// The checker reads the exact InvocationSchedule objects the emulator and
/// both codegen backends render, so a proof here covers every consumer of
/// the IR. Every finding is an Error of pass "schedule-verifier"; axis 0
/// is the streaming axis, axes 1..N-1 the blocked ones. Finding IDs are
/// append-only (README "Static analysis passes"):
///
///   AN5D-A201  stream-axis loads reach past the allocated halo
///   AN5D-A202  blocked-axis loads reach past the allocated halo
///   AN5D-A203  grid halo smaller than the widest tap on an axis
///   AN5D-A204  ring too shallow for a consumed sub-plane's lifetime
///   AN5D-A205  tier consumes a sub-plane its producer has not written
///   AN5D-A206  ring lane underflow (load-span halo too small)
///   AN5D-A207  ring lane overflow (span exceeds the loaded block)
///   AN5D-A208  store width exceeds the computed width
///   AN5D-A209  block/chunk tiling overlaps (a race) or leaves gaps
///   AN5D-A210  schedule structurally malformed (arity, degree, tier
///              count, non-positive width)
///   AN5D-A211  halo policy inconsistent with the blocked-axis set
///   AN5D-A212  host time-block schedule broken for the problem
///   AN5D-A213  tier reads outside its producer tier's valid region
///   AN5D-A214  stream reads outside the producer's chunk reach
///
/// The allocation halo is the IR's widest tap, which is what sim/Grid
/// allocates. The IR's fields are plain mutable values so tests can
/// corrupt one invariant at a time and assert the matching ID.
///
//===----------------------------------------------------------------------===//

#ifndef AN5D_ANALYSIS_SCHEDULEVERIFIER_H
#define AN5D_ANALYSIS_SCHEDULEVERIFIER_H

#include "analysis/passes/AnalysisPass.h"
#include "schedule/ScheduleIR.h"

namespace an5d {

/// Verifies a lowered \p IR across every invocation degree it carries.
/// When \p Problem is non-null, additionally checks the Section 4.3.1
/// host schedule for Problem->TimeSteps (AN5D-A212). Thread caps are
/// deliberately out of scope: they are a hardware resource limit, not a
/// schedule-safety property (see BlockConfig::isFeasible). Counts
/// verifier.checks, and verifier.rejections when an error is found.
AnalysisReport verifyScheduleIR(const ScheduleIR &IR,
                                const ProblemSize *Problem = nullptr);

} // namespace an5d

#endif // AN5D_ANALYSIS_SCHEDULEVERIFIER_H

/**
 * @file
 * Bounded schedule-space explorer: systematic interleaving coverage for
 * tiny workloads, in the Landslide / iterative-context-bounding mold.
 *
 * The explorer runs the base interleaving under a recording
 * PlanScheduleController, then branches: every decision point (TX
 * begin/commit/abort, lock acquire/release, barrier) whose preemption
 * could matter spawns a child schedule that preempts there, up to
 * `preemptionBound` preemptions per schedule. Every branch replays its
 * plan in a fresh machine, depth first, on one host thread, so a
 * binding `maxSchedules` cut is deterministic.
 *
 * A sleep-set/DPOR-style independence filter prunes branches whose
 * event context provably cannot interact with any peer (disjoint
 * directory sharer masks / TX footprints and no lock traffic) — those
 * preemptions commute with every peer step and cannot reach a new
 * state. `dpor = false` turns the filter off for naive enumeration,
 * which the JSON report exposes so the pruning win is measurable.
 *
 * Every explored trace runs the trace_check invariant oracle; each
 * violation carries the plan (preempted decision indices) that
 * reproduces it deterministically via PlanScheduleController or a
 * schedule file.
 */

#ifndef HINTM_SIM_EXPLORER_HH
#define HINTM_SIM_EXPLORER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/machine.hh"
#include "sim/trace_check.hh"
#include "tir/ir.hh"

namespace hintm
{
namespace sim
{

struct ExploreOptions
{
    /** Max preemptions per schedule (iterative context bounding). */
    unsigned preemptionBound = 1;
    /** Hard cap on schedules run (0 = unlimited). */
    std::uint64_t maxSchedules = 4096;
    /** Per-trace cap on decision points considered for branching;
     * deeper ones still execute but spawn no children. */
    std::uint32_t maxBranchPoints = 4096;
    /** trace_check livelock threshold (0 disables). */
    unsigned livelockThreshold = 16;
    /** Independence filter on (DPOR-style pruning); false enumerates
     * every branch point naively. */
    bool dpor = true;
    /** Compare every trace's final globals against the base trace.
     * Disable for workloads whose final memory legitimately depends on
     * the schedule (e.g. guarded-read scaffolds). */
    bool compareFinalState = true;
};

/** One invariant violation (or warning) with its reproduction recipe. */
struct ExploreIssue
{
    TraceViolation violation;
    /** Decision indices whose preemption reproduces the trace. */
    std::vector<std::uint32_t> plan;
    /** Decision count of the offending trace. */
    std::uint32_t decisions = 0;
};

struct ExploreReport
{
    std::uint64_t schedulesRun = 0;
    /** Branch candidates seen (within bound and branch-point cap). */
    std::uint64_t branchPoints = 0;
    /** Candidates skipped by the independence filter. */
    std::uint64_t branchesPruned = 0;
    /** Candidates dropped by maxSchedules / maxBranchPoints caps. */
    std::uint64_t branchesCapped = 0;
    /** Violations and warnings, deduplicated by (kind, plan). */
    std::vector<ExploreIssue> issues;

    bool
    anyFatal() const
    {
        for (const ExploreIssue &i : issues) {
            if (i.violation.fatal)
                return true;
        }
        return false;
    }
};

/**
 * Explore @p module under @p cfg across scheduler interleavings.
 * @p cfg.scheduleController must be null (the explorer installs its
 * own); the journal is forced on (trace_check needs it).
 */
ExploreReport exploreSchedules(const MachineConfig &cfg,
                               const tir::Module &module,
                               unsigned num_threads,
                               const ExploreOptions &opt = {});

} // namespace sim
} // namespace hintm

#endif // HINTM_SIM_EXPLORER_HH

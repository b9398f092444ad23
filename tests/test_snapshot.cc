/**
 * @file
 * Property tests for machine snapshot/restore. The contract under test
 * is bit-identity: a machine restored from a mid-run snapshot must
 * produce exactly the RunResult of an uninterrupted cold run — cycles,
 * abort breakdowns, distributions, raw stats and final globals
 * included. Every observation sink is on, so the stats-JSON record and
 * the Perfetto trace must match as well. encodeRunResult() serializes
 * every persisted field, so string equality of the three exports is a
 * full-width comparison.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "../bench/result_store.hh"
#include "core/hintm.hh"
#include "sim/journal_io.hh"
#include "sim/snapshot.hh"
#include "workloads/workloads.hh"

using namespace hintm;

namespace
{

core::SystemOptions
observedOpts(htm::HtmKind kind)
{
    core::SystemOptions o;
    o.htmKind = kind;
    o.mechanism = core::Mechanism::Full;
    o.collectTxSizes = true;
    o.collectRawStats = true;
    o.profileSharing = true;
    o.journal = true;
    o.metrics = true;
    return o;
}

/** Every export of a run: its stats-JSON record, its Perfetto
 * timeline and its RunResult encoding. */
std::string
allExports(const sim::RunResult &r)
{
    const std::vector<sim::JournalRun> runs = {{"w", "c", 8, &r}};
    std::ostringstream trace;
    sim::writePerfettoTrace(trace, runs);
    return sim::statsJsonRecord(runs[0]) + "\n" + trace.str() + "\n" +
           bench::encodeRunResult(r);
}

void
expectSameResult(const sim::RunResult &a, const sim::RunResult &b,
                 const std::string &what)
{
    // Spot checks first (readable failures), then the full exports.
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.committedTxs, b.committedTxs) << what;
    EXPECT_EQ(a.htm.totalAborts(), b.htm.totalAborts()) << what;
    EXPECT_EQ(a.rawStats, b.rawStats) << what;
    EXPECT_EQ(allExports(a), allExports(b)) << what;
}

} // namespace

TEST(Snapshot, RestoreIntoFreshMachineResumesBitIdentical)
{
    struct Case
    {
        const char *workload;
        htm::HtmKind kind;
        unsigned cores;
        bool journalAndMetrics;
    };
    // The 32-context case snapshots the directory machine with live
    // sharer/owner/tracker state. The last case leaves the journal and
    // metrics parts of the snapshot empty.
    for (const Case &c : {Case{"kmeans", htm::HtmKind::P8, 8, true},
                          Case{"kmeans", htm::HtmKind::L1TM, 8, true},
                          Case{"intruder", htm::HtmKind::P8, 8, true},
                          Case{"intruder", htm::HtmKind::L1TM, 8, true},
                          Case{"intruder@32", htm::HtmKind::P8S, 32, true},
                          Case{"kmeans", htm::HtmKind::P8S, 8, false}}) {
        const std::string what =
            std::string(c.workload) + "/" + htm::htmKindName(c.kind);
        workloads::Workload wl =
            workloads::byName(c.workload, workloads::Scale::Tiny);
        core::compileHints(wl.module);
        core::SystemOptions opts = observedOpts(c.kind);
        opts.numCores = c.cores;
        opts.journal = opts.metrics = c.journalAndMetrics;
        const sim::MachineConfig cfg = core::makeMachineConfig(opts);

        const sim::RunResult cold =
            sim::runMachine(cfg, wl.module, wl.threads);

        sim::SimRun a(cfg, wl.module, wl.threads);
        a.runUntilCommits(cold.committedTxs / 2);
        ASSERT_FALSE(a.finished()) << what;
        const sim::MachineSnapshot snap = a.snapshot();
        expectSameResult(cold, a.finish(), what + " self-resume");

        sim::SimRun b(cfg, wl.module, wl.threads);
        b.restore(snap);
        expectSameResult(cold, b.finish(), what + " fresh-restore");
    }
}

TEST(Snapshot, SchedulerIndexRidesThroughAtThirtyTwoContexts)
{
    // The event-driven scheduler index (bitmasks + readyAt heap) is
    // derived state: a snapshot stores only per-context
    // (done, atBarrier, readyAt) plus now/rr, and restore() rebuilds
    // the index from those. A mid-run restore on the 32-context
    // machine — heap populated, rotation pointer mid-cycle — must
    // finish bit-identical to the uninterrupted run, and the same
    // snapshot must also replay exactly under the reference scan
    // (cfg.schedIndex only selects how the identical schedule is
    // computed, so snapshots are interchangeable across it).
    workloads::Workload wl =
        workloads::byName("kmeans@32", workloads::Scale::Tiny);
    core::compileHints(wl.module);
    core::SystemOptions opts = observedOpts(htm::HtmKind::P8);
    opts.numCores = 32;
    const sim::MachineConfig cfg = core::makeMachineConfig(opts);
    ASSERT_TRUE(cfg.schedIndex);

    const sim::RunResult cold =
        sim::runMachine(cfg, wl.module, wl.threads);
    ASSERT_GT(cold.committedTxs, 0u);

    sim::SimRun a(cfg, wl.module, wl.threads);
    a.runUntilCommits(cold.committedTxs / 2);
    ASSERT_FALSE(a.finished());
    const sim::MachineSnapshot snap = a.snapshot();
    expectSameResult(cold, a.finish(), "32-context indexed self-resume");

    sim::SimRun b(cfg, wl.module, wl.threads);
    b.restore(snap);
    expectSameResult(cold, b.finish(),
                     "32-context indexed fresh-restore");

    sim::MachineConfig scan_cfg = cfg;
    scan_cfg.schedIndex = false;
    sim::SimRun c(scan_cfg, wl.module, wl.threads);
    c.restore(snap);
    expectSameResult(cold, c.finish(),
                     "32-context scan-restore of indexed snapshot");
}

TEST(Snapshot, ParkedLockWaitersRideThroughAtSixtyFourContexts)
{
    // The indexed loop parks fallback-lock waiters and wakes them at
    // each release with the exact readyAt spinning would have left.
    // vacation@64 keeps the lock busy at Tiny scale, so every chunk
    // parks and wakes waiters; each boundary's snapshot must resume
    // bit-identical in a fresh indexed machine and under the reference
    // scan, which steps every re-check.
    workloads::Workload wl =
        workloads::byName("vacation@64", workloads::Scale::Tiny);
    core::compileHints(wl.module);
    core::SystemOptions opts = observedOpts(htm::HtmKind::P8);
    opts.mechanism = core::Mechanism::Baseline;
    opts.numCores = 64;
    const sim::MachineConfig cfg = core::makeMachineConfig(opts);
    sim::MachineConfig scan_cfg = cfg;
    scan_cfg.schedIndex = false;

    const sim::RunResult cold =
        sim::runMachine(cfg, wl.module, wl.threads);
    ASSERT_GT(cold.fallbackRuns, 0u);

    sim::SimRun a(cfg, wl.module, wl.threads);
    for (std::uint64_t target = 8;; target += 8) {
        a.runUntilCommits(target);
        if (a.finished())
            break;
        const sim::MachineSnapshot snap = a.snapshot();
        const std::string at = " at " + std::to_string(target);
        sim::SimRun b(cfg, wl.module, wl.threads);
        b.restore(snap);
        expectSameResult(cold, b.finish(), "64-context indexed" + at);
        sim::SimRun c(scan_cfg, wl.module, wl.threads);
        c.restore(snap);
        expectSameResult(cold, c.finish(), "64-context scan" + at);
    }
    expectSameResult(cold, a.finish(), "64-context chunked run");
}

TEST(Snapshot, ChunkExitsHandBackParkedLockWaiters)
{
    // With eager lock subscription a chunk never ends with waiters
    // parked: its last commit either releases the lock (waking them
    // all) or runs while the lock is free. The seeded lazy-subscription
    // bug lets hardware TXs commit under a held lock, so one-commit
    // chunks end mid-convoy; every exit must restore each waiter's
    // exact readyAt or the chunked run drifts from the cold one.
    workloads::Workload wl =
        workloads::byName("vacation@64", workloads::Scale::Tiny);
    core::compileHints(wl.module);
    core::SystemOptions opts = observedOpts(htm::HtmKind::P8);
    opts.mechanism = core::Mechanism::Baseline;
    opts.numCores = 64;
    sim::MachineConfig cfg = core::makeMachineConfig(opts);
    cfg.unsafeLazySubscription = true;

    const sim::RunResult cold =
        sim::runMachine(cfg, wl.module, wl.threads);
    ASSERT_GT(cold.subscriptionViolations, 0u);

    sim::SimRun a(cfg, wl.module, wl.threads);
    for (std::uint64_t target = 1; !a.finished(); ++target)
        a.runUntilCommits(target);
    expectSameResult(cold, a.finish(), "one-commit chunks");
}

TEST(Snapshot, AllBlockedContextsPanicWithDiagnosticsDump)
{
    // A snapshot doctored so every live context waits at a barrier no
    // arrival will ever release is undispatchable. Both schedulers
    // must refuse to spin: the pick comes back empty and the machine
    // panics with the per-context diagnostics dump (readyAt, barrier,
    // TX and fallback state) instead of hanging or silently finishing.
    workloads::Workload wl =
        workloads::byName("kmeans", workloads::Scale::Tiny);
    core::compileHints(wl.module);
    const core::SystemOptions opts = observedOpts(htm::HtmKind::P8);
    sim::MachineConfig cfg = core::makeMachineConfig(opts);

    sim::SimRun probe(cfg, wl.module, wl.threads);
    probe.runUntilCommits(3);
    ASSERT_FALSE(probe.finished());
    sim::MachineSnapshot snap = probe.snapshot();
    for (sim::MachineContextSnapshot &cs : snap.ctxs)
        if (!cs.runtime.done)
            cs.runtime.atBarrier = true;

    for (const bool use_index : {true, false}) {
        cfg.schedIndex = use_index;
        sim::SimRun doomed(cfg, wl.module, wl.threads);
        doomed.restore(snap);
        try {
            doomed.finish();
            FAIL() << "deadlocked machine finished (schedIndex="
                   << use_index << ")";
        } catch (const std::logic_error &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("deadlock: all live contexts blocked"),
                      std::string::npos)
                << msg;
            // The dump must name every context with its
            // scheduler-visible state and the fallback-lock holder.
            EXPECT_NE(msg.find("fallbackLockHolder="),
                      std::string::npos)
                << msg;
            EXPECT_NE(msg.find("ctx 0: readyAt="), std::string::npos)
                << msg;
            EXPECT_NE(msg.find("atBarrier=1"), std::string::npos)
                << msg;
            EXPECT_NE(msg.find("retries="), std::string::npos) << msg;
        }
    }
}

TEST(Snapshot, FinishedResultSurvivesRestore)
{
    // A result handed out by finish() owns what it reports: restoring
    // the machine afterwards (as the explorer does between branches)
    // must not rewrite it.
    workloads::Workload wl =
        workloads::byName("kmeans", workloads::Scale::Tiny);
    core::compileHints(wl.module);
    const sim::MachineConfig cfg =
        core::makeMachineConfig(observedOpts(htm::HtmKind::P8));

    sim::SimRun run(cfg, wl.module, wl.threads);
    run.runUntilCommits(3);
    const sim::MachineSnapshot snap = run.snapshot();
    const sim::RunResult r1 = run.finish();
    const std::string before = allExports(r1);
    const std::uint64_t pushed = r1.journal->pushed();
    const std::uint64_t commits = r1.metrics->trackedAtCommit.count;

    run.restore(snap);
    EXPECT_EQ(r1.journal->pushed(), pushed);
    EXPECT_EQ(r1.metrics->trackedAtCommit.count, commits);
    EXPECT_EQ(allExports(r1), before);
    // The restored machine replays the same finish.
    EXPECT_EQ(allExports(run.finish()), before);
}

TEST(Snapshot, SnapshotItselfPerturbsNothing)
{
    workloads::Workload wl =
        workloads::byName("kmeans", workloads::Scale::Tiny);
    core::compileHints(wl.module);
    const core::SystemOptions opts = observedOpts(htm::HtmKind::P8S);
    const sim::MachineConfig cfg = core::makeMachineConfig(opts);

    const sim::RunResult cold =
        sim::runMachine(cfg, wl.module, wl.threads);

    // Snapshot at several points along one run; the run must still
    // finish exactly like a never-observed one.
    sim::SimRun a(cfg, wl.module, wl.threads);
    for (std::uint64_t target = 1; target < 8; target += 3) {
        a.runUntilCommits(target);
        (void)a.snapshot();
    }
    expectSameResult(cold, a.finish(), "observed-run");
}

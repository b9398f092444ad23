/**
 * @file
 * Schedule-explorer tests: default-controller bit-identity against the
 * controller-free scheduler paths, plan replay determinism, schedule-
 * file round-trips, the seeded-bug catches (hint-oracle race, lazy lock
 * subscription, convoy livelock), DPOR pruning soundness and its
 * independence from the hint oracle, and scheduler-index wake edge
 * cases under a non-default tie-break.
 */

#include <bit>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../bench/result_store.hh"
#include "core/hintm.hh"
#include "sim/explorer.hh"
#include "sim/sched_index.hh"
#include "sim/schedule.hh"
#include "sim/trace_check.hh"
#include "workloads/workloads.hh"

using namespace hintm;

namespace
{

void
expectSameResult(const sim::RunResult &a, const sim::RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.committedTxs, b.committedTxs);
    EXPECT_EQ(a.fallbackRuns, b.fallbackRuns);
    EXPECT_EQ(a.htm.begins, b.htm.begins);
    EXPECT_EQ(a.htm.commits, b.htm.commits);
    for (unsigned r = 0; r < htm::numAbortReasons; ++r) {
        EXPECT_EQ(a.htm.aborts[r], b.htm.aborts[r]) << "reason " << r;
        EXPECT_EQ(a.htm.cyclesLost[r], b.htm.cyclesLost[r]);
    }
    EXPECT_EQ(a.subscriptionViolations, b.subscriptionViolations);
    EXPECT_EQ(a.pageModeOverheadCycles, b.pageModeOverheadCycles);
    EXPECT_EQ(a.safePages, b.safePages);
    EXPECT_EQ(a.totalPages, b.totalPages);
    EXPECT_EQ(a.finalGlobals, b.finalGlobals);
    if (a.journal && b.journal) {
        const TxJournal::Totals &ta = a.journal->totals();
        const TxJournal::Totals &tb = b.journal->totals();
        EXPECT_EQ(ta.commits, tb.commits);
        EXPECT_EQ(ta.fallbackCommits, tb.fallbackCommits);
        EXPECT_EQ(ta.totalAborts(), tb.totalAborts());
        EXPECT_EQ(ta.cyclesLostToAborts, tb.cyclesLostToAborts);
        EXPECT_EQ(a.journal->size(), b.journal->size());
    }
}

core::SystemOptions
convoyOptions()
{
    core::SystemOptions so;
    so.mechanism = core::Mechanism::Baseline;
    so.journal = true;
    so.maxRetries = 2; // low, so the fallback lock sees traffic
    return so;
}

core::SystemOptions
hintraceOptions()
{
    core::SystemOptions so;
    so.mechanism = core::Mechanism::StaticOnly;
    so.hintOracle = true;
    so.journal = true;
    so.maxRetries = 2;
    return so;
}

std::multiset<std::string>
fatalKinds(const sim::ExploreReport &rep)
{
    std::multiset<std::string> kinds;
    for (const sim::ExploreIssue &is : rep.issues) {
        if (is.violation.fatal)
            kinds.insert(is.violation.kind);
    }
    return kinds;
}

} // namespace

/**
 * Attaching the default controller must not change anything: the
 * controlled scheduler loop with the rotate-from-rr tie-break has to be
 * bit-identical to both controller-free paths (indexed and reference
 * scan) on every kernel of the suite.
 */
class DefaultControllerEquivalence
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(DefaultControllerEquivalence, MatchesControllerFreeRun)
{
    workloads::Workload w1 =
        workloads::byName(GetParam(), workloads::Scale::Tiny);
    workloads::Workload w2 =
        workloads::byName(GetParam(), workloads::Scale::Tiny);
    core::compileHints(w1.module);
    core::compileHints(w2.module);

    core::SystemOptions opts;
    opts.mechanism = core::Mechanism::Full;
    opts.journal = true;
    const sim::RunResult ref =
        core::simulate(opts, w1.module, w1.threads);

    sim::DefaultScheduleController ctrl;
    sim::MachineConfig cfg = core::makeMachineConfig(opts);
    cfg.scheduleController = &ctrl;
    const sim::RunResult controlled =
        sim::runMachine(cfg, w2.module, w2.threads);
    expectSameResult(controlled, ref);

    // And the controller-free reference O(contexts) scan as well (a
    // controlled run always picks through the index).
    cfg.scheduleController = nullptr;
    cfg.schedIndex = false;
    const sim::RunResult scanned =
        sim::runMachine(cfg, w2.module, w2.threads);
    expectSameResult(controlled, scanned);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, DefaultControllerEquivalence,
                         ::testing::ValuesIn(workloads::allNames()));

namespace
{

/** A 64-context run whose fallback-lock waiters the controller-free
 * indexed loop parks, while the controlled loop steps every re-check. */
struct ParkCase
{
    std::string workload;
    workloads::Scale scale;
    htm::HtmKind kind;
    core::Mechanism mech;
    std::uint64_t seed;
};

void
PrintTo(const ParkCase &c, std::ostream *os)
{
    *os << c.workload << ':' << workloads::scaleLabel(c.scale) << ':'
        << htm::htmKindName(c.kind) << ':' << core::mechanismName(c.mech)
        << ":seed" << c.seed;
}

std::vector<ParkCase>
parkCases()
{
    std::vector<ParkCase> cases;
    // Full adds page-mode shootdowns that stall parked waiters.
    for (const char *kernel : {"vacation@64", "intruder@64"})
        for (const htm::HtmKind kind : {htm::HtmKind::P8, htm::HtmKind::L1TM})
            for (const core::Mechanism mech :
                 {core::Mechanism::Baseline, core::Mechanism::Full})
                cases.push_back(
                    {kernel, workloads::Scale::Tiny, kind, mech, 1});
    // The long convoy: ~98M re-checks at seed 1 (tiny genome@64 never
    // waits on the lock).
    cases.push_back({"genome@64", workloads::Scale::Small, htm::HtmKind::P8,
                     core::Mechanism::Baseline, 2});
    return cases;
}

} // namespace

class DefaultControllerEquivalenceParked
    : public ::testing::TestWithParam<ParkCase>
{
};

/**
 * The per-spin oracle where parking actually parks: the controlled
 * loop under the default controller steps every re-check and must
 * reproduce the parked run's full RunResult encoding. (The reference
 * scan's side is ReferencePathEquivalence's SchedScan cases.)
 */
TEST_P(DefaultControllerEquivalenceParked, MatchesParkedRun)
{
    const ParkCase &c = GetParam();
    workloads::Workload w = workloads::byName(c.workload, c.scale);
    core::compileHints(w.module);

    core::SystemOptions opts;
    opts.htmKind = c.kind;
    opts.mechanism = c.mech;
    opts.numCores = w.threads;
    opts.seed = c.seed;
    opts.collectRawStats = true;
    sim::MachineConfig cfg = core::makeMachineConfig(opts);
    const sim::RunResult parked = sim::runMachine(cfg, w.module, w.threads);
    ASSERT_GT(parked.fallbackRuns, 0u);

    sim::DefaultScheduleController ctrl;
    cfg.scheduleController = &ctrl;
    const sim::RunResult controlled =
        sim::runMachine(cfg, w.module, w.threads);
    expectSameResult(controlled, parked);
    EXPECT_EQ(bench::encodeRunResult(controlled),
              bench::encodeRunResult(parked));
    EXPECT_EQ(controlled.rawStats, parked.rawStats);
}

INSTANTIATE_TEST_SUITE_P(LockWaiters, DefaultControllerEquivalenceParked,
                         ::testing::ValuesIn(parkCases()));

/** The same preemption plan must reproduce the same trace, run after
 * run — the replay contract behind every schedule file. */
TEST(PlanReplay, SamePlanIsByteIdentical)
{
    const std::vector<std::uint32_t> plan = {0};
    sim::RunResult r[2];
    std::uint32_t decisions[2] = {};
    for (int i = 0; i < 2; ++i) {
        workloads::Workload wl =
            workloads::buildHintRace(workloads::Scale::Tiny, 0, true);
        sim::PlanScheduleController ctrl;
        ctrl.reset(plan);
        sim::MachineConfig cfg =
            core::makeMachineConfig(hintraceOptions());
        cfg.scheduleController = &ctrl;
        r[i] = sim::runMachine(cfg, wl.module, wl.threads);
        decisions[i] = ctrl.nextIndex();
    }
    EXPECT_EQ(decisions[0], decisions[1]);
    expectSameResult(r[0], r[1]);
    EXPECT_FALSE(r[0].oracleWitnesses.empty());
}

TEST(ScheduleFile, RoundTripsAndRejectsGarbage)
{
    sim::ScheduleFile sf;
    sf.workload = "hintrace-bug";
    sf.config = "scale=tiny threads=0 retries=2 bug=1";
    sf.seed = 7;
    sf.decisions = 29;
    sf.preemptAt = {0, 27};
    const std::string path =
        ::testing::TempDir() + "/explore_roundtrip.sched";
    ASSERT_TRUE(sim::writeScheduleFile(path, sf));

    sim::ScheduleFile in;
    ASSERT_TRUE(sim::readScheduleFile(path, in));
    EXPECT_EQ(in.workload, sf.workload);
    EXPECT_EQ(in.config, sf.config);
    EXPECT_EQ(in.seed, sf.seed);
    EXPECT_EQ(in.decisions, sf.decisions);
    EXPECT_EQ(in.preemptAt, sf.preemptAt);

    const std::string bad = ::testing::TempDir() + "/explore_bad.sched";
    std::FILE *f = std::fopen(bad.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("not a schedule\n", f);
    std::fclose(f);
    EXPECT_FALSE(sim::readScheduleFile(bad, in));
    EXPECT_FALSE(sim::readScheduleFile("/nonexistent/x.sched", in));
}

/** The wrong safe hint on the guarded read must surface as a
 * hint-oracle violation within preemption bound 2; the clean variant
 * must explore silently under the same options. */
TEST(ExplorerCatches, SeededHintOracleRaceAtBoundTwo)
{
    sim::ExploreOptions opt;
    opt.preemptionBound = 2;
    opt.compareFinalState = false; // guarded reads: schedule-dependent
    const sim::MachineConfig cfg =
        core::makeMachineConfig(hintraceOptions());

    workloads::Workload bug =
        workloads::buildHintRace(workloads::Scale::Tiny, 0, true);
    const sim::ExploreReport rep =
        sim::exploreSchedules(cfg, bug.module, bug.threads, opt);
    EXPECT_TRUE(rep.anyFatal());
    EXPECT_TRUE(fatalKinds(rep).count("hint-oracle"));
    // Every violation carries a replayable plan within the bound.
    for (const sim::ExploreIssue &is : rep.issues)
        EXPECT_LE(is.plan.size(), 2u);

    workloads::Workload clean =
        workloads::buildHintRace(workloads::Scale::Tiny, 0, false);
    const sim::ExploreReport ok =
        sim::exploreSchedules(cfg, clean.module, clean.threads, opt);
    EXPECT_FALSE(ok.anyFatal());
    EXPECT_TRUE(fatalKinds(ok).empty());
}

/** Lazy lock subscription must surface as a subscription violation
 * within bound 2; the sound convoy must not, but must report the
 * bounded-livelock convoy warning. */
TEST(ExplorerCatches, SeededLazySubscriptionAtBoundTwo)
{
    sim::ExploreOptions opt;
    opt.preemptionBound = 2;
    opt.maxSchedules = 512; // the bug shows up long before the cap
    sim::MachineConfig cfg = core::makeMachineConfig(convoyOptions());
    cfg.unsafeLazySubscription = true;

    workloads::Workload wl =
        workloads::buildConvoy(workloads::Scale::Tiny, 0);
    const sim::ExploreReport rep =
        sim::exploreSchedules(cfg, wl.module, wl.threads, opt);
    EXPECT_TRUE(rep.anyFatal());
    EXPECT_TRUE(fatalKinds(rep).count("subscription"));
}

TEST(ExplorerCatches, CleanConvoyPassesWithLivelockWarning)
{
    sim::ExploreOptions opt;
    opt.preemptionBound = 1;
    opt.livelockThreshold = 8;
    const sim::MachineConfig cfg =
        core::makeMachineConfig(convoyOptions());

    workloads::Workload wl =
        workloads::buildConvoy(workloads::Scale::Tiny, 0);
    const sim::ExploreReport rep =
        sim::exploreSchedules(cfg, wl.module, wl.threads, opt);
    EXPECT_FALSE(rep.anyFatal());
    bool livelock = false;
    for (const sim::ExploreIssue &is : rep.issues) {
        if (is.violation.kind == "livelock") {
            EXPECT_FALSE(is.violation.fatal);
            livelock = true;
        }
    }
    EXPECT_TRUE(livelock)
        << "expected at least one convoy warning across "
        << rep.schedulesRun << " schedules";
}

/** The independence filter must cut the schedule count without losing
 * any violation class the naive enumeration finds. */
TEST(ExplorerDpor, PrunesSchedulesWithoutLosingViolations)
{
    sim::ExploreOptions opt;
    opt.preemptionBound = 2;
    opt.compareFinalState = false;
    const sim::MachineConfig cfg =
        core::makeMachineConfig(hintraceOptions());
    workloads::Workload wl =
        workloads::buildHintRace(workloads::Scale::Tiny, 0, true);

    const sim::ExploreReport pruned =
        sim::exploreSchedules(cfg, wl.module, wl.threads, opt);
    opt.dpor = false;
    const sim::ExploreReport naive =
        sim::exploreSchedules(cfg, wl.module, wl.threads, opt);

    EXPECT_GT(pruned.branchesPruned, 0u);
    EXPECT_EQ(naive.branchesPruned, 0u);
    EXPECT_LT(pruned.schedulesRun, naive.schedulesRun);

    // Same violation *classes* on both sides (DPOR guarantees a
    // representative of every bug, not the same schedule multiset).
    std::set<std::string> pk, nk;
    for (const std::string &k : fatalKinds(pruned))
        pk.insert(k);
    for (const std::string &k : fatalKinds(naive))
        nk.insert(k);
    EXPECT_EQ(pk, nk);
    EXPECT_TRUE(pk.count("hint-oracle"));
}

/** The hint oracle only observes: switching it on must not change what
 * the explorer runs, prunes or reports. Lazy-subscription convoy at
 * bound 2 under the default budget, which binds. */
TEST(ExplorerDpor, ReportDoesNotDependOnTheHintOracle)
{
    sim::ExploreOptions opt;
    opt.preemptionBound = 2;
    sim::MachineConfig cfg = core::makeMachineConfig(convoyOptions());
    cfg.unsafeLazySubscription = true;
    workloads::Workload wl =
        workloads::buildConvoy(workloads::Scale::Tiny, 0);

    const sim::ExploreReport off =
        sim::exploreSchedules(cfg, wl.module, wl.threads, opt);
    cfg.hintOracle = true;
    const sim::ExploreReport on =
        sim::exploreSchedules(cfg, wl.module, wl.threads, opt);

    EXPECT_EQ(on.schedulesRun, off.schedulesRun);
    EXPECT_EQ(on.branchPoints, off.branchPoints);
    EXPECT_EQ(on.branchesPruned, off.branchesPruned);
    EXPECT_EQ(on.branchesCapped, off.branchesCapped);
    EXPECT_GT(off.branchesCapped, 0u);
    ASSERT_EQ(on.issues.size(), off.issues.size());
    for (std::size_t i = 0; i < on.issues.size(); ++i) {
        const sim::ExploreIssue &a = on.issues[i];
        const sim::ExploreIssue &b = off.issues[i];
        EXPECT_EQ(a.violation.kind, b.violation.kind) << "issue " << i;
        EXPECT_EQ(a.violation.fatal, b.violation.fatal) << "issue " << i;
        EXPECT_EQ(a.violation.detail, b.violation.detail) << "issue " << i;
        EXPECT_EQ(a.plan, b.plan) << "issue " << i;
        EXPECT_EQ(a.decisions, b.decisions) << "issue " << i;
    }
    EXPECT_TRUE(fatalKinds(off).count("subscription"));
}

/** SMT siblings share an L1, so its sharer bit cannot say which of
 * them holds a block: on a machine with more threads than cores no
 * commit or abort may be judged independent, for either sibling. */
TEST(ExplorerDpor, SmtSiblingsKeepEveryDecisionDependent)
{
    core::SystemOptions so = convoyOptions();
    so.numCores = 1;
    so.smtPerCore = 2;
    sim::PlanScheduleController ctrl;
    ctrl.reset({});
    sim::MachineConfig cfg = core::makeMachineConfig(so);
    cfg.scheduleController = &ctrl;
    workloads::Workload wl =
        workloads::buildConvoy(workloads::Scale::Tiny, 2);
    sim::runMachine(cfg, wl.module, wl.threads);

    unsigned judged[2] = {};
    for (const sim::PlanScheduleController::Seen &s : ctrl.trace()) {
        if (s.d.event != sim::SchedEvent::TxCommit &&
            s.d.event != sim::SchedEvent::TxAbort)
            continue;
        ++judged[s.d.ctx];
        EXPECT_TRUE(s.d.dependent)
            << "ctx " << s.d.ctx << ", decision " << s.index;
    }
    EXPECT_GT(judged[0], 0u);
    EXPECT_GT(judged[1], 0u);
}

// ---------------------------------------------------------------------
// Scheduler-index wake edges under a non-default tie-break chooser.
// ---------------------------------------------------------------------

namespace
{

/** Deliberately not the rotate-from-rr default: highest set bit. */
unsigned
highestBit(std::uint64_t mask, unsigned)
{
    return 63u - unsigned(std::countl_zero(mask));
}

} // namespace

TEST(SchedIndexWake, WakeOfRetiredContextIsIgnored)
{
    sim::SchedIndex idx;
    // Any size: one index serves every machine of 1 to 64 contexts.
    idx.reset(20);
    for (unsigned c = 0; c < 20; ++c)
        idx.sync(c, false, false, 5);
    idx.retire(3);
    idx.setReady(3, 0); // stale wake of a finished context
    const sim::SchedIndex::Pick p = idx.pick(0, highestBit);
    EXPECT_EQ(p.winner, 19);
    EXPECT_EQ(p.key, 5u);
}

TEST(SchedIndexWake, DoubleWakeInOneStepLastKeyWins)
{
    sim::SchedIndex idx;
    idx.reset(20);
    for (unsigned c = 0; c < 20; ++c)
        idx.sync(c, false, false, 10);
    // Context 7 publishes twice before the next pick (e.g. a barrier
    // release immediately re-priced by a preemption rebuild): only the
    // final key may be observable.
    idx.setReady(7, 2);
    idx.setReady(7, 4);
    sim::SchedIndex::Pick p = idx.pick(0, highestBit);
    EXPECT_EQ(p.winner, 7);
    EXPECT_EQ(p.key, 4u);
    // After consuming 7's entry the stale key-2 entry must not
    // resurface: the runner-up is the key-10 crowd.
    idx.setReady(7, 20);
    p = idx.pick(0, highestBit);
    EXPECT_EQ(p.key, 10u);
    EXPECT_EQ(p.winner, 19);
}

TEST(SchedIndexWake, SmallMachineHonorsChooser)
{
    sim::SchedIndex idx;
    idx.reset(4); // a small machine
    for (unsigned c = 0; c < 4; ++c)
        idx.sync(c, false, false, 1);
    const sim::SchedIndex::Pick p = idx.pick(1, highestBit);
    EXPECT_EQ(p.winner, 3);
    // The default chooser from the same state rotates from rr instead.
    sim::SchedIndex idx2;
    idx2.reset(4);
    for (unsigned c = 0; c < 4; ++c)
        idx2.sync(c, false, false, 1);
    EXPECT_EQ(idx2.pick(1).winner, 1);
}

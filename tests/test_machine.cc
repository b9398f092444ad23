/**
 * @file
 * Tests for the transactional runtime inside sim::Machine: fallback-lock
 * acquisition and subscription aborts, retry escalation, barriers, SMT
 * context placement, end-to-end page-mode aborts, preserve policy, the
 * statistics the figures depend on (footprint CDFs, access mix), and
 * SimRun's chunked runs.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "../bench/result_store.hh"
#include "core/hintm.hh"
#include "sim/journal_io.hh"
#include "sim/machine.hh"
#include "sim/schedule.hh"
#include "tir/builder.hh"
#include "tir/verifier.hh"
#include "workloads/workloads.hh"

using namespace hintm;
using tir::FunctionBuilder;
using tir::Module;
using tir::Reg;

namespace
{

sim::RunResult
run(Module &m, core::SystemOptions opts, unsigned threads)
{
    core::compileHints(m);
    opts.validateSafeStores = true;
    return core::simulate(opts, m, threads);
}

/** Each thread commits @p txs TXs that increment one shared counter. */
Module
counterModule(int txs)
{
    Module m;
    m.globals.push_back({"counter", 8, 0});
    FunctionBuilder f(m, "worker", 1);
    f.forRangeI(0, txs, [&](Reg) {
        f.txBegin();
        const Reg g = f.globalAddr("counter");
        f.store(g, f.addI(f.load(g), 1));
        f.txEnd();
    });
    f.retVoid();
    m.threadFunc = f.finish();
    return m;
}

/** Every TX overflows: all work must be serialized via the lock. */
Module
overflowModule(int txs)
{
    Module m;
    m.globals.push_back({"done", 8 * 64, 0});
    m.globals.push_back({"registry", 8 * 8, 0});
    FunctionBuilder f(m, "worker", 1);
    const Reg tid = f.param(0);
    const Reg buf = f.mallocI(2048 * 8);
    f.store(f.gep(f.globalAddr("registry"), tid, 8), buf);
    const Reg n = f.freshVar();
    f.setI(n, 0);
    f.forRangeI(0, txs, [&](Reg) {
        f.txBegin();
        const Reg acc = f.freshVar();
        f.setI(acc, 0);
        // 100 scattered unsafe-ish writes + reads: > 64 blocks.
        f.forRangeI(0, 100, [&](Reg i) {
            const Reg slot = f.gep(buf, f.mulI(i, 16), 8);
            f.store(slot, f.add(acc, i));
            f.set(acc, f.add(acc, f.load(slot)));
        });
        f.txEnd();
        f.set(n, f.addI(n, 1));
    });
    f.store(f.gep(f.globalAddr("done"), tid, 64), n);
    f.retVoid();
    m.threadFunc = f.finish();
    return m;
}

} // namespace

TEST(Machine, CapacityAbortFallsBackImmediately)
{
    Module m = overflowModule(5);
    core::SystemOptions opts; // P8 baseline
    const sim::RunResult r = run(m, opts, 4);
    // Every TX: exactly one capacity abort, then fallback. No retries
    // of a deterministic abort.
    EXPECT_EQ(r.fallbackRuns, 4u * 5u);
    EXPECT_EQ(r.htm.aborts[unsigned(htm::AbortReason::Capacity)],
              4u * 5u);
    EXPECT_EQ(r.htm.commits, 0u);
    EXPECT_EQ(r.committedTxs, 4u * 5u);
    for (int t = 0; t < 4; ++t)
        EXPECT_EQ(r.finalGlobals.at("done")[std::size_t(t) * 8], 5);
}

TEST(Machine, FallbackLockAbortsSubscribedTxs)
{
    // One overflowing thread repeatedly takes the lock; other threads
    // run small TXs that subscribe and must be aborted by acquisition.
    Module m;
    m.globals.push_back({"counter", 8, 0});
    m.globals.push_back({"registry", 8 * 8, 0});
    FunctionBuilder f(m, "worker", 1);
    const Reg tid = f.param(0);
    f.ifThenElse(
        f.cmpEqI(tid, 0),
        [&] {
            const Reg buf = f.mallocI(2048 * 8);
            f.store(f.globalAddr("registry"), buf);
            f.forRangeI(0, 8, [&](Reg) {
                f.txBegin();
                f.forRangeI(0, 100, [&](Reg i) {
                    f.store(f.gep(buf, f.mulI(i, 16), 8), i);
                });
                f.txEnd();
            });
        },
        [&] {
            f.forRangeI(0, 200, [&](Reg) {
                f.txBegin();
                const Reg g = f.globalAddr("counter");
                f.store(g, f.addI(f.load(g), 1));
                f.txEnd();
            });
        });
    f.retVoid();
    m.threadFunc = f.finish();

    core::SystemOptions opts;
    const sim::RunResult r = run(m, opts, 4);
    EXPECT_EQ(r.finalGlobals.at("counter")[0], 3 * 200);
    EXPECT_GT(r.htm.aborts[unsigned(htm::AbortReason::FallbackLock)],
              0u);
}

TEST(Machine, RetryEscalationEventuallyFallsBack)
{
    // maxRetries = 0: the first transient abort sends a TX to the lock.
    Module m;
    m.globals.push_back({"counter", 8, 0});
    FunctionBuilder f(m, "worker", 1);
    f.forRangeI(0, 50, [&](Reg) {
        f.txBegin();
        const Reg g = f.globalAddr("counter");
        f.store(g, f.addI(f.load(g), 1));
        f.txEnd();
    });
    f.retVoid();
    m.threadFunc = f.finish();

    core::SystemOptions strict;
    strict.maxRetries = 0;
    const sim::RunResult r0 = run(m, strict, 8);
    EXPECT_EQ(r0.finalGlobals.at("counter")[0], 8 * 50);
    EXPECT_GT(r0.fallbackRuns, 0u);

    Module m2 = m;
    core::SystemOptions lax;
    lax.maxRetries = 64;
    const sim::RunResult r1 = run(m2, lax, 8);
    EXPECT_EQ(r1.finalGlobals.at("counter")[0], 8 * 50);
    EXPECT_LT(r1.fallbackRuns, r0.fallbackRuns);
}

TEST(Machine, BarriersSynchronizePhases)
{
    // Phase 1 writes; all threads must observe every phase-1 write in
    // phase 2 — only true if the barrier is a real rendezvous.
    Module m;
    m.globals.push_back({"phase1", 8 * 64, 0});
    m.globals.push_back({"sums", 8 * 64, 0});
    FunctionBuilder f(m, "worker", 1);
    const Reg tid = f.param(0);
    f.store(f.gep(f.globalAddr("phase1"), tid, 64), f.addI(tid, 1));
    f.barrier();
    const Reg acc = f.freshVar();
    f.setI(acc, 0);
    f.forRangeI(0, 8, [&](Reg t) {
        f.set(acc,
              f.add(acc, f.load(f.gep(f.globalAddr("phase1"), t, 64))));
    });
    f.store(f.gep(f.globalAddr("sums"), tid, 64), acc);
    f.retVoid();
    m.threadFunc = f.finish();

    const sim::RunResult r = run(m, core::SystemOptions{}, 8);
    for (int t = 0; t < 8; ++t)
        EXPECT_EQ(r.finalGlobals.at("sums")[std::size_t(t) * 8], 36);
}

TEST(Machine, SmtSiblingsConflictThroughSharedL1)
{
    // Two SMT contexts on one core: their TXs conflict via the sibling
    // notification path even though no bus transaction occurs.
    Module m = counterModule(100);
    core::SystemOptions opts;
    opts.numCores = 1;
    opts.smtPerCore = 2;
    const sim::RunResult r = run(m, opts, 2);
    EXPECT_EQ(r.finalGlobals.at("counter")[0], 200);
    EXPECT_GT(r.htm.totalAborts(), 0u);
}

TEST(Machine, PageModeAbortEndToEnd)
{
    // Thread 1 reads a page as dyn-safe inside a long TX; thread 0 then
    // writes that page, forcing a page-mode abort of thread 1's TX. The
    // retry tracks the page normally and commits.
    Module m;
    m.globals.push_back({"shared_buf", 8, 0});
    m.globals.push_back({"out", 8 * 64, 0});
    {
        FunctionBuilder f(m, "init", 0);
        const Reg buf = f.mallocI(512 * 8); // one page
        f.forRangeI(0, 512, [&](Reg i) { f.store(f.gep(buf, i, 8), i); });
        f.store(f.globalAddr("shared_buf"), buf);
        f.retVoid();
        m.initFunc = f.finish();
    }
    FunctionBuilder f(m, "worker", 1);
    const Reg tid = f.param(0);
    const Reg buf = f.load(f.globalAddr("shared_buf"));
    f.ifThenElse(
        f.cmpEqI(tid, 1),
        [&] {
            // Long read-only TX over the shared page.
            f.forRangeI(0, 30, [&](Reg) {
                f.txBegin();
                const Reg acc = f.freshVar();
                f.setI(acc, 0);
                f.forRangeI(0, 48, [&](Reg i) {
                    f.set(acc,
                          f.add(acc, f.load(f.gep(buf, f.mulI(i, 8), 8))));
                });
                f.store(f.gep(f.globalAddr("out"), tid, 64), acc);
                f.txEnd();
            });
        },
        [&] {
            // Belated writer: flips the page to shared-rw mid-run.
            f.forRangeI(0, 3, [&](Reg) {
                f.txBegin();
                f.store(buf, f.constI(0));
                f.txEnd();
            });
        });
    f.retVoid();
    m.threadFunc = f.finish();

    core::SystemOptions opts;
    opts.mechanism = core::Mechanism::DynamicOnly;
    const sim::RunResult r = run(m, opts, 2);
    EXPECT_GT(r.htm.aborts[unsigned(htm::AbortReason::PageMode)], 0u);
    EXPECT_GT(r.pageModeOverheadCycles, 0u);
    EXPECT_EQ(r.committedTxs, 33u);
}

TEST(Machine, TxSizeCdfsAreOrdered)
{
    workloads::Scale scale = workloads::Scale::Tiny;
    workloads::Workload wl = workloads::buildLabyrinth(scale);
    core::compileHints(wl.module);
    core::SystemOptions opts;
    opts.htmKind = htm::HtmKind::InfCap;
    opts.mechanism = core::Mechanism::Full;
    opts.collectTxSizes = true;
    const sim::RunResult r = core::simulate(opts, wl.module, wl.threads);
    ASSERT_GT(r.txSizeAll.count(), 0u);
    EXPECT_EQ(r.txSizeAll.count(), r.txSizeUnsafe.count());
    // Dropping hints can only shrink footprints: CDFs are ordered.
    for (std::uint64_t x : {4u, 16u, 64u, 256u}) {
        EXPECT_LE(r.txSizeAll.cdfAt(x), r.txSizeNoStatic.cdfAt(x) + 1e-9);
        EXPECT_LE(r.txSizeNoStatic.cdfAt(x),
                  r.txSizeUnsafe.cdfAt(x) + 1e-9);
    }
    // Mean tracked size must shrink strictly for labyrinth.
    EXPECT_LT(r.txSizeUnsafe.mean(), r.txSizeAll.mean());
}

TEST(Machine, PreservePolicyReducesPageModeAborts)
{
    workloads::Workload w1 =
        workloads::buildVacation(workloads::Scale::Tiny);
    workloads::Workload w2 =
        workloads::buildVacation(workloads::Scale::Tiny);
    core::compileHints(w1.module);
    core::compileHints(w2.module);

    core::SystemOptions sticky;
    sticky.mechanism = core::Mechanism::Full;
    const sim::RunResult rs = core::simulate(sticky, w1.module, 8);

    core::SystemOptions pres = sticky;
    pres.preserveReadOnly = true;
    const sim::RunResult rp = core::simulate(pres, w2.module, 8);

    // Preserve demotes instead of revoking, so page-mode aborts should
    // not grow materially; allow small timing-induced wobble at this
    // tiny scale (the Small-scale effect is checked by the ablation).
    EXPECT_LE(rp.htm.aborts[unsigned(htm::AbortReason::PageMode)],
              rs.htm.aborts[unsigned(htm::AbortReason::PageMode)] + 3);
}

TEST(Machine, ThreadCountMustFitContexts)
{
    Module m = overflowModule(1);
    core::compileHints(m);
    core::SystemOptions opts;
    opts.numCores = 2;
    opts.smtPerCore = 1;
    EXPECT_THROW(core::simulate(opts, m, 4), FatalError);
}

TEST(Machine, ScheduleControllerTakesAtMostSixtyFourThreads)
{
    Module m = overflowModule(1);
    core::compileHints(m);
    core::SystemOptions opts;
    opts.numCores = 128;
    sim::DefaultScheduleController ctrl;
    sim::MachineConfig cfg = core::makeMachineConfig(opts);
    cfg.scheduleController = &ctrl;
    EXPECT_THROW(sim::runMachine(cfg, m, 65), FatalError);
}

TEST(Machine, AtMostSixtyFourThreadsOnAnyMachine)
{
    // Every per-context mask is 64 bits wide, so a 65th thread is bad
    // input even on a machine with the cores for it and no controller.
    Module m = counterModule(1);
    core::SystemOptions opts;
    opts.numCores = 128;
    EXPECT_THROW(run(m, opts, 65), FatalError);
}

TEST(Machine, ScheduleControllerNeedsTheDirectory)
{
    Module m = counterModule(4);
    core::compileHints(m);
    sim::DefaultScheduleController ctrl;
    sim::MachineConfig cfg = core::makeMachineConfig(core::SystemOptions{});
    cfg.mem.directory = false;
    cfg.scheduleController = &ctrl;
    EXPECT_THROW(sim::runMachine(cfg, m, 2), FatalError);
}

TEST(Machine, PreAbortHandlerConvertsInsteadOfAborting)
{
    Module m = overflowModule(5);
    core::compileHints(m);

    core::SystemOptions opts;
    opts.preAbortHandler = true;
    opts.validateSafeStores = true;
    const sim::RunResult r = core::simulate(opts, m, 4);
    // Overflowing TXs convert rather than capacity-abort. A TX that got
    // lock-aborted repeatedly may still take the plain fallback path,
    // so conversions + fallbacks account for every TX.
    EXPECT_EQ(r.htm.aborts[unsigned(htm::AbortReason::Capacity)], 0u);
    EXPECT_GT(r.htm.preAbortConversions, 0u);
    EXPECT_EQ(r.htm.preAbortConversions + r.fallbackRuns, 4u * 5u);
    EXPECT_EQ(r.committedTxs, 4u * 5u);
    for (int t = 0; t < 4; ++t)
        EXPECT_EQ(r.finalGlobals.at("done")[std::size_t(t) * 8], 5);

    // Conversion skips the wasted attempt, so it beats plain fallback.
    Module m2 = overflowModule(5);
    core::compileHints(m2);
    core::SystemOptions plain;
    plain.validateSafeStores = true;
    const sim::RunResult rp = core::simulate(plain, m2, 4);
    EXPECT_LT(r.cycles, rp.cycles);
}

TEST(Machine, PreAbortConversionDeclinedWhenLockHeld)
{
    // With many threads overflowing simultaneously only one can hold
    // the lock; the rest must abort and retry/convert later, but the
    // results stay correct.
    Module m = overflowModule(3);
    core::compileHints(m);
    core::SystemOptions opts;
    opts.preAbortHandler = true;
    opts.validateSafeStores = true;
    const sim::RunResult r = core::simulate(opts, m, 8);
    EXPECT_EQ(r.committedTxs, 8u * 3u);
    EXPECT_GT(r.htm.preAbortConversions, 0u);
    for (int t = 0; t < 8; ++t)
        EXPECT_EQ(r.finalGlobals.at("done")[std::size_t(t) * 8], 3);
}

TEST(Machine, RequesterLosesPolicyStaysSerializable)
{
    Module m;
    m.globals.push_back({"counter", 8, 0});
    FunctionBuilder f(m, "worker", 1);
    f.forRangeI(0, 60, [&](Reg) {
        f.txBegin();
        const Reg g = f.globalAddr("counter");
        f.store(g, f.addI(f.load(g), 1));
        f.txEnd();
    });
    f.retVoid();
    m.threadFunc = f.finish();

    core::SystemOptions opts;
    opts.conflictPolicy = htm::ConflictPolicy::RequesterLoses;
    const sim::RunResult r = run(m, opts, 8);
    EXPECT_EQ(r.finalGlobals.at("counter")[0], 8 * 60);
    EXPECT_EQ(r.committedTxs, 8u * 60u);
    // Conflicts now charge the requester; there must still be some.
    EXPECT_GT(r.htm.aborts[unsigned(htm::AbortReason::Conflict)], 0u);
}

// ---- chunked runs --------------------------------------------------

namespace
{

/** vacation@64 at Tiny on P8 Baseline with every observation sink on:
 * the fallback lock stays busy, so the indexed loop parks waiters. */
sim::MachineConfig
parkingConfig()
{
    core::SystemOptions o;
    o.htmKind = htm::HtmKind::P8;
    o.mechanism = core::Mechanism::Baseline;
    o.numCores = 64;
    o.collectTxSizes = true;
    o.collectRawStats = true;
    o.profileSharing = true;
    o.journal = true;
    o.metrics = true;
    return core::makeMachineConfig(o);
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

TEST(SimRun, EightCommitChunksMatchColdIndexedAndScanRuns)
{
    // Parked waiters stay parked when the indexed loop returns at a
    // commit target, and its next call resumes them. A run in 8-commit
    // chunks, which leaves and re-enters the loop mid-convoy, must
    // finish bit-identical to a cold indexed run and to a cold run of
    // the reference scan, which steps every re-check.
    workloads::Workload wl =
        workloads::byName("vacation@64", workloads::Scale::Tiny);
    core::compileHints(wl.module);
    const sim::MachineConfig cfg = parkingConfig();
    sim::MachineConfig scan_cfg = cfg;
    scan_cfg.schedIndex = false;

    const sim::RunResult cold =
        sim::runMachine(cfg, wl.module, wl.threads);
    ASSERT_GT(cold.fallbackRuns, 0u);

    sim::SimRun a(cfg, wl.module, wl.threads);
    for (std::uint64_t target = 8; !a.finished(); target += 8)
        a.runUntilCommits(target);
    const sim::RunResult chunked = a.finish();
    expectSameResult(cold, chunked, "8-commit chunks vs cold indexed");
    expectSameResult(sim::runMachine(scan_cfg, wl.module, wl.threads),
                     chunked, "8-commit chunks vs cold scan");
}

TEST(SimRun, ChunkExitsHandBackParkedLockWaiters)
{
    // A release wakes no waiter: each stays parked until its group
    // falls due, so chunks end with waiters parked on a free lock (the
    // 8-commit chunks above do). The seeded lazy-subscription bug also
    // lets hardware TXs commit under a held lock, so one-commit chunks
    // end mid-convoy too; every waiter parked across an exit must fall
    // due at its exact cycle or the chunked run drifts from the cold
    // one.
    workloads::Workload wl =
        workloads::byName("vacation@64", workloads::Scale::Tiny);
    core::compileHints(wl.module);
    sim::MachineConfig cfg = parkingConfig();
    cfg.unsafeLazySubscription = true;

    const sim::RunResult cold =
        sim::runMachine(cfg, wl.module, wl.threads);
    ASSERT_GT(cold.subscriptionViolations, 0u);

    sim::SimRun a(cfg, wl.module, wl.threads);
    for (std::uint64_t target = 1; !a.finished(); ++target)
        a.runUntilCommits(target);
    expectSameResult(cold, a.finish(), "one-commit chunks");
}

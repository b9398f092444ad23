/**
 * @file
 * Tests for the capacity-pressure metrics layer: Log2Hist bucketing,
 * the adaptive TimeSeries fold, registry fold-on-close accounting,
 * cross-checks between the registry and the simulator's own HTM
 * statistics, and hint-saved commit detection under capacity pressure.
 * Bit-identity with metrics on and off is ObservationOnlyProperty in
 * test_properties.cc.
 */

#include <gtest/gtest.h>

#include "common/metrics.hh"
#include "core/hintm.hh"
#include "htm/abort.hh"
#include "workloads/workloads.hh"

using namespace hintm;

// ---- Log2Hist -------------------------------------------------------

TEST(Log2Hist, BucketBoundaries)
{
    EXPECT_EQ(Log2Hist::bucketOf(0), 0u);
    EXPECT_EQ(Log2Hist::bucketOf(1), 1u);
    EXPECT_EQ(Log2Hist::bucketOf(2), 2u);
    EXPECT_EQ(Log2Hist::bucketOf(3), 2u);
    EXPECT_EQ(Log2Hist::bucketOf(4), 3u);
    EXPECT_EQ(Log2Hist::bucketOf(7), 3u);
    EXPECT_EQ(Log2Hist::bucketOf(8), 4u);
    EXPECT_EQ(Log2Hist::bucketOf(~std::uint64_t(0)),
              Log2Hist::numBuckets - 1);
}

TEST(Log2Hist, AddFoldsCountSumMax)
{
    Log2Hist h;
    EXPECT_TRUE(h.empty());
    h.add(0);
    h.add(3);
    h.add(9);
    EXPECT_EQ(h.count, 3u);
    EXPECT_EQ(h.sum, 12u);
    EXPECT_EQ(h.max, 9u);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0);
    EXPECT_EQ(h.buckets[0], 1u);
    EXPECT_EQ(h.buckets[2], 1u);
    EXPECT_EQ(h.buckets[4], 1u);
}

// ---- TimeSeries -----------------------------------------------------

TEST(TimeSeries, AccumulatesIntoFixedWindows)
{
    TimeSeries ts(100, 8);
    ts.add(0, 5);
    ts.add(50, 2);
    ts.add(150, 7);
    EXPECT_EQ(ts.window(), 100u);
    ASSERT_EQ(ts.samples().size(), 2u);
    EXPECT_EQ(ts.samples()[0], 7u);
    EXPECT_EQ(ts.samples()[1], 7u);
}

TEST(TimeSeries, DoublesWindowAndFoldsPastSlotBudget)
{
    TimeSeries ts(100, 4); // covers [0, 400) initially
    ts.add(50, 1);
    ts.add(150, 2);
    ts.add(250, 4);
    ts.add(350, 8);
    ASSERT_EQ(ts.samples().size(), 4u);

    // A sample at 450 forces one double-and-fold: window 200, adjacent
    // slots merged, then the new sample lands in slot 2.
    ts.add(450, 16);
    EXPECT_EQ(ts.window(), 200u);
    ASSERT_EQ(ts.samples().size(), 3u);
    EXPECT_EQ(ts.samples()[0], 1u + 2u);
    EXPECT_EQ(ts.samples()[1], 4u + 8u);
    EXPECT_EQ(ts.samples()[2], 16u);
}

TEST(TimeSeries, FarFutureSampleFoldsRepeatedly)
{
    TimeSeries ts(1, 2);
    ts.add(0, 1);
    ts.add(1024, 1); // forces ~10 doublings from window 1
    EXPECT_GE(ts.window() * ts.maxSlots(), 1025u);
    std::uint64_t total = 0;
    for (std::uint64_t v : ts.samples())
        total += v;
    EXPECT_EQ(total, 2u); // folding never loses mass
}

TEST(TimeSeries, AddSpanSpreadsOverlap)
{
    TimeSeries ts(100, 8);
    ts.addSpan(50, 250);
    ASSERT_EQ(ts.samples().size(), 3u);
    EXPECT_EQ(ts.samples()[0], 50u);
    EXPECT_EQ(ts.samples()[1], 100u);
    EXPECT_EQ(ts.samples()[2], 50u);
    ts.addSpan(10, 10); // empty span is a no-op
    EXPECT_EQ(ts.samples()[0], 50u);
}

// ---- registry fold-on-close -----------------------------------------

TEST(MetricsRegistry, CommitFoldsSiteAndGlobalAggregates)
{
    MetricsRegistry reg;
    TxMetricsCtx m;
    reg.beginTx(m, 100, 1, 2, 3);
    ASSERT_TRUE(m.open);

    // 3 distinct tracked reads, 1 tracked write, 2 skips of one block.
    reg.onTrackedGrowth(m, true, false, 110);
    reg.onTrackedGrowth(m, true, false, 120);
    reg.onTrackedGrowth(m, true, false, 130);
    reg.onTrackedGrowth(m, false, true, 140);
    reg.onSafeSkip(m, 0x3000, SafeHint::Static);
    reg.onSafeSkip(m, 0x3000, SafeHint::Dynamic);
    reg.closeCommit(m, true);
    EXPECT_FALSE(m.open);

    const auto sites = reg.sitesByPressure();
    ASSERT_EQ(sites.size(), 1u);
    const MetricsRegistry::SiteMetrics &s = *sites[0];
    EXPECT_EQ(s.fn, 1);
    EXPECT_EQ(s.commits, 1u);
    EXPECT_EQ(s.peakTrackedSum, 4u);
    EXPECT_EQ(s.peakTrackedMax, 4u);
    EXPECT_EQ(s.skipStatic, 1u);
    EXPECT_EQ(s.skipDyn, 1u);
    EXPECT_EQ(s.skippedBlocksSum, 1u); // one distinct block
    EXPECT_EQ(s.skippedBytes, 16u);    // two 8-byte accesses
    EXPECT_EQ(s.hintSavedCommits, 1u);
    EXPECT_EQ(reg.hintSavedCommits, 1u);
    EXPECT_EQ(reg.trackedAtCommit.count, 1u);
    EXPECT_EQ(reg.trackedAtCommit.max, 4u);

    // Growth milestones 1 and 2 blocks were crossed for reads, with
    // cycles measured from TX begin.
    EXPECT_EQ(reg.growthRead[0].count, 1u);
    EXPECT_EQ(reg.growthRead[0].sum, 10u);
    EXPECT_EQ(reg.growthRead[1].count, 1u);
    EXPECT_EQ(reg.growthRead[1].sum, 20u);
    EXPECT_EQ(reg.growthRead[2].count, 0u); // never reached 4 blocks
    EXPECT_EQ(reg.growthWrite[0].count, 1u);
}

TEST(MetricsRegistry, DuplicateAccessesDoNotResampleGrowth)
{
    MetricsRegistry reg;
    TxMetricsCtx m;
    reg.beginTx(m, 0, 0, 0, 0);
    // Repeat accesses to an already-tracked block arrive with no
    // newly-tracked bits (the controller deduplicates).
    reg.onTrackedGrowth(m, true, false, 5);
    reg.onTrackedGrowth(m, false, false, 50);
    reg.onTrackedGrowth(m, false, false, 500);
    EXPECT_EQ(reg.growthRead[0].count, 1u);
    EXPECT_EQ(reg.growthRead[0].sum, 5u); // first touch only
    reg.closeCommit(m, false);
    EXPECT_EQ(reg.trackedAtCommit.max, 1u);
}

TEST(MetricsRegistry, CapacityAbortAndOtherClosesFoldSkips)
{
    MetricsRegistry reg;
    TxMetricsCtx m;

    reg.beginTx(m, 0, 1, 0, 0);
    reg.onSafeSkip(m, 0x100, SafeHint::Annotation);
    reg.closeCapacityAbort(m, 66);
    EXPECT_EQ(reg.capacityAborts, 1u);
    EXPECT_EQ(reg.trackedAtCapacityAbort.count, 1u);
    EXPECT_EQ(reg.trackedAtCapacityAbort.max, 66u);
    EXPECT_EQ(reg.skipAnnotAccesses, 1u);

    reg.beginTx(m, 10, 1, 0, 0);
    reg.onSafeSkip(m, 0x200, SafeHint::Static);
    reg.closeOther(m);
    EXPECT_EQ(reg.skipStaticAccesses, 1u);
    EXPECT_EQ(reg.capacityAborts, 1u); // closeOther is not an abort
    EXPECT_EQ(reg.trackedAtCommit.count, 0u);

    const auto sites = reg.sitesByPressure();
    ASSERT_EQ(sites.size(), 1u);
    EXPECT_EQ(sites[0]->trackedAtCapacitySum, 66u);
    EXPECT_EQ(sites[0]->skippedBlocksSum, 2u);
}

TEST(MetricsRegistry, OverflowLineClassification)
{
    MetricsRegistry reg;
    reg.recordOverflowScan();
    reg.recordOverflowLine(true, false);
    reg.recordOverflowLine(true, true); // tracked wins over skipped
    reg.recordOverflowLine(false, true);
    reg.recordOverflowLine(false, false);
    EXPECT_EQ(reg.ovScans, 1u);
    EXPECT_EQ(reg.ovTracked, 2u);
    EXPECT_EQ(reg.ovSafeSkipped, 1u);
    EXPECT_EQ(reg.ovOther, 1u);
}

TEST(MetricsRegistry, SitesByPressureRanksCapacityThenFootprint)
{
    MetricsRegistry reg;
    TxMetricsCtx m;

    // Site 1: one commit, large footprint, no capacity aborts.
    reg.beginTx(m, 0, 1, 0, 0);
    for (unsigned i = 0; i < 8; ++i)
        reg.onTrackedGrowth(m, true, false, i);
    reg.closeCommit(m, false);

    // Site 2: a capacity abort — outranks any abort-free site.
    reg.beginTx(m, 0, 2, 0, 0);
    reg.closeCapacityAbort(m, 3);

    const auto sites = reg.sitesByPressure();
    ASSERT_EQ(sites.size(), 2u);
    EXPECT_EQ(sites[0]->fn, 2);
    EXPECT_EQ(sites[1]->fn, 1);
}

TEST(MetricsRegistry, NumaMatrixAccumulates)
{
    MetricsRegistry reg;
    reg.initNuma(2);
    ++reg.numaTraffic(0, 1);
    ++reg.numaTraffic(0, 1);
    ++reg.numaTraffic(1, 0);
    EXPECT_EQ(reg.numaNodes(), 2u);
    ASSERT_EQ(reg.numaMatrix().size(), 4u);
    EXPECT_EQ(reg.numaMatrix()[1], 2u); // [0][1]
    EXPECT_EQ(reg.numaMatrix()[2], 1u); // [1][0]
    reg.initNuma(2); // idempotent: nothing reset
    EXPECT_EQ(reg.numaMatrix()[1], 2u);
}

// ---- simulation integration -----------------------------------------

namespace
{

sim::RunResult
runWithMetrics(const std::string &workload, htm::HtmKind kind,
               core::Mechanism mech, unsigned buffer = 64)
{
    workloads::Workload wl =
        workloads::byName(workload, workloads::Scale::Tiny);
    core::compileHints(wl.module);
    core::SystemOptions opts;
    opts.htmKind = kind;
    opts.mechanism = mech;
    opts.bufferEntries = buffer;
    opts.metrics = true;
    return core::simulate(opts, wl.module, wl.threads);
}

} // namespace

TEST(Metrics, RegistryCrossChecksHtmStats)
{
    for (const char *workload : {"kmeans", "intruder"}) {
        for (htm::HtmKind kind :
             {htm::HtmKind::P8, htm::HtmKind::P8S, htm::HtmKind::L1TM}) {
            SCOPED_TRACE(std::string(workload) + " / " +
                         htm::htmKindName(kind));
            const sim::RunResult r = runWithMetrics(
                workload, kind, core::Mechanism::Full);
            ASSERT_NE(r.metrics, nullptr);
            const MetricsRegistry &m = *r.metrics;

            // Every hardware commit closed exactly one measured
            // attempt; every capacity abort the controllers counted was
            // folded with the same reason.
            EXPECT_EQ(m.trackedAtCommit.count, r.htm.commits);
            EXPECT_EQ(
                m.capacityAborts,
                r.htm.aborts[unsigned(htm::AbortReason::Capacity)]);

            // Per-site aggregates fold to the same totals.
            std::uint64_t commits = 0, caps = 0, saved = 0;
            for (const auto &kv : m.sites()) {
                commits += kv.second.commits;
                caps += kv.second.capacityAborts;
                saved += kv.second.hintSavedCommits;
            }
            EXPECT_EQ(commits, r.htm.commits);
            EXPECT_EQ(caps, m.capacityAborts);
            EXPECT_EQ(saved, m.hintSavedCommits);
        }
    }
}

TEST(Metrics, CapacityPressureProducesScansAndHintSavedCommits)
{
    // A 2-entry buffer overflows intruder's baseline TXs; the hinted
    // run skips enough tracking to fit, so its commits are hint-saved.
    const sim::RunResult base = runWithMetrics(
        "intruder", htm::HtmKind::P8, core::Mechanism::Baseline, 2);
    ASSERT_NE(base.metrics, nullptr);
    EXPECT_GT(base.metrics->capacityAborts, 0u);
    EXPECT_GT(base.metrics->ovScans, 0u);
    EXPECT_EQ(base.metrics->hintSavedCommits, 0u); // nothing skipped
    EXPECT_EQ(base.metrics->skipStaticAccesses +
                  base.metrics->skipDynAccesses +
                  base.metrics->skipAnnotAccesses,
              0u);

    const sim::RunResult full = runWithMetrics(
        "intruder", htm::HtmKind::P8, core::Mechanism::Full, 2);
    ASSERT_NE(full.metrics, nullptr);
    EXPECT_GT(full.metrics->hintSavedCommits, 0u);
    EXPECT_LT(full.metrics->capacityAborts,
              base.metrics->capacityAborts);
    // Hints excluded real lines at some site.
    std::uint64_t reclaimed = 0;
    for (const auto &kv : full.metrics->sites())
        reclaimed += kv.second.skippedBlocksSum;
    EXPECT_GT(reclaimed, 0u);
}

TEST(Metrics, InfCapNeverReportsHintSavedCommits)
{
    const sim::RunResult r = runWithMetrics(
        "intruder", htm::HtmKind::InfCap, core::Mechanism::Full, 2);
    ASSERT_NE(r.metrics, nullptr);
    EXPECT_EQ(r.metrics->hintSavedCommits, 0u);
    EXPECT_EQ(r.metrics->capacityAborts, 0u);
}

TEST(Metrics, SharerHistogramIdenticalAcrossCoherenceModes)
{
    // The sharer histogram probes peer L1s directly, so directory and
    // broadcast coherence must sample identical distributions.
    workloads::Workload wl =
        workloads::byName("intruder", workloads::Scale::Tiny);
    core::compileHints(wl.module);
    core::SystemOptions opts;
    opts.mechanism = core::Mechanism::Full;
    opts.metrics = true;
    const sim::MachineConfig dir = core::makeMachineConfig(opts);
    ASSERT_TRUE(dir.mem.directory);
    sim::MachineConfig bc = dir;
    bc.mem.directory = false;

    const sim::RunResult r1 = sim::runMachine(dir, wl.module, wl.threads);
    const sim::RunResult r2 = sim::runMachine(bc, wl.module, wl.threads);
    ASSERT_NE(r1.metrics, nullptr);
    ASSERT_NE(r2.metrics, nullptr);
    EXPECT_EQ(r1.metrics->sharersAtBus.count,
              r2.metrics->sharersAtBus.count);
    for (unsigned b = 0; b < Log2Hist::numBuckets; ++b)
        EXPECT_EQ(r1.metrics->sharersAtBus.buckets[b],
                  r2.metrics->sharersAtBus.buckets[b]);
}

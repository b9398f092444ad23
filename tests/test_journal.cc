/**
 * @file
 * Tests for the per-TX observability journal: cross-checks between the
 * journal's exact aggregates and the simulator's own HTM statistics,
 * bounded-ring drop accounting, the interval sampler, per-site abort
 * attribution, and the Perfetto / stats-JSON exporters.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/journal.hh"
#include "common/metrics.hh"
#include "core/hintm.hh"
#include "htm/abort.hh"
#include "sim/journal_io.hh"
#include "workloads/workloads.hh"

using namespace hintm;

namespace
{

sim::RunResult
runWithJournal(const std::string &workload, htm::HtmKind kind,
               std::size_t capacity = 1u << 16)
{
    workloads::Workload wl =
        workloads::byName(workload, workloads::Scale::Tiny);
    core::compileHints(wl.module);
    core::SystemOptions opts;
    opts.htmKind = kind;
    opts.mechanism = core::Mechanism::Full;
    opts.journal = true;
    opts.journalCapacity = capacity;
    return core::simulate(opts, wl.module, wl.threads);
}

} // namespace

// ---- journal <-> simulator cross-checks -----------------------------

TEST(TxJournal, AggregatesMatchHtmStatsAcrossWorkloadsAndKinds)
{
    for (const char *workload : {"kmeans", "intruder"}) {
        for (htm::HtmKind kind :
             {htm::HtmKind::P8, htm::HtmKind::P8S, htm::HtmKind::L1TM}) {
            SCOPED_TRACE(std::string(workload) + " / " +
                         htm::htmKindName(kind));
            const sim::RunResult r = runWithJournal(workload, kind);
            ASSERT_NE(r.journal, nullptr);
            const TxJournal &j = *r.journal;

            // Every hardware commit produced exactly one Commit record.
            EXPECT_EQ(j.totals().commits, r.htm.commits);
            // Every committed TX (hardware, fallback, converted)
            // produced exactly one committing record.
            EXPECT_EQ(j.totals().committedAttempts(), r.committedTxs);
            // Every abort the controllers counted was journaled with
            // the same reason.
            for (unsigned a = 1; a < htm::numAbortReasons; ++a) {
                SCOPED_TRACE(
                    htm::abortReasonName(htm::AbortReason(a)));
                EXPECT_EQ(j.totals().aborts[a], r.htm.aborts[a]);
            }
            // Ring bookkeeping is conserved.
            EXPECT_EQ(j.pushed(), j.size() + j.dropped());
            EXPECT_LE(j.size(), j.capacity());

            // Per-site aggregates fold to the same totals.
            std::uint64_t site_commits = 0, site_aborts = 0;
            for (const auto &kv : j.sites()) {
                site_commits += kv.second.commits;
                site_aborts += kv.second.totalAborts();
            }
            EXPECT_EQ(site_commits, j.totals().commits);
            EXPECT_EQ(site_aborts, j.totals().totalAborts());
        }
    }
}

TEST(TxJournal, RecordsCarryTxSites)
{
    const sim::RunResult r = runWithJournal("kmeans", htm::HtmKind::P8);
    const TxJournal &j = *r.journal;
    ASSERT_GT(j.size(), 0u);
    for (std::size_t i = 0; i < j.size(); ++i) {
        const TxRecord &rec = j.at(i);
        EXPECT_GE(rec.fn, 0) << "record " << i << " lost its TX site";
        EXPECT_GE(rec.end, rec.begin);
        EXPECT_NE(j.names().siteName(rec.fn, rec.block, rec.instr),
                  "(unknown)");
    }
}

TEST(TxJournal, ConflictAbortsNameOffenderBlockAndContext)
{
    // intruder's shared queue guarantees conflicts at tiny scale.
    const sim::RunResult r =
        runWithJournal("intruder", htm::HtmKind::P8);
    const TxJournal &j = *r.journal;
    const unsigned conflict = unsigned(htm::AbortReason::Conflict);
    ASSERT_GT(j.totals().aborts[conflict], 0u);

    bool sawAttributedConflict = false;
    for (std::size_t i = 0; i < j.size(); ++i) {
        const TxRecord &rec = j.at(i);
        if (rec.outcome != TxOutcome::Abort || rec.reason != conflict)
            continue;
        if (rec.offendingValid && rec.offendingCtx >= 0) {
            sawAttributedConflict = true;
            EXPECT_NE(std::uint32_t(rec.offendingCtx), rec.ctx)
                << "a TX cannot conflict with itself";
        }
    }
    EXPECT_TRUE(sawAttributedConflict);

    // ... and the attribution reaches the per-site hot-block lists.
    bool sawHotBlock = false;
    for (const auto &kv : j.sites())
        sawHotBlock |= !kv.second.hotBlocks.empty();
    EXPECT_TRUE(sawHotBlock);
}

// ---- bounded ring ---------------------------------------------------

TEST(TxJournal, RingOverflowCountsDropsAndKeepsAggregatesExact)
{
    const sim::RunResult full =
        runWithJournal("intruder", htm::HtmKind::P8);
    const std::size_t tiny_cap = 8;
    const sim::RunResult capped =
        runWithJournal("intruder", htm::HtmKind::P8, tiny_cap);

    const TxJournal &jf = *full.journal;
    const TxJournal &jc = *capped.journal;
    ASSERT_GT(jf.pushed(), tiny_cap);

    // Same simulation, same attempts pushed; the small ring dropped the
    // overflow but kept the exact aggregates.
    EXPECT_EQ(jc.pushed(), jf.pushed());
    EXPECT_EQ(jc.size(), tiny_cap);
    EXPECT_EQ(jc.dropped(), jf.pushed() - tiny_cap);
    EXPECT_EQ(jc.totals().commits, jf.totals().commits);
    EXPECT_EQ(jc.totals().totalAborts(), jf.totals().totalAborts());
    EXPECT_EQ(jc.totals().committedAttempts(),
              jf.totals().committedAttempts());

    // Retained records are the chronologically newest ones.
    const TxRecord &oldest_kept = jc.at(0);
    const TxRecord &newest_full = jf.at(jf.size() - 1);
    EXPECT_EQ(jc.at(jc.size() - 1).end, newest_full.end);
    EXPECT_GE(oldest_kept.end,
              jf.at(jf.size() - tiny_cap).begin);
}

// ---- synthetic-record unit tests ------------------------------------

namespace
{

TxRecord
mkRecord(Cycle begin, Cycle end, TxOutcome outcome, unsigned reason = 0,
         std::int32_t fn = 0, std::int32_t block = 0,
         std::int32_t instr = 0)
{
    TxRecord r;
    r.begin = begin;
    r.end = end;
    r.outcome = outcome;
    r.reason = std::uint8_t(reason);
    r.fn = fn;
    r.block = block;
    r.instr = instr;
    r.readBlocks = 2;
    r.writeBlocks = 1;
    return r;
}

} // namespace

TEST(TxJournal, IntervalSamplerFoldsByEndCycle)
{
    TxJournal j(64);
    j.push(mkRecord(10, 50, TxOutcome::Commit));
    j.push(mkRecord(60, 120, TxOutcome::Abort, 1));
    j.push(mkRecord(130, 250, TxOutcome::Commit));

    const auto samples = j.sampleIntervals(100);
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_EQ(samples[0].start, 0u);
    EXPECT_EQ(samples[0].commits, 1u);
    EXPECT_EQ(samples[0].totalAborts(), 0u);
    EXPECT_EQ(samples[1].aborts[1], 1u);
    EXPECT_EQ(samples[2].commits, 1u);
    EXPECT_DOUBLE_EQ(samples[0].meanFootprint(), 3.0);
}

TEST(TxJournal, IntervalSamplerSpreadsFallbackOccupancy)
{
    TxJournal j(64);
    // Fallback run holding the lock across [50, 250): 50 cycles in
    // window 0, all of window 1, 50 cycles of window 2.
    j.push(mkRecord(50, 250, TxOutcome::FallbackCommit));

    const auto samples = j.sampleIntervals(100);
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_EQ(samples[0].fallbackCycles, 50u);
    EXPECT_EQ(samples[1].fallbackCycles, 100u);
    EXPECT_EQ(samples[2].fallbackCycles, 50u);
    EXPECT_EQ(samples[2].commits, 1u); // attributed to its end window
}

TEST(TxJournal, SiteAggregationAndHotBlockSaturation)
{
    TxJournal j(4); // tiny ring: aggregates must not care
    // Site A: hotBlockCap+2 distinct offending blocks.
    for (unsigned i = 0; i < TxJournal::hotBlockCap + 2; ++i) {
        TxRecord r = mkRecord(i, i + 1, TxOutcome::Abort, 1, 1, 2, 3);
        r.offendingAddr = 0x1000 + 64 * i;
        r.offendingValid = true;
        j.push(r);
    }
    // Site B: commits only.
    for (unsigned i = 0; i < 5; ++i)
        j.push(mkRecord(100 + i, 101 + i, TxOutcome::Commit, 0, 7, 0, 0));

    EXPECT_EQ(j.size(), 4u);
    EXPECT_EQ(j.dropped(), TxJournal::hotBlockCap + 2 + 5 - 4);
    ASSERT_EQ(j.sites().size(), 2u);

    const auto order = j.sitesByAborts();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0]->fn, 1); // most aborts first
    EXPECT_EQ(order[0]->totalAborts(), TxJournal::hotBlockCap + 2);
    EXPECT_EQ(order[0]->hotBlocks.size(), TxJournal::hotBlockCap);
    EXPECT_EQ(order[0]->otherOffenders, 2u);
    // Saturation is an explicit flag, not just a nonzero overflow
    // counter: consumers can tell a partial ranking from a full one.
    EXPECT_TRUE(order[0]->hotBlocksSaturated);
    EXPECT_FALSE(order[1]->hotBlocksSaturated);
    EXPECT_EQ(order[1]->fn, 7);
    EXPECT_EQ(order[1]->commits, 5u);
    EXPECT_EQ(order[1]->footprintSum, 5u * 3u);
}

TEST(TxJournal, HotBlockListAtExactCapIsNotSaturated)
{
    TxJournal j(64);
    for (unsigned i = 0; i < TxJournal::hotBlockCap; ++i) {
        TxRecord r = mkRecord(i, i + 1, TxOutcome::Abort, 1, 1, 2, 3);
        r.offendingAddr = 0x1000 + 64 * i;
        r.offendingValid = true;
        j.push(r);
    }
    const auto order = j.sitesByAborts();
    ASSERT_EQ(order.size(), 1u);
    EXPECT_EQ(order[0]->hotBlocks.size(), TxJournal::hotBlockCap);
    EXPECT_EQ(order[0]->otherOffenders, 0u);
    EXPECT_FALSE(order[0]->hotBlocksSaturated);
}

TEST(TxJournal, SitesByCyclesLostRanksCostNotCount)
{
    TxJournal j(64);
    // Site 1: many cheap aborts (10 x 1 cycle).
    for (unsigned i = 0; i < 10; ++i)
        j.push(mkRecord(i * 10, i * 10 + 1, TxOutcome::Abort, 1, 1, 0,
                        0));
    // Site 2: one expensive abort (500 cycles).
    j.push(mkRecord(1000, 1500, TxOutcome::Abort, 1, 2, 0, 0));

    const auto byAborts = j.sitesByAborts();
    ASSERT_EQ(byAborts.size(), 2u);
    EXPECT_EQ(byAborts[0]->fn, 1); // count ranking: many cheap first

    const auto byCost = j.sitesByCyclesLost();
    ASSERT_EQ(byCost.size(), 2u);
    EXPECT_EQ(byCost[0]->fn, 2); // cost ranking: expensive first
    EXPECT_EQ(byCost[0]->cyclesLostToAborts, 500u);
    EXPECT_EQ(byCost[1]->cyclesLostToAborts, 10u);
}

// ---- interval-sampler edge cases ------------------------------------

TEST(TxJournal, IntervalSamplerZeroWindowReturnsNoSamples)
{
    TxJournal j(64);
    j.push(mkRecord(10, 50, TxOutcome::Commit));
    EXPECT_TRUE(j.sampleIntervals(0).empty());
}

TEST(TxJournal, IntervalSamplerHugeWindowFoldsToOneSample)
{
    TxJournal j(64);
    j.push(mkRecord(10, 50, TxOutcome::Commit));
    j.push(mkRecord(60, 120, TxOutcome::Abort, 1));
    j.push(mkRecord(130, 250, TxOutcome::Commit));

    const auto samples = j.sampleIntervals(1'000'000'000);
    ASSERT_EQ(samples.size(), 1u);
    EXPECT_EQ(samples[0].start, 0u);
    EXPECT_EQ(samples[0].commits, 2u);
    EXPECT_EQ(samples[0].totalAborts(), 1u);
}

TEST(TxJournal, IntervalSamplerRunShorterThanOneWindow)
{
    TxJournal j(64);
    j.push(mkRecord(3, 7, TxOutcome::Commit));
    const auto samples = j.sampleIntervals(100);
    ASSERT_EQ(samples.size(), 1u);
    EXPECT_EQ(samples[0].commits, 1u);
    EXPECT_DOUBLE_EQ(samples[0].meanFootprint(), 3.0);
}

TEST(TxJournal, IntervalSamplerEmptyJournalAndRingDrops)
{
    TxJournal empty(8);
    EXPECT_TRUE(empty.sampleIntervals(100).empty());

    // A 4-slot ring over 10 records: only the newest 4 survive, so the
    // early windows under-count while the exact totals stay complete.
    TxJournal j(4);
    for (unsigned i = 0; i < 10; ++i)
        j.push(mkRecord(i * 100, i * 100 + 10, TxOutcome::Commit));
    ASSERT_EQ(j.dropped(), 6u);

    const auto samples = j.sampleIntervals(100);
    ASSERT_EQ(samples.size(), 10u);
    std::uint64_t sampled = 0;
    for (const auto &s : samples)
        sampled += s.commits;
    EXPECT_EQ(sampled, 4u);           // only retained records fold
    EXPECT_EQ(samples[0].commits, 0u); // oldest windows dropped
    EXPECT_EQ(samples[9].commits, 1u); // newest window intact
    EXPECT_EQ(j.totals().commits, 10u); // aggregates stay exact
}

TEST(TxJournal, SiteNamesRender)
{
    const TxJournal j(4, SiteNames({"main", "worker"}));
    EXPECT_EQ(j.names().siteName(1, 3, 7), "worker:3:7");
    // past the name table
    EXPECT_EQ(j.names().siteName(5, 0, 0), "fn5:0:0");
    EXPECT_EQ(j.names().siteName(-1, 0, 0), "(unknown)");
    // A registry holding no names still renders ids.
    EXPECT_EQ(MetricsRegistry().names().siteName(1, 3, 7), "fn1:3:7");
}

// ---- exporters ------------------------------------------------------

TEST(JournalIo, PerfettoTraceIsWellFormed)
{
    const sim::RunResult r = runWithJournal("kmeans", htm::HtmKind::P8);
    const std::vector<sim::JournalRun> runs = {
        {"kmeans", "P8/HinTM", 8, &r}};
    std::ostringstream os;
    sim::writePerfettoTrace(os, runs);
    const std::string trace = os.str();

    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
    // Balanced braces/brackets (cheap structural validity check; CI
    // re-validates with a real JSON parser).
    long depth = 0;
    for (char c : trace) {
        if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(JournalIo, StatsJsonRecordCarriesJournalSections)
{
    const sim::RunResult r =
        runWithJournal("intruder", htm::HtmKind::P8);
    const sim::JournalRun run = {"intruder", "P8/HinTM", 8, &r};
    const std::string rec = sim::statsJsonRecord(run);

    for (const char *key :
         {"\"workload\"", "\"htm\"", "\"journal\"", "\"totals\"",
          "\"sites\"", "\"intervals\"", "\"hot_blocks\"",
          "\"hot_blocks_saturated\"", "\"conflict\"", "\"dropped\""})
        EXPECT_NE(rec.find(key), std::string::npos) << key;
    EXPECT_EQ(rec.find("\"journal\":null"), std::string::npos);
    // No metrics were collected: the section is present but null.
    EXPECT_NE(rec.find("\"metrics\":null"), std::string::npos);

    // Journal-off runs still export the simulation sections.
    workloads::Workload wl =
        workloads::byName("kmeans", workloads::Scale::Tiny);
    core::compileHints(wl.module);
    core::SystemOptions opts;
    const sim::RunResult plain = core::simulate(opts, wl.module, 2);
    const sim::JournalRun off = {"kmeans", "P8/baseline", 2, &plain};
    const std::string rec2 = sim::statsJsonRecord(off);
    EXPECT_NE(rec2.find("\"journal\":null"), std::string::npos);
    EXPECT_NE(rec2.find("\"metrics\":null"), std::string::npos);
    EXPECT_NE(rec2.find("\"htm\""), std::string::npos);
}

TEST(JournalIo, AttributionTableNamesOffendingBlocks)
{
    const sim::RunResult r =
        runWithJournal("intruder", htm::HtmKind::P8);
    const std::string table =
        sim::renderAttributionTable(*r.journal, 10);
    EXPECT_NE(table.find("tx site"), std::string::npos);
    EXPECT_NE(table.find("0x"), std::string::npos)
        << "no concrete offending block address in:\n"
        << table;
    EXPECT_NE(table.find("worker"), std::string::npos) << table;
}

TEST(JournalIo, DefaultIntervalWindowIsSane)
{
    EXPECT_EQ(sim::defaultIntervalWindow(0), 1000u);
    EXPECT_GE(sim::defaultIntervalWindow(100), 100u);
    const Cycle w = sim::defaultIntervalWindow(5'000'000);
    EXPECT_GE(5'000'000u / w, 10u); // enough windows to plot
    EXPECT_LE(5'000'000u / w, 1000u);
}

TEST(JournalIo, JsonEscapeQuotesBackslashesAndNewlines)
{
    // The exporters and hintm_explore --json escape through this one
    // function, so a multi-line string still yields valid JSON.
    EXPECT_EQ(sim::jsonEscape("racy_read:0:1"), "racy_read:0:1");
    EXPECT_EQ(sim::jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

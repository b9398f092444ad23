#include "journal_io.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/table.hh"
#include "htm/abort.hh"

namespace hintm
{
namespace sim
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

namespace
{

std::string
hexAddr(Addr a)
{
    std::ostringstream os;
    os << "0x" << std::hex << a;
    return os.str();
}

const char *
reasonName(unsigned r)
{
    if (r < htm::numAbortReasons)
        return htm::abortReasonName(htm::AbortReason(r));
    return "unknown";
}

/** {"conflict":N,...,"total":N} over an aborts[] array. */
void
emitAbortMap(std::ostream &os, const std::uint64_t *aborts,
             unsigned n, std::uint64_t total)
{
    os << "{";
    for (unsigned r = 1; r < n; ++r) {
        if (aborts[r] == 0 && r >= htm::numAbortReasons)
            continue; // padding slots past the real taxonomy
        os << "\"" << reasonName(r) << "\":" << aborts[r] << ",";
    }
    os << "\"total\":" << total << "}";
}

/** A Log2Hist as {"count","sum","max","mean","buckets":[{bucket,count}]}
 * with zero buckets elided. */
void
emitHist(std::ostream &os, const Log2Hist &h)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", h.mean());
    os << "{\"count\":" << h.count << ",\"sum\":" << h.sum
       << ",\"max\":" << h.max << ",\"mean\":" << buf
       << ",\"buckets\":[";
    bool first = true;
    for (unsigned b = 0; b < Log2Hist::numBuckets; ++b) {
        if (!h.buckets[b])
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "{\"bucket\":" << b << ",\"count\":" << h.buckets[b]
           << "}";
    }
    os << "]}";
}

/** Growth-curve array: one {blocks, cycles-histogram} per non-empty
 * milestone. */
void
emitGrowth(std::ostream &os, const Log2Hist *curves)
{
    os << "[";
    bool first = true;
    for (unsigned k = 0; k < MetricsRegistry::numMilestones; ++k) {
        if (curves[k].empty())
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "{\"blocks\":" << MetricsRegistry::milestoneBlocks(k)
           << ",\"cycles\":";
        emitHist(os, curves[k]);
        os << "}";
    }
    os << "]";
}

/** The full metrics section body (the object after "metrics":). */
void
emitMetrics(std::ostream &os, const MetricsRegistry &m)
{
    os << "{\"capacity_aborts\":" << m.capacityAborts
       << ",\"hint_saved_commits\":" << m.hintSavedCommits
       << ",\"skipped_accesses\":{\"static\":" << m.skipStaticAccesses
       << ",\"dynamic\":" << m.skipDynAccesses
       << ",\"annotation\":" << m.skipAnnotAccesses << "}"
       << ",\"overflow_set\":{\"scans\":" << m.ovScans
       << ",\"tracked\":" << m.ovTracked
       << ",\"safe_skipped\":" << m.ovSafeSkipped
       << ",\"other\":" << m.ovOther << "}"
       << ",\"fallback\":{\"acquisitions\":" << m.fallbackAcquisitions
       << ",\"window\":" << m.fallbackSeries.window()
       << ",\"held_cycles\":[";
    const auto &held = m.fallbackSeries.samples();
    for (std::size_t i = 0; i < held.size(); ++i) {
        if (i)
            os << ",";
        os << held[i];
    }
    os << "]},\"tracked_at_commit\":";
    emitHist(os, m.trackedAtCommit);
    os << ",\"tracked_at_capacity_abort\":";
    emitHist(os, m.trackedAtCapacityAbort);
    os << ",\"sharers_at_bus\":";
    emitHist(os, m.sharersAtBus);
    os << ",\"growth_read\":";
    emitGrowth(os, m.growthRead);
    os << ",\"growth_write\":";
    emitGrowth(os, m.growthWrite);
    os << ",\"numa\":{\"nodes\":" << m.numaNodes() << ",\"matrix\":[";
    for (unsigned from = 0; from < m.numaNodes(); ++from) {
        if (from)
            os << ",";
        os << "[";
        for (unsigned to = 0; to < m.numaNodes(); ++to) {
            if (to)
                os << ",";
            os << m.numaMatrix()[std::size_t(from) * m.numaNodes() + to];
        }
        os << "]";
    }
    os << "]},\"sites\":[";
    const auto sites = m.sitesByPressure();
    for (std::size_t i = 0; i < sites.size(); ++i) {
        const MetricsRegistry::SiteMetrics &s = *sites[i];
        if (i)
            os << ",";
        char buf[32];
        os << "{\"site\":\""
           << jsonEscape(m.names().siteName(s.fn, s.block, s.instr))
           << "\",\"commits\":" << s.commits
           << ",\"capacity_aborts\":" << s.capacityAborts
           << ",\"hint_saved_commits\":" << s.hintSavedCommits
           << ",\"skipped_accesses\":{\"static\":" << s.skipStatic
           << ",\"dynamic\":" << s.skipDyn
           << ",\"annotation\":" << s.skipAnnot << "}"
           << ",\"skipped_blocks\":" << s.skippedBlocksSum
           << ",\"skipped_bytes\":" << s.skippedBytes
           << ",\"peak_tracked_max\":" << s.peakTrackedMax
           << ",\"mean_peak_tracked\":";
        std::snprintf(buf, sizeof(buf), "%.1f",
                      s.commits ? double(s.peakTrackedSum) / s.commits
                                : 0.0);
        os << buf << ",\"mean_tracked_at_capacity\":";
        std::snprintf(
            buf, sizeof(buf), "%.1f",
            s.capacityAborts
                ? double(s.trackedAtCapacitySum) / s.capacityAborts
                : 0.0);
        os << buf << "}";
    }
    os << "]}";
}

} // namespace

// ---- Perfetto / Chrome trace ---------------------------------------

void
writePerfettoTrace(std::ostream &os, const std::vector<JournalRun> &runs)
{
    os << "{\"traceEvents\":[\n";
    bool first = true;
    auto sep = [&]() {
        if (!first)
            os << ",\n";
        first = false;
    };

    std::uint32_t pid = 0;
    for (const JournalRun &run : runs) {
        ++pid;
        if (!run.result || !run.result->journal)
            continue;
        const TxJournal &j = *run.result->journal;

        sep();
        os << "{\"ph\":\"M\",\"pid\":" << pid
           << ",\"name\":\"process_name\",\"args\":{\"name\":\""
           << jsonEscape(run.workload) << " " << jsonEscape(run.config)
           << " t" << run.threads << "\"}}";

        // One named track per hardware context that shows up.
        std::vector<bool> seenCtx;
        const std::size_t n = j.size();
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t c = j.at(i).ctx;
            if (c >= seenCtx.size())
                seenCtx.resize(c + 1, false);
            if (!seenCtx[c]) {
                seenCtx[c] = true;
                sep();
                os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << c
                   << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
                   << "ctx " << c << "\"}}";
            }
        }

        for (std::size_t i = 0; i < n; ++i) {
            const TxRecord &r = j.at(i);
            const Cycle dur = r.end > r.begin ? r.end - r.begin : 1;
            sep();
            os << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << r.ctx
               << ",\"ts\":" << r.begin << ",\"dur\":" << dur
               << ",\"name\":\""
               << jsonEscape(j.names().siteName(r.fn, r.block, r.instr))
               << "\",\"cat\":\"" << txOutcomeName(r.outcome)
               << "\",\"args\":{\"outcome\":\"" << txOutcomeName(r.outcome)
               << "\",\"retry\":" << r.retry
               << ",\"read_blocks\":" << r.readBlocks
               << ",\"write_blocks\":" << r.writeBlocks;
            if (r.outcome == TxOutcome::Abort) {
                os << ",\"reason\":\"" << reasonName(r.reason) << "\"";
                if (r.offendingValid)
                    os << ",\"offending_addr\":\"" << hexAddr(r.offendingAddr)
                       << "\"";
                if (r.offendingCtx >= 0)
                    os << ",\"offending_ctx\":" << r.offendingCtx;
            }
            os << "}}";
        }

        // Counter tracks when the run also carried metrics: the tracked
        // footprint of each context sampled at every TX close, and the
        // per-window fallback-lock occupancy. Counters are keyed by
        // (pid, name), so the context id is folded into the name.
        if (run.result->metrics) {
            for (std::size_t i = 0; i < n; ++i) {
                const TxRecord &r = j.at(i);
                sep();
                os << "{\"ph\":\"C\",\"pid\":" << pid
                   << ",\"tid\":" << r.ctx << ",\"ts\":" << r.end
                   << ",\"name\":\"tracked blocks ctx " << r.ctx
                   << "\",\"args\":{\"blocks\":"
                   << (r.readBlocks + r.writeBlocks) << "}}";
            }
            const MetricsRegistry &m = *run.result->metrics;
            const auto &held = m.fallbackSeries.samples();
            for (std::size_t w = 0; w < held.size(); ++w) {
                sep();
                os << "{\"ph\":\"C\",\"pid\":" << pid
                   << ",\"tid\":0,\"ts\":"
                   << Cycle(w) * m.fallbackSeries.window()
                   << ",\"name\":\"fallback lock held cycles\""
                   << ",\"args\":{\"cycles\":" << held[w] << "}}";
            }
        }
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

bool
writePerfettoTrace(const std::string &path,
                   const std::vector<JournalRun> &runs)
{
    std::ofstream os(path);
    if (!os) {
        warn("cannot write Perfetto trace to ", path);
        return false;
    }
    writePerfettoTrace(os, runs);
    return true;
}

// ---- stats JSON ----------------------------------------------------

Cycle
defaultIntervalWindow(Cycle run_cycles)
{
    if (run_cycles == 0)
        return 1000;
    // Aim for ~50 windows, rounded down to a power of ten (min 100).
    Cycle w = 100;
    while (w * 10 <= run_cycles / 50)
        w *= 10;
    return w;
}

std::string
statsJsonRecord(const JournalRun &run)
{
    HINTM_ASSERT(run.result != nullptr, "stats record needs a result");
    const RunResult &r = *run.result;
    std::ostringstream os;
    os << "{\"workload\":\"" << jsonEscape(run.workload)
       << "\",\"config\":\"" << jsonEscape(run.config)
       << "\",\"threads\":" << run.threads << ",\"cycles\":" << r.cycles
       << ",\"instructions\":" << r.instructions
       << ",\"committed_txs\":" << r.committedTxs
       << ",\"fallback_runs\":" << r.fallbackRuns << ",\"htm\":{"
       << "\"commits\":" << r.htm.commits << ",\"aborts\":";
    emitAbortMap(os, r.htm.aborts, htm::numAbortReasons,
                 r.htm.totalAborts());
    os << "},\"tx_accesses\":{"
       << "\"reads_static_safe\":" << r.txReadsStaticSafe
       << ",\"reads_dyn_safe\":" << r.txReadsDynSafe
       << ",\"reads_annotated\":" << r.txReadsAnnotated
       << ",\"writes_static_safe\":" << r.txWritesStaticSafe
       << ",\"reads_unsafe\":" << r.txReadsUnsafe
       << ",\"writes_unsafe\":" << r.txWritesUnsafe
       << ",\"suspended\":" << r.txAccessesSuspended
       << ",\"total\":" << r.txAccessesTotal() << "}"
       << ",\"pages\":{\"safe\":" << r.safePages
       << ",\"total\":" << r.totalPages << "}";

    if (!r.journal) {
        os << ",\"journal\":null,\"metrics\":";
        if (r.metrics)
            emitMetrics(os, *r.metrics);
        else
            os << "null";
        os << "}";
        return os.str();
    }

    const TxJournal &j = *r.journal;
    os << ",\"journal\":{\"capacity\":" << j.capacity()
       << ",\"pushed\":" << j.pushed() << ",\"recorded\":" << j.size()
       << ",\"dropped\":" << j.dropped() << ",\"totals\":{"
       << "\"commits\":" << j.totals().commits
       << ",\"fallback_commits\":" << j.totals().fallbackCommits
       << ",\"converted_commits\":" << j.totals().convertedCommits
       << ",\"committed_attempts\":" << j.totals().committedAttempts()
       << ",\"cycles_lost_to_aborts\":" << j.totals().cyclesLostToAborts
       << ",\"aborts\":";
    emitAbortMap(os, j.totals().aborts, TxJournal::maxReasons,
                 j.totals().totalAborts());
    os << "},\"sites\":[";

    const auto sites = j.sitesByAborts();
    for (std::size_t i = 0; i < sites.size(); ++i) {
        const TxJournal::SiteStats &s = *sites[i];
        if (i)
            os << ",";
        os << "{\"site\":\""
           << jsonEscape(j.names().siteName(s.fn, s.block, s.instr))
           << "\",\"commits\":" << s.commits
           << ",\"fallback_commits\":" << s.fallbackCommits
           << ",\"converted_commits\":" << s.convertedCommits
           << ",\"cycles_lost_to_aborts\":" << s.cyclesLostToAborts
           << ",\"mean_footprint\":";
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.1f",
                      s.commits ? double(s.footprintSum) / s.commits
                                : 0.0);
        os << buf << ",\"aborts\":";
        emitAbortMap(os, s.aborts, TxJournal::maxReasons,
                     s.totalAborts());
        os << ",\"hot_blocks\":[";
        // Hottest first; ties by address for deterministic output.
        std::vector<TxJournal::HotBlock> hot = s.hotBlocks;
        std::sort(hot.begin(), hot.end(),
                  [](const TxJournal::HotBlock &a,
                     const TxJournal::HotBlock &b) {
                      if (a.count != b.count)
                          return a.count > b.count;
                      return a.addr < b.addr;
                  });
        for (std::size_t h = 0; h < hot.size(); ++h) {
            if (h)
                os << ",";
            os << "{\"addr\":\"" << hexAddr(hot[h].addr)
               << "\",\"count\":" << hot[h].count << "}";
        }
        os << "],\"other_offenders\":" << s.otherOffenders
           << ",\"hot_blocks_saturated\":"
           << (s.hotBlocksSaturated ? "true" : "false") << "}";
    }
    os << "],";

    const Cycle w = defaultIntervalWindow(r.cycles);
    os << "\"intervals\":{\"window\":" << w << ",\"samples\":[";
    const auto samples = j.sampleIntervals(w);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const IntervalSample &s = samples[i];
        if (i)
            os << ",";
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.1f", s.meanFootprint());
        os << "{\"start\":" << s.start << ",\"commits\":" << s.commits
           << ",\"aborts\":";
        emitAbortMap(os, s.aborts, IntervalSample::maxReasons,
                     s.totalAborts());
        os << ",\"mean_footprint\":" << buf
           << ",\"fallback_cycles\":" << s.fallbackCycles << "}";
    }
    os << "]}},\"metrics\":";
    if (r.metrics)
        emitMetrics(os, *r.metrics);
    else
        os << "null";
    os << "}";
    return os.str();
}

void
writeStatsJson(std::ostream &os, const std::vector<JournalRun> &runs)
{
    os << "[\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        os << "  " << statsJsonRecord(runs[i])
           << (i + 1 < runs.size() ? ",\n" : "\n");
    }
    os << "]\n";
}

bool
writeStatsJson(const std::string &path, const std::vector<JournalRun> &runs)
{
    std::ofstream os(path);
    if (!os) {
        warn("cannot write stats JSON to ", path);
        return false;
    }
    writeStatsJson(os, runs);
    return true;
}

// ---- attribution table ---------------------------------------------

std::string
renderAttributionTable(const TxJournal &journal, std::size_t top_n)
{
    TextTable t;
    t.header({"tx site", "commits", "fb", "conv", "aborts", "conflict",
              "false", "capacity", "pagemode", "lock", "cyc lost",
              "hottest blocks"});

    // Cost-ranked: cycles lost to aborts, not raw abort count, is what
    // the attribution table exists to minimize.
    const auto sites = journal.sitesByCyclesLost();
    const std::size_t n = std::min(top_n, sites.size());
    for (std::size_t i = 0; i < n; ++i) {
        const TxJournal::SiteStats &s = *sites[i];
        std::vector<TxJournal::HotBlock> hot = s.hotBlocks;
        std::sort(hot.begin(), hot.end(),
                  [](const TxJournal::HotBlock &a,
                     const TxJournal::HotBlock &b) {
                      if (a.count != b.count)
                          return a.count > b.count;
                      return a.addr < b.addr;
                  });
        std::ostringstream hs;
        for (std::size_t h = 0; h < std::min<std::size_t>(hot.size(), 3);
             ++h) {
            if (h)
                hs << " ";
            hs << hexAddr(hot[h].addr) << "(" << hot[h].count << ")";
        }
        if (hot.size() > 3 || s.otherOffenders)
            hs << " ...";
        if (s.hotBlocksSaturated)
            hs << " (sat)"; // hot-block list capped: ranking is partial
        auto u = [](std::uint64_t v) { return std::to_string(v); };
        t.row({journal.names().siteName(s.fn, s.block, s.instr), u(s.commits),
               u(s.fallbackCommits), u(s.convertedCommits),
               u(s.totalAborts()),
               u(s.aborts[unsigned(htm::AbortReason::Conflict)]),
               u(s.aborts[unsigned(htm::AbortReason::FalseConflict)]),
               u(s.aborts[unsigned(htm::AbortReason::Capacity)]),
               u(s.aborts[unsigned(htm::AbortReason::PageMode)]),
               u(s.aborts[unsigned(htm::AbortReason::FallbackLock)]),
               u(s.cyclesLostToAborts), hs.str()});
    }

    std::ostringstream os;
    os << t;
    if (sites.size() > n)
        os << "(" << sites.size() - n << " more sites)\n";
    return os.str();
}

std::string
renderIntervalTable(const TxJournal &journal, Cycle run_cycles)
{
    const Cycle w = defaultIntervalWindow(run_cycles);
    const auto samples = journal.sampleIntervals(w);
    TextTable t;
    t.header({"cycle", "commits", "aborts", "conflict", "capacity",
              "mean fp", "lock occ"});
    for (const IntervalSample &s : samples) {
        t.row({std::to_string(s.start), std::to_string(s.commits),
               std::to_string(s.totalAborts()),
               std::to_string(
                   s.aborts[unsigned(htm::AbortReason::Conflict)]),
               std::to_string(
                   s.aborts[unsigned(htm::AbortReason::Capacity)]),
               TextTable::num(s.meanFootprint(), 1),
               TextTable::pct(double(s.fallbackCycles) / double(w))});
    }
    std::ostringstream os;
    os << "interval window: " << w << " cycles\n" << t;
    return os.str();
}

std::string
metricsSummary(const RunResult &r)
{
    if (!r.metrics)
        return "metrics: off\n";
    const MetricsRegistry &m = *r.metrics;
    std::ostringstream os;
    os << "metrics: " << m.capacityAborts << " capacity aborts, "
       << m.hintSavedCommits << " hint-saved commits, "
       << (m.skipStaticAccesses + m.skipDynAccesses +
           m.skipAnnotAccesses)
       << " safe-skipped accesses (static " << m.skipStaticAccesses
       << ", dyn " << m.skipDynAccesses << ", annot "
       << m.skipAnnotAccesses << "), " << m.fallbackAcquisitions
       << " lock acquisitions\n";
    if (m.ovScans)
        os << "metrics: overflow-set occupancy over " << m.ovScans
           << " capacity aborts: " << m.ovTracked << " tracked, "
           << m.ovSafeSkipped << " safe-skipped, " << m.ovOther
           << " other lines\n";
    return os.str();
}

std::string
journalSummary(const RunResult &r)
{
    if (!r.journal)
        return "journal: off\n";
    const TxJournal &j = *r.journal;
    std::ostringstream os;
    os << "journal: " << j.pushed() << " TX attempts (" << j.size()
       << " retained, " << j.dropped() << " dropped; capacity "
       << j.capacity() << "), " << j.totals().commits << " hw commits, "
       << j.totals().fallbackCommits << " fallback, "
       << j.totals().convertedCommits << " converted, "
       << j.totals().totalAborts() << " aborts ("
       << j.totals().cyclesLostToAborts << " cycles lost), "
       << j.sites().size() << " TX sites\n";
    return os.str();
}

} // namespace sim
} // namespace hintm

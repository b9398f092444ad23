/**
 * @file
 * hintm_report: capacity-pressure and hint-effectiveness report. Runs a
 * workload twice — baseline (no hints) and the full mechanism — with
 * the TX journal and capacity-pressure metrics enabled, fuses the two
 * observability layers, and writes a deterministic self-contained
 * report (text or single-file HTML): per-site capacity pressure ranked
 * by capacity aborts, hint-reclaimed tracking lines/bytes, hint-saved
 * commits, the occupancy breakdown of the overflowing cache set at
 * capacity aborts, footprint growth curves, and fallback-lock
 * occupancy. The output contains no timestamps or host details, so two
 * runs of the same binary produce byte-identical reports.
 *
 * Examples:
 *   hintm_report --workload intruder
 *   hintm_report --workload genome --tiny --html -o report.html
 *   hintm_report --workload kmeans --htm l1tm --top 5
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "common/tx_site.hh"
#include "core/hintm.hh"
#include "sim/journal_io.hh"
#include "workloads/workloads.hh"

using namespace hintm;

namespace
{

constexpr const char *ownHelp =
    "  --top N             sites in the pressure ranking "
    "(default 10)\n"
    "  --html              write a self-contained HTML report\n"
    "  -o|--output FILE    output file (default: stdout)\n";

/** One report table, renderable as text or HTML. */
struct Section
{
    std::string title;
    std::string note;
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
};

std::string
htmlEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '<')
            out += "&lt;";
        else if (c == '>')
            out += "&gt;";
        else if (c == '&')
            out += "&amp;";
        else
            out += c;
    }
    return out;
}

void
renderText(std::ostream &os, const std::string &title,
           const std::vector<std::string> &preamble,
           const std::vector<Section> &sections)
{
    os << title << "\n";
    for (const std::string &p : preamble)
        os << p << "\n";
    for (const Section &sec : sections) {
        os << "\n-- " << sec.title << " --\n";
        if (!sec.note.empty())
            os << sec.note << "\n";
        TextTable t;
        t.header(sec.headers);
        for (const auto &row : sec.rows)
            t.row(row);
        os << t;
    }
}

void
renderHtml(std::ostream &os, const std::string &title,
           const std::vector<std::string> &preamble,
           const std::vector<Section> &sections)
{
    os << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n"
       << "<title>" << htmlEscape(title) << "</title>\n"
       << "<style>\n"
       << "body{font-family:monospace;margin:2em;max-width:70em}\n"
       << "table{border-collapse:collapse;margin:0.5em 0}\n"
       << "th,td{border:1px solid #999;padding:0.2em 0.6em;"
       << "text-align:right}\n"
       << "th{background:#eee}td:first-child,th:first-child"
       << "{text-align:left}\n"
       << "h2{margin-top:1.5em}p.note{color:#555}\n"
       << "</style></head><body>\n"
       << "<h1>" << htmlEscape(title) << "</h1>\n";
    for (const std::string &p : preamble)
        os << "<p>" << htmlEscape(p) << "</p>\n";
    for (const Section &sec : sections) {
        os << "<h2>" << htmlEscape(sec.title) << "</h2>\n";
        if (!sec.note.empty())
            os << "<p class=\"note\">" << htmlEscape(sec.note)
               << "</p>\n";
        os << "<table><tr>";
        for (const std::string &h : sec.headers)
            os << "<th>" << htmlEscape(h) << "</th>";
        os << "</tr>\n";
        for (const auto &row : sec.rows) {
            os << "<tr>";
            for (const std::string &c : row)
                os << "<td>" << htmlEscape(c) << "</td>";
            os << "</tr>\n";
        }
        os << "</table>\n";
    }
    os << "</body></html>\n";
}

std::string
u64(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
fixed1(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    return buf;
}

} // namespace

static int
run(int argc, char **argv)
{
    bench::BenchArgs args;
    args.only = {"intruder"};
    std::size_t top_n = 10;
    bool html = false;
    std::string outPath;

    using namespace bench::flags;
    const auto own = [&](const std::string &a, bench::FlagValues &v) {
        if (a == "--top")
            top_n = parseFlag<std::size_t>(a, v.next());
        else if (a == "--html")
            html = true;
        else if (a == "-o" || a == "--output")
            outPath = v.next();
        else
            return false;
        return true;
    };
    args.parse(argc, argv,
               Workload | Scale | Htm | Threads | Seed | Retries | Buffer |
                   Preabort | Jobs,
               {ownHelp, own});

    core::SystemOptions base = args.options();
    base.journal = true;
    base.metrics = true;

    core::SystemOptions baseline = base;
    baseline.mechanism = core::Mechanism::Baseline;
    core::SystemOptions full = base;
    full.mechanism = core::Mechanism::Full;

    const bench::PreparedWorkload p =
        bench::prepare(args.only.front(), args.scale, args.threads);

    const std::vector<bench::MatrixJob> jobs = {{&p, baseline}, {&p, full}};
    const std::vector<sim::RunResult> results =
        bench::runMatrix(jobs, args.jobs);
    const sim::RunResult &rb = results[0];
    const sim::RunResult &rf = results[1];
    HINTM_ASSERT(rb.journal && rb.metrics && rf.journal && rf.metrics,
                 "report runs lost their observability payloads");

    const MetricsRegistry &mb = *rb.metrics;
    const MetricsRegistry &mf = *rf.metrics;
    const TxJournal &jb = *rb.journal;
    const TxJournal &jf = *rf.journal;

    const std::string title =
        "HinTM capacity-pressure & hint-effectiveness report";
    std::vector<std::string> preamble;
    {
        std::ostringstream os;
        os << "workload: " << p.wl.name << " (" << p.wl.threads
           << " threads), htm " << htm::htmKindName(base.htmKind)
           << ", seed " << base.seed;
        preamble.push_back(os.str());
        preamble.push_back(
            "configs: baseline (no hints) vs full (static + dynamic "
            "safety hints); both runs carry the TX journal and "
            "capacity-pressure metrics (observation only).");
    }

    std::vector<Section> sections;

    {
        Section s;
        s.title = "run comparison";
        s.headers = {"metric", "baseline", "full"};
        const double speedup =
            rf.cycles ? double(rb.cycles) / double(rf.cycles) : 0.0;
        s.rows.push_back({"cycles", u64(rb.cycles),
                          u64(rf.cycles) + " (" + fixed1(speedup) +
                              "x)"});
        s.rows.push_back({"hw commits", u64(rb.htm.commits),
                          u64(rf.htm.commits)});
        s.rows.push_back(
            {"capacity aborts",
             u64(rb.htm.aborts[unsigned(htm::AbortReason::Capacity)]),
             u64(rf.htm.aborts[unsigned(htm::AbortReason::Capacity)])});
        s.rows.push_back({"total aborts", u64(rb.htm.totalAborts()),
                          u64(rf.htm.totalAborts())});
        s.rows.push_back({"fallback runs", u64(rb.fallbackRuns),
                          u64(rf.fallbackRuns)});
        s.rows.push_back({"cycles lost to aborts",
                          u64(jb.totals().cyclesLostToAborts),
                          u64(jf.totals().cyclesLostToAborts)});
        s.rows.push_back({"safe-skipped accesses",
                          u64(mb.skipStaticAccesses +
                              mb.skipDynAccesses +
                              mb.skipAnnotAccesses),
                          u64(mf.skipStaticAccesses +
                              mf.skipDynAccesses +
                              mf.skipAnnotAccesses)});
        s.rows.push_back({"hint-saved commits", u64(mb.hintSavedCommits),
                          u64(mf.hintSavedCommits)});
        s.rows.push_back({"fallback-lock acquisitions",
                          u64(mb.fallbackAcquisitions),
                          u64(mf.fallbackAcquisitions)});
        sections.push_back(std::move(s));
    }

    {
        Section s;
        s.title = "overflow-set occupancy at capacity aborts";
        s.note = "lines resident in the overflowing L1 set when each "
                 "capacity abort fired: transactionally tracked, "
                 "safe-skipped by hints, or non-transactional.";
        s.headers = {"config", "scans", "tracked", "safe-skipped",
                     "other", "mean lines/scan"};
        auto row = [&](const char *name, const MetricsRegistry &m) {
            const std::uint64_t lines =
                m.ovTracked + m.ovSafeSkipped + m.ovOther;
            s.rows.push_back(
                {name, u64(m.ovScans), u64(m.ovTracked),
                 u64(m.ovSafeSkipped), u64(m.ovOther),
                 fixed1(m.ovScans ? double(lines) / m.ovScans : 0.0)});
        };
        row("baseline", mb);
        row("full", mf);
        sections.push_back(std::move(s));
    }

    {
        Section s;
        s.title = "capacity pressure by TX site (full config)";
        s.note = "ranked by capacity aborts, then peak tracked "
                 "footprint; hint-reclaimed lines = tracking slots "
                 "freed by safe-access skips.";
        s.headers = {"site", "cap aborts", "mean trk@cap",
                     "peak trk", "hint-reclaimed lines",
                     "reclaimed bytes", "hint-saved commits",
                     "cycles lost"};
        const auto sites = mf.sitesByPressure();
        const std::size_t n = std::min(top_n, sites.size());
        for (std::size_t i = 0; i < n; ++i) {
            const MetricsRegistry::SiteMetrics &sm = *sites[i];
            // The journal and the registry key sites alike.
            const auto it =
                jf.sites().find(siteKey(sm.fn, sm.block, sm.instr));
            const std::uint64_t lost =
                it != jf.sites().end() ? it->second.cyclesLostToAborts
                                       : 0;
            s.rows.push_back(
                {mf.names().siteName(sm.fn, sm.block, sm.instr),
                 u64(sm.capacityAborts),
                 fixed1(sm.capacityAborts
                            ? double(sm.trackedAtCapacitySum) /
                                  sm.capacityAborts
                            : 0.0),
                 u64(sm.peakTrackedMax), u64(sm.skippedBlocksSum),
                 u64(sm.skippedBytes), u64(sm.hintSavedCommits),
                 u64(lost)});
        }
        if (sites.size() > n) {
            std::ostringstream os;
            os << "(" << sites.size() - n << " more sites)";
            s.rows.push_back({os.str(), "", "", "", "", "", "", ""});
        }
        sections.push_back(std::move(s));
    }

    {
        Section s;
        s.title = "footprint growth (full config)";
        s.note = "cycles from TX begin until the tracked read/write "
                 "set first reached each milestone, over all hardware "
                 "TX attempts.";
        s.headers = {"blocks", "reads: TXs", "mean cycles",
                     "writes: TXs", "mean cycles"};
        for (unsigned k = 0; k < MetricsRegistry::numMilestones; ++k) {
            const Log2Hist &hr = mf.growthRead[k];
            const Log2Hist &hw = mf.growthWrite[k];
            if (hr.empty() && hw.empty())
                continue;
            s.rows.push_back({u64(MetricsRegistry::milestoneBlocks(k)),
                              u64(hr.count), fixed1(hr.mean()),
                              u64(hw.count), fixed1(hw.mean())});
        }
        sections.push_back(std::move(s));
    }

    {
        Section s;
        s.title = "tracked footprint distribution (full config)";
        s.headers = {"statistic", "at commit", "at capacity abort"};
        s.rows.push_back({"TXs", u64(mf.trackedAtCommit.count),
                          u64(mf.trackedAtCapacityAbort.count)});
        s.rows.push_back({"mean blocks",
                          fixed1(mf.trackedAtCommit.mean()),
                          fixed1(mf.trackedAtCapacityAbort.mean())});
        s.rows.push_back({"max blocks", u64(mf.trackedAtCommit.max),
                          u64(mf.trackedAtCapacityAbort.max)});
        sections.push_back(std::move(s));
    }

    {
        Section s;
        s.title = "fallback-lock occupancy";
        s.headers = {"config", "acquisitions", "held cycles",
                     "run cycles", "held fraction"};
        auto row = [&](const char *name, const MetricsRegistry &m,
                       const sim::RunResult &r) {
            std::uint64_t held = 0;
            for (Cycle c : m.fallbackSeries.samples())
                held += c;
            s.rows.push_back(
                {name, u64(m.fallbackAcquisitions), u64(held),
                 u64(r.cycles),
                 fixed1(r.cycles ? 100.0 * double(held) / r.cycles
                                 : 0.0) +
                     "%"});
        };
        row("baseline", mb, rb);
        row("full", mf, rf);
        sections.push_back(std::move(s));
    }

    if (mf.numaNodes() > 1) {
        Section s;
        s.title = "NUMA traffic matrix (full config)";
        s.note = "bus transactions from each requester node to each "
                 "home node.";
        s.headers.push_back("from \\ to");
        for (unsigned to = 0; to < mf.numaNodes(); ++to)
            s.headers.push_back("node " + std::to_string(to));
        for (unsigned from = 0; from < mf.numaNodes(); ++from) {
            std::vector<std::string> row = {"node " +
                                            std::to_string(from)};
            for (unsigned to = 0; to < mf.numaNodes(); ++to)
                row.push_back(u64(
                    mf.numaMatrix()[std::size_t(from) * mf.numaNodes() +
                                    to]));
            s.rows.push_back(std::move(row));
        }
        sections.push_back(std::move(s));
    }

    std::ostringstream report;
    if (html)
        renderHtml(report, title, preamble, sections);
    else
        renderText(report, title, preamble, sections);

    if (outPath.empty()) {
        std::fputs(report.str().c_str(), stdout);
    } else {
        openOutput(outPath) << report.str();
        std::printf("report: %s\n", outPath.c_str());
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return hintm::runMain(argc, argv, run);
}

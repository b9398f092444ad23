/**
 * @file
 * Exporters over the per-TX journal: Perfetto/Chrome-trace JSON
 * timelines (one track per hardware context), a machine-readable stats
 * record (supersedes parsing RunResult::rawStats), the capacity-pressure
 * metrics section and Perfetto counter tracks for metrics-carrying runs,
 * and the per-site abort-attribution and interval tables that hintm_run
 * --journal prints. Pure output formatting: nothing here mutates the
 * journal or the simulation.
 */

#ifndef HINTM_SIM_JOURNAL_IO_HH
#define HINTM_SIM_JOURNAL_IO_HH

#include <ostream>
#include <string>
#include <vector>

#include "sim/machine.hh"

namespace hintm
{
namespace sim
{

/** @p s as the body of a JSON string: quotes, backslashes and newlines
 * escaped. */
std::string jsonEscape(const std::string &s);

/** One run to export, with the labels the JSON consumers key on. */
struct JournalRun
{
    std::string workload;
    std::string config;
    unsigned threads = 0;
    /** Must outlive the export call. Runs without a journal are skipped
     * by the Perfetto exporter and get "journal": null in stats JSON. */
    const RunResult *result = nullptr;
};

/**
 * Write a Chrome-trace/Perfetto JSON timeline ({"traceEvents": [...]})
 * covering every run: one process per run (named after the run), one
 * track per hardware context, one complete ("X") event per retained
 * journal record, and — for runs that also carried metrics — counter
 * ("C") tracks with each context's tracked footprint at TX close and
 * the per-window fallback-lock occupancy. Cycles are exported as
 * microseconds (1 cycle = 1 µs) so timelines are readable in
 * ui.perfetto.dev without a clock config.
 */
void writePerfettoTrace(std::ostream &os,
                        const std::vector<JournalRun> &runs);

/** File convenience wrapper; warns and returns false on I/O failure. */
bool writePerfettoTrace(const std::string &path,
                        const std::vector<JournalRun> &runs);

/**
 * One machine-readable JSON object for a run: simulation results (HTM
 * stats keyed by abort-reason name, access mix, pages) plus — when the
 * run carried a journal — exact journal aggregates, the per-site
 * attribution list with hottest offending blocks, and the interval time
 * series folded at defaultIntervalWindow(run cycles). Runs carrying
 * capacity-pressure metrics additionally get a "metrics" section
 * (growth curves, overflow-set occupancy, per-site hint effectiveness,
 * fallback/sharer/NUMA telemetry); others get "metrics": null.
 */
std::string statsJsonRecord(const JournalRun &run);

/** Write a JSON array of statsJsonRecord objects, one per run. */
void writeStatsJson(std::ostream &os, const std::vector<JournalRun> &runs);

/** File convenience wrapper; warns and returns false on I/O failure. */
bool writeStatsJson(const std::string &path,
                    const std::vector<JournalRun> &runs);

/**
 * The per-site abort-attribution table: top @p top_n sites by cycles
 * lost to aborts (the cost-ranked view), with the per-reason breakdown
 * and the hottest offending block addresses recorded at abort time.
 * Sites whose hot-block list saturated are marked "(sat)".
 */
std::string renderAttributionTable(const TxJournal &journal,
                                   std::size_t top_n = 10);

/** Interval time series rendered as a text table, folded at
 * defaultIntervalWindow(@p run_cycles). */
std::string renderIntervalTable(const TxJournal &journal,
                                Cycle run_cycles);

/** ~50 windows over the run, rounded to a friendly power of ten. */
Cycle defaultIntervalWindow(Cycle run_cycles);

/** One-paragraph journal summary ("N attempts recorded, ..."). */
std::string journalSummary(const RunResult &r);

/** One-paragraph capacity-pressure summary ("N capacity aborts, ...");
 * "metrics: off" when the run carried no metrics. */
std::string metricsSummary(const RunResult &r);

} // namespace sim
} // namespace hintm

#endif // HINTM_SIM_JOURNAL_IO_HH

/**
 * @file
 * Shared plumbing for the figure-reproduction harnesses: workload
 * preparation, the shared flags, the parallel experiment runner
 * (runMatrix) with its --perfetto/--stats-json exports, and result
 * formatting helpers.
 */

#ifndef HINTM_BENCH_BENCH_UTIL_HH
#define HINTM_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/hintm.hh"
#include "sim/journal_io.hh"
#include "workloads/workloads.hh"

namespace hintm
{
namespace bench
{

/** Command-line options shared by all harnesses. */
struct BenchArgs
{
    workloads::Scale scale = workloads::Scale::Small;
    /** True when the user passed an explicit scale flag. */
    bool scaleExplicit = false;
    /** Empty = the full suite. */
    std::vector<std::string> only;
    /** --preserve: the §VI-B preserve-read-only page policy. Applied to
     * configs through options(). */
    bool preserve = false;
    /** Concurrent simulations (0 = hardware concurrency). */
    unsigned jobs = 0;
    /** --lint: run the static race-lint pass over every workload as it
     * is prepared and abort on any diagnostic (soundness gate). Passed
     * to prepare(). */
    bool lint = false;
    /** --journal: record every TX attempt (observation only, results
     * bit-identical). Applied to configs through options(). */
    bool journal = false;
    /** --metrics: fold capacity-pressure metrics into every run
     * (observation only, results bit-identical). Applied to configs
     * through options(). */
    bool metrics = false;
    /** --perfetto [FILE]: write a Chrome-trace timeline of every
     * journal-carrying run of the matrix (implies --journal). */
    std::string perfettoPath;
    /** --stats-json [FILE]: write machine-readable per-run stats
     * records of the matrix (journal sections when --journal is on). */
    std::string statsJsonPath;

    static BenchArgs parse(int argc, char **argv);
    std::vector<std::string> names() const;
    /** Paper-default options with --preserve and the observation flags
     * (--journal, --metrics) applied: the starting point of every
     * harness config. */
    core::SystemOptions options() const;
};

/** A workload with hints compiled once, reusable across configs. */
struct PreparedWorkload
{
    workloads::Workload wl;
    compiler::SafetyReport compileReport;
    /** Unread here; kept because perfbench sets it. */
    workloads::Scale scale = workloads::Scale::Small;
};

/** Build and hint-compile a workload. A module is partitioned for the
 * thread count it is built for, so @p threads > 0 builds "name@N"
 * (0 = the workload's own count). With @p lint, the module then passes
 * lintGate. */
PreparedWorkload prepare(const std::string &name, workloads::Scale s,
                         unsigned threads = 0, bool lint = false);

/** The --lint soundness gate: re-derive the race obligations of @p wl's
 * hint-compiled module and fatal, naming the workload, on any
 * diagnostic. */
void lintGate(const workloads::Workload &wl);

/**
 * One simulation of the experiment matrix. The referenced workload must
 * outlive the runMatrix call.
 */
struct MatrixJob
{
    const PreparedWorkload *wl = nullptr;
    core::SystemOptions opts;
};

/**
 * Execute the jobs concurrently on @p host_jobs threads (0 = hardware
 * concurrency, clamped — see effectiveJobs) and return results in
 * submission order. Every job simulates: each simulation is
 * deterministic and self-contained, so the results are bit-identical
 * to a sequential run regardless of host_jobs.
 */
std::vector<sim::RunResult> runMatrix(const std::vector<MatrixJob> &jobs,
                                      unsigned host_jobs = 0);

/** A harness's matrix: runMatrix on args.jobs host threads, then the
 * --perfetto / --stats-json files over its runs in submission order
 * (writeExports). */
std::vector<sim::RunResult> runMatrix(const std::vector<MatrixJob> &jobs,
                                      const BenchArgs &args);

/** Write a Perfetto timeline to @p perfetto_path and a stats-JSON array
 * to @p stats_path (an empty path writes nothing), one entry per run of
 * @p runs. Both files are opened before either is written: fatal,
 * naming the file, when one cannot be opened, leaving neither. */
void writeExports(const std::string &perfetto_path,
                  const std::string &stats_path,
                  const std::vector<sim::JournalRun> &runs);

/**
 * Host worker threads runMatrix will actually use for @p requested
 * (0 = std::thread::hardware_concurrency(), clamped to [1, 64]).
 * @p sim_threads is the largest simulated-machine thread count among
 * the jobs: every in-flight simulation holds per-context state
 * proportional to it, so the default is additionally capped to keep
 * jobs x sim_threads bounded (8-thread sweeps are unaffected; 32/64-
 * thread sweeps get fewer concurrent machines). An explicit @p
 * requested is always honored, with a warn-once cap hint when it
 * oversubscribes.
 */
unsigned effectiveJobs(unsigned requested, unsigned sim_threads = 8);

/** Always zero: runMatrix neither dedupes nor forks. Kept, with
 * matrixCacheStats() and clearMatrixCache(), because perfbench reports
 * these fields as bench.deduped and bench.prefix_forks. */
struct MatrixCacheStats
{
    std::uint64_t deduped = 0;
    std::uint64_t prefixForks = 0;
};

inline MatrixCacheStats
matrixCacheStats()
{
    return {};
}

/** Does nothing: runMatrix keeps no results between calls. */
inline void
clearMatrixCache()
{
}

/** "2.98x"-style speedup formatting. */
std::string speedupStr(double s);

/**
 * Abort reduction vs a baseline count, as a signed fraction: positive
 * when @p with is an improvement, negative when the mechanism made
 * things worse (guards division by zero).
 */
double reduction(std::uint64_t base, std::uint64_t with);

/** Geometric mean (ignores non-positive entries). */
double geomean(const std::vector<double> &v);

} // namespace bench
} // namespace hintm

#endif // HINTM_BENCH_BENCH_UTIL_HH

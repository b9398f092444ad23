/**
 * @file
 * Shared plumbing for the figure-reproduction harnesses and the tools:
 * the command-line parser every binary reads its flags through,
 * workload preparation, the parallel experiment runner (runMatrix) with
 * its --perfetto/--stats-json exports, and result formatting helpers.
 */

#ifndef HINTM_BENCH_BENCH_UTIL_HH
#define HINTM_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/hintm.hh"
#include "sim/journal_io.hh"
#include "workloads/workloads.hh"

namespace hintm
{
namespace bench
{

/** The shared flags, one bit each. A binary hands BenchArgs::parse the
 * set it honours; there, any other shared flag is an unknown option. */
namespace flags
{
enum : unsigned
{
    Scale = 1u << 0,      ///< --scale S, --tiny, --small, --large
    Workloads = 1u << 1,  ///< --workload NAME, repeatable
    Workload = 1u << 2,   ///< --workload NAME, at most once
    Htm = 1u << 3,        ///< --htm KIND
    Threads = 1u << 4,    ///< --threads N
    Seed = 1u << 5,       ///< --seed N
    Retries = 1u << 6,    ///< --retries N
    Buffer = 1u << 7,     ///< --buffer N
    Preserve = 1u << 8,   ///< --preserve
    Preabort = 1u << 9,   ///< --preabort
    Jobs = 1u << 10,      ///< --jobs N
    Lint = 1u << 11,      ///< --lint
    Journal = 1u << 12,   ///< --journal
    Metrics = 1u << 13,   ///< --metrics
    Perfetto = 1u << 14,  ///< --perfetto [FILE]
    StatsJson = 1u << 15, ///< --stats-json [FILE]
    List = 1u << 16,      ///< --list
};

/** The set every figure and ablation harness honours unless it says
 * otherwise. */
constexpr unsigned harness = Scale | Workloads | Preserve | Jobs | Lint |
                             Journal | Metrics | Perfetto | StatsJson;
} // namespace flags

/** Reads the value of the flag BenchArgs::parse is at, for the shared
 * flags and a binary's own flags alike. */
struct FlagValues
{
    const std::string &flag;
    int argc;
    char **argv;
    int &i;

    /** The value after the flag. An optional one (default @p dflt) is
     * the next argument unless that starts with '-'; a required one
     * (no @p dflt) that is missing is fatal, naming the flag. */
    const char *next(const char *dflt = nullptr) const;
};

/** A binary's own flags, beyond the shared ones. */
struct OwnFlags
{
    /** Their --help lines. */
    const char *help = "";
    /** Takes one of them, reading its value through @p v; false when
     * @p flag is none of them. */
    std::function<bool(const std::string &flag, FlagValues &v)> take;
};

/** Command-line options shared by all harnesses and tools. */
struct BenchArgs
{
    workloads::Scale scale = workloads::Scale::Small;
    /** Empty = the full suite. A list set before parse() is a preset
     * that the first --workload replaces. */
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
    /** --htm, --seed, --retries, --buffer and --preabort: applied to
     * configs through options(), with SystemOptions' defaults. */
    htm::HtmKind htmKind = core::SystemOptions().htmKind;
    std::uint64_t seed = core::SystemOptions().seed;
    unsigned retries = core::SystemOptions().maxRetries;
    unsigned bufferEntries = core::SystemOptions().bufferEntries;
    bool preAbort = core::SystemOptions().preAbortHandler;
    /** --threads N: build the workload for N threads (0 = its own
     * count). */
    unsigned threads = 0;
    /** --list: list the workloads instead of running. */
    bool list = false;

    /**
     * The one argv loop. Reads each shared flag in @p shared (a set of
     * flags:: bits) into these fields, whose values beforehand are the
     * binary's defaults; hands every other flag to @p own; and ends with
     * one fatal: line on a flag neither takes, a missing value or a bad
     * one. --help (or -h) prints usage() and exits 0.
     */
    void parse(int argc, char **argv, unsigned shared = flags::harness,
               const OwnFlags &own = {});
    /** The --help text of program @p prog: one line per flag it takes,
     * with these fields' values as the defaults. */
    std::string usage(const std::string &prog, unsigned shared,
                      const OwnFlags &own = {}) const;
    std::vector<std::string> names() const;
    /** @p o (by default the paper's options) with the shared run flags
     * applied: the HTM kind, seed, retries, buffer entries, pre-abort,
     * --preserve and the observation flags (--journal, --metrics). The
     * starting point of every harness config. */
    core::SystemOptions options(core::SystemOptions o = {}) const;
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

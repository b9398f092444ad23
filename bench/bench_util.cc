#include "bench_util.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "compiler/race_lint.hh"

namespace hintm
{
namespace bench
{

const char *
FlagValues::next(const char *dflt) const
{
    if (i + 1 < argc && !(dflt && argv[i + 1][0] == '-'))
        return argv[++i];
    if (!dflt)
        HINTM_FATAL(flag, " needs a value");
    return dflt;
}

void
BenchArgs::parse(int argc, char **argv, unsigned shared,
                 const OwnFlags &own)
{
    const char *slash = std::strrchr(argv[0], '/');
    const std::string prog = slash ? slash + 1 : argv[0];
    const BenchArgs preset = *this; // --help shows these as the defaults
    bool workloadSeen = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        FlagValues v{a, argc, argv, i};
        // A shared flag outside the binary's set is as unknown to it as
        // any other: --help lists exactly the flags it takes.
        const auto unknown = [&] {
            HINTM_FATAL("unknown option ", a, " (see --help)");
        };
        const auto is = [&](const char *flag, unsigned bit) {
            if (a == flag && !(shared & bit))
                unknown();
            return a == flag;
        };
        if (a == "-h" || a == "--help") {
            std::fputs(preset.usage(prog, shared, own).c_str(), stdout);
            std::exit(0);
        } else if (is("--workload", flags::Workloads | flags::Workload)) {
            const std::string name = v.next();
            if (workloadSeen && !(shared & flags::Workloads))
                HINTM_FATAL(prog, " runs one workload: --workload '",
                            only.front(), "' and then '", name, "'");
            if (!workloadSeen)
                only.clear(); // the binary's preset list
            workloadSeen = true;
            only.push_back(name);
        } else if (is("--scale", flags::Scale) || is("--tiny", flags::Scale) ||
                   is("--small", flags::Scale) || is("--large", flags::Scale)) {
            const std::string s = a == "--scale" ? v.next() : a.substr(2);
            if (!workloads::scaleByName(s, scale))
                HINTM_FATAL("--scale expects tiny, small or large, got '",
                            s, "'");
        } else if (is("--htm", flags::Htm)) {
            const std::string s = v.next();
            if (!htm::htmKindByName(s, htmKind))
                HINTM_FATAL("--htm expects p8, p8s, l1tm or infcap, got '",
                            s, "'");
        } else if (is("--threads", flags::Threads)) {
            threads = parseFlag<unsigned>(a, v.next());
        } else if (is("--seed", flags::Seed)) {
            seed = parseFlag(a, v.next());
        } else if (is("--retries", flags::Retries)) {
            retries = parseFlag<unsigned>(a, v.next());
        } else if (is("--buffer", flags::Buffer)) {
            bufferEntries = parseFlag<unsigned>(a, v.next());
        } else if (is("--preserve", flags::Preserve)) {
            preserve = true;
        } else if (is("--preabort", flags::Preabort)) {
            preAbort = true;
        } else if (is("--jobs", flags::Jobs)) {
            jobs = parseFlag<unsigned>(a, v.next());
        } else if (is("--lint", flags::Lint)) {
            lint = true;
        } else if (is("--journal", flags::Journal)) {
            journal = true;
        } else if (is("--metrics", flags::Metrics)) {
            metrics = true;
        } else if (is("--perfetto", flags::Perfetto)) {
            perfettoPath = v.next("perfetto_trace.json");
            journal = true; // a timeline needs records
        } else if (is("--stats-json", flags::StatsJson)) {
            statsJsonPath = v.next("stats.json");
        } else if (is("--list", flags::List)) {
            list = true;
        } else if (!own.take || !own.take(a, v)) {
            unknown();
        }
    }
    // prepare() builds "NAME@N" for --threads N, so a name that already
    // carries a count would get a second one.
    for (const std::string &name : only) {
        if (threads && name.find('@') != std::string::npos)
            HINTM_FATAL("workload '", name, "' names its own thread "
                        "count: drop the suffix or --threads ", threads);
    }
}

std::string
BenchArgs::usage(const std::string &prog, unsigned shared,
                 const OwnFlags &own) const
{
    std::ostringstream os;
    os << "usage: " << prog << " [options]\n";
    const auto line = [&](unsigned bit, const char *flag, const char *text,
                          const std::string &dflt = "") {
        if (!bit || shared & bit)
            os << "  " << std::left << std::setw(19) << flag << " " << text
               << (dflt.empty() ? "" : " (default " + dflt + ")") << "\n";
    };
    std::string names;
    for (const std::string &name : only)
        names += (names.empty() ? "" : " ") + name;
    std::string kind = htm::htmKindName(htmKind);
    for (char &c : kind)
        c = char(std::tolower(static_cast<unsigned char>(c)));
    line(flags::Workloads, "--workload NAME", "workload to run, repeatable",
         names.empty() ? "all" : names);
    line(flags::Workload, "--workload NAME", "workload to run",
         names.empty() ? "all" : names);
    line(flags::Scale, "--scale S", "tiny | small | large",
         workloads::scaleLabel(scale));
    line(flags::Scale, "--tiny|--small|--large", "shorthand for --scale S");
    line(flags::Htm, "--htm KIND", "p8 | p8s | l1tm | infcap", kind);
    line(flags::Threads, "--threads N", "build the workload for N threads",
         "0: its own count");
    line(flags::Seed, "--seed N", "RNG seed", std::to_string(seed));
    line(flags::Retries, "--retries N", "transient-abort retries",
         std::to_string(retries));
    line(flags::Buffer, "--buffer N", "TX buffer entries",
         std::to_string(bufferEntries));
    line(flags::Preserve, "--preserve", "preserve-read-only page policy");
    line(flags::Preabort, "--preabort",
         "convert capacity overflows to critical sections");
    line(flags::Jobs, "--jobs N", "host threads for the runner",
         "0: all CPUs");
    line(flags::Lint, "--lint",
         "race-lint each workload; abort on any diagnostic");
    line(flags::Journal, "--journal",
         "record every TX attempt (observation only)");
    line(flags::Metrics, "--metrics",
         "collect capacity-pressure metrics (observation only)");
    line(flags::Perfetto, "--perfetto [FILE]",
         "write a Chrome-trace timeline; implies --journal",
         "perfetto_trace.json");
    line(flags::StatsJson, "--stats-json [FILE]",
         "write machine-readable stats records", "stats.json");
    line(flags::List, "--list", "list the workloads and exit");
    line(0, "-h|--help", "print this help and exit"); // every binary's
    os << own.help;
    return os.str();
}

std::vector<std::string>
BenchArgs::names() const
{
    return only.empty() ? workloads::allNames() : only;
}

core::SystemOptions
BenchArgs::options(core::SystemOptions o) const
{
    o.htmKind = htmKind;
    o.seed = seed;
    o.maxRetries = retries;
    o.bufferEntries = bufferEntries;
    o.preAbortHandler = preAbort;
    o.preserveReadOnly = preserve;
    o.journal = journal;
    o.metrics = metrics;
    return o;
}

PreparedWorkload
prepare(const std::string &name, workloads::Scale s, unsigned threads,
        bool lint)
{
    PreparedWorkload p;
    p.wl = workloads::byName(
        threads ? name + "@" + std::to_string(threads) : name, s);
    p.compileReport = core::compileHints(p.wl.module);
    if (lint)
        lintGate(p.wl);
    return p;
}

void
lintGate(const workloads::Workload &wl)
{
    const compiler::LintReport lr = compiler::lintRaces(wl.module);
    if (!lr.clean())
        HINTM_FATAL("--lint: ", wl.name, ": ", lr.summary(), "\n",
                    lr.render());
}

namespace
{

/** Soft budget on (host jobs x simulated threads): each in-flight
 * simulation holds interpreter frames, caches and HTM state for every
 * simulated context, so concurrency must shrink as machines grow.
 * 512 keeps the historical 64-job ceiling for 8-thread sweeps while a
 * 64-thread sweep runs at most 8 machines at once. */
constexpr unsigned simJobBudget = 512;

void
warnOversubscribed(unsigned requested, unsigned sim_threads,
                   unsigned budget)
{
    static std::once_flag once;
    std::call_once(once, [&] {
        warn("--jobs ", requested, " with ", sim_threads,
             "-thread simulated machines oversubscribes memory (",
             requested * sim_threads, " simulated contexts in flight); "
             "consider --jobs ", budget, " or lower");
    });
}

} // namespace

unsigned
effectiveJobs(unsigned requested, unsigned sim_threads)
{
    const unsigned budget =
        std::max(1u, simJobBudget / std::max(1u, sim_threads));
    if (requested) {
        if (requested > budget)
            warnOversubscribed(requested, sim_threads, budget);
        return requested;
    }
    return std::min(std::min(64u, budget),
                    std::max(1u, std::thread::hardware_concurrency()));
}

std::vector<sim::RunResult>
runMatrix(const std::vector<MatrixJob> &jobs, unsigned host_jobs)
{
    unsigned max_sim_threads = 1;
    for (const MatrixJob &j : jobs) {
        HINTM_ASSERT(j.wl != nullptr, "matrix job without a workload");
        // Once here, not once per worker: one fatal: line.
        sim::checkThreadCount(core::makeMachineConfig(j.opts),
                              j.wl->wl.threads);
        max_sim_threads = std::max(max_sim_threads, j.wl->wl.threads);
    }
    std::vector<sim::RunResult> results(jobs.size());
    parallelFor(effectiveJobs(host_jobs, max_sim_threads), jobs.size(),
                [&](std::size_t i) {
                    results[i] = core::simulate(jobs[i].opts,
                                                jobs[i].wl->wl.module,
                                                jobs[i].wl->wl.threads);
                });
    return results;
}

std::vector<sim::RunResult>
runMatrix(const std::vector<MatrixJob> &jobs, const BenchArgs &args)
{
    std::vector<sim::RunResult> results = runMatrix(jobs, args.jobs);
    if (!args.perfettoPath.empty() || !args.statsJsonPath.empty()) {
        // Exports list runs in submission order, whatever the job count.
        std::vector<sim::JournalRun> runs;
        runs.reserve(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            runs.push_back({jobs[i].wl->wl.name, jobs[i].opts.label(),
                            jobs[i].wl->wl.threads, &results[i]});
        }
        writeExports(args.perfettoPath, args.statsJsonPath, runs);
    }
    return results;
}

void
writeExports(const std::string &perfetto_path,
             const std::string &stats_path,
             const std::vector<sim::JournalRun> &runs)
{
    std::ofstream trace, stats;
    if (!perfetto_path.empty())
        trace = openOutput(perfetto_path);
    try {
        if (!stats_path.empty())
            stats = openOutput(stats_path);
    } catch (const FatalError &) {
        // Leave no empty trace file behind: the run wrote no report.
        if (trace.is_open()) {
            trace.close();
            std::remove(perfetto_path.c_str());
        }
        throw;
    }
    if (trace.is_open())
        sim::writePerfettoTrace(trace, runs);
    if (stats.is_open())
        sim::writeStatsJson(stats, runs);
}

std::string
speedupStr(double s)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fx", s);
    return buf;
}

double
reduction(std::uint64_t base, std::uint64_t with)
{
    if (base == 0)
        return 0.0;
    // Signed on purpose: a mechanism that *increases* aborts shows up
    // as a negative reduction instead of being clamped to zero.
    return (double(base) - double(with)) / double(base);
}

double
geomean(const std::vector<double> &v)
{
    double acc = 0.0;
    unsigned n = 0;
    for (double x : v) {
        if (x > 0) {
            acc += std::log(x);
            ++n;
        }
    }
    return n ? std::exp(acc / n) : 0.0;
}

} // namespace bench
} // namespace hintm

#include "bench_util.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <thread>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "compiler/race_lint.hh"

namespace hintm
{
namespace bench
{

BenchArgs
BenchArgs::parse(int argc, char **argv)
{
    BenchArgs a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                HINTM_FATAL(arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--tiny") {
            a.scale = workloads::Scale::Tiny;
            a.scaleExplicit = true;
        } else if (arg == "--small") {
            a.scale = workloads::Scale::Small;
            a.scaleExplicit = true;
        } else if (arg == "--large") {
            a.scale = workloads::Scale::Large;
            a.scaleExplicit = true;
        } else if (arg == "--preserve") {
            a.preserve = true;
        } else if (arg == "--workload") {
            a.only.push_back(next());
        } else if (arg == "--jobs") {
            a.jobs = parseFlag<unsigned>(arg, next());
        } else if (arg == "--lint") {
            a.lint = true;
        } else if (arg == "--journal") {
            a.journal = true;
        } else if (arg == "--metrics") {
            a.metrics = true;
        } else if (arg == "--perfetto") {
            a.perfettoPath = "perfetto_trace.json";
            if (i + 1 < argc && argv[i + 1][0] != '-')
                a.perfettoPath = argv[++i];
            a.journal = true; // a timeline needs records
        } else if (arg == "--stats-json") {
            a.statsJsonPath = "stats.json";
            if (i + 1 < argc && argv[i + 1][0] != '-')
                a.statsJsonPath = argv[++i];
        } else if (arg == "--help") {
            std::printf("options: [--tiny|--small|--large] [--preserve] "
                        "[--workload NAME]... [--jobs N] "
                        "[--lint] [--journal] [--metrics] "
                        "[--perfetto [FILE]] [--stats-json [FILE]]\n");
            std::exit(0);
        } else {
            HINTM_FATAL("unknown argument ", arg);
        }
    }
    return a;
}

std::vector<std::string>
BenchArgs::names() const
{
    return only.empty() ? workloads::allNames() : only;
}

core::SystemOptions
BenchArgs::options() const
{
    core::SystemOptions o;
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

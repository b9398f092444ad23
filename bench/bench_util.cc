#include "bench_util.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "compiler/race_lint.hh"
#include "sim/journal_io.hh"

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
            setLintOnPrepare(true);
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
    if (!a.perfettoPath.empty() || !a.statsJsonPath.empty())
        setObservabilityExport(a.perfettoPath, a.statsJsonPath);
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
    o.journal = journal;
    o.metrics = metrics;
    return o;
}

namespace
{
bool lintOnPrepare = false;
} // namespace

void
setLintOnPrepare(bool on)
{
    lintOnPrepare = on;
}

PreparedWorkload
prepare(const std::string &name, workloads::Scale s, unsigned threads)
{
    PreparedWorkload p;
    p.wl = workloads::byName(
        threads ? name + "@" + std::to_string(threads) : name, s);
    p.compileReport = core::compileHints(p.wl.module);
    if (lintOnPrepare) {
        const compiler::LintReport lr = compiler::lintRaces(p.wl.module);
        if (!lr.clean()) {
            HINTM_FATAL("--lint: ", p.wl.name, ": ", lr.summary(), "\n",
                        lr.render());
        }
    }
    return p;
}

namespace
{

/** The --perfetto / --stats-json sink. Results are stored by value;
 * the journal rides along as a shared_ptr. */
struct ObservabilityExport
{
    std::mutex mu;
    std::string perfettoPath;
    std::string statsPath;
    struct Run
    {
        std::string workload;
        std::string config;
        unsigned threads;
        sim::RunResult result;
    };
    std::vector<Run> runs;
};

ObservabilityExport &
observabilityExport()
{
    static ObservabilityExport x;
    return x;
}

void
recordObservability(const std::string &workload,
                    const core::SystemOptions &opts, unsigned threads,
                    const sim::RunResult &r)
{
    ObservabilityExport &x = observabilityExport();
    std::lock_guard<std::mutex> lock(x.mu);
    if (x.perfettoPath.empty() && x.statsPath.empty())
        return;
    x.runs.push_back({workload, opts.label(), threads, r});
}

void
flushObservabilityExport()
{
    ObservabilityExport &x = observabilityExport();
    std::lock_guard<std::mutex> lock(x.mu);
    std::vector<sim::JournalRun> runs;
    runs.reserve(x.runs.size());
    for (const ObservabilityExport::Run &o : x.runs)
        runs.push_back({o.workload, o.config, o.threads, &o.result});
    if (!x.perfettoPath.empty())
        sim::writePerfettoTrace(x.perfettoPath, runs);
    if (!x.statsPath.empty())
        sim::writeStatsJson(x.statsPath, runs);
}

} // namespace

sim::RunResult
run(const PreparedWorkload &p, core::SystemOptions opts)
{
    sim::RunResult r = core::simulate(opts, p.wl.module, p.wl.threads);
    recordObservability(p.wl.name, opts, p.wl.threads, r);
    return r;
}

void
setObservabilityExport(const std::string &perfetto_path,
                       const std::string &stats_path)
{
    ObservabilityExport &x = observabilityExport();
    bool first;
    {
        std::lock_guard<std::mutex> lock(x.mu);
        first = x.perfettoPath.empty() && x.statsPath.empty();
        x.perfettoPath = perfetto_path;
        x.statsPath = stats_path;
    }
    if (first && (!perfetto_path.empty() || !stats_path.empty()))
        std::atexit(flushObservabilityExport);
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
    // Exports list runs in submission order, whatever the job count.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        recordObservability(jobs[i].wl->wl.name, jobs[i].opts,
                            jobs[i].wl->wl.threads, results[i]);
    }
    return results;
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

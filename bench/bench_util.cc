#include "bench_util.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "compiler/race_lint.hh"
#include "htm/abort.hh"
#include "result_store.hh"
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
        } else if (arg == "--workload" && i + 1 < argc) {
            a.only.push_back(argv[++i]);
        } else if (arg == "--jobs" && i + 1 < argc) {
            a.jobs = parseFlag<unsigned>(arg, argv[++i]);
        } else if (arg == "--json" && i + 1 < argc) {
            a.jsonPath = argv[++i];
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
        } else if (arg == "--cache-dir" && i + 1 < argc) {
            a.cacheDir = argv[++i];
        } else if (arg == "--no-disk-cache") {
            a.noDiskCache = true;
        } else if (arg == "--cache-clear") {
            a.cacheClear = true;
        } else if (arg == "--help") {
            std::printf("options: [--tiny|--small|--large] [--preserve] "
                        "[--workload NAME]... [--jobs N] [--json FILE] "
                        "[--lint] [--journal] [--metrics] "
                        "[--perfetto [FILE]] "
                        "[--stats-json [FILE]] [--cache-dir DIR] "
                        "[--no-disk-cache] [--cache-clear]\n");
            std::exit(0);
        } else {
            HINTM_FATAL("unknown argument ", arg);
        }
    }
    if (!a.jsonPath.empty())
        setJsonReport(a.jsonPath);
    if (!a.perfettoPath.empty() || !a.statsJsonPath.empty())
        setObservabilityExport(a.perfettoPath, a.statsJsonPath);
    const std::string cache_dir =
        a.cacheDir.empty() ? ResultStore::defaultDir() : a.cacheDir;
    if (a.cacheClear)
        ResultStore::clearDir(cache_dir);
    setDiskResultCache(cache_dir, !a.noDiskCache);
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
    PreparedWorkload p{
        workloads::byName(
            threads ? name + "@" + std::to_string(threads) : name, s),
        {}, s};
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
void recordObservability(const std::string &workload,
                         const core::SystemOptions &opts,
                         unsigned threads, const sim::RunResult &r);
} // namespace

sim::RunResult
run(const PreparedWorkload &p, core::SystemOptions opts)
{
    sim::RunResult r = core::simulate(opts, p.wl.module, p.wl.threads);
    recordObservability(p.wl.name, opts, p.wl.threads, r);
    return r;
}

namespace
{

// ---- process-wide result cache + JSON reporting --------------------

struct MatrixState
{
    std::mutex mu;
    std::unordered_map<std::string, sim::RunResult> cache;
    MatrixCacheStats stats;
    /** Persistent store (null = disabled, the library default). Held by
     * shared_ptr so a concurrent setDiskResultCache cannot pull the
     * store out from under an in-flight runMatrix. */
    std::shared_ptr<const ResultStore> disk;
    /** Host workers of the most recent runMatrix (JSON summary). */
    unsigned lastEffectiveJobs = 0;

    std::mutex jsonMu;
    std::string jsonPath;
    std::vector<std::string> jsonRecords;

    /** Observability export sink (--perfetto / --stats-json). Results
     * are stored by value; the journal rides along as a shared_ptr. */
    std::mutex obsMu;
    std::string perfettoPath;
    std::string statsPath;
    struct ObsRun
    {
        std::string workload;
        std::string config;
        unsigned threads;
        sim::RunResult result;
    };
    std::vector<ObsRun> obsRuns;
};

MatrixState &
state()
{
    static MatrixState s;
    return s;
}

/** Content fingerprint of a module: FNV-1a over its rendered text,
 * which includes every instruction and safety bit. Keyed by content —
 * not by pointer — because hintm_lint --mutate rewrites modules in
 * place between runMatrix calls. */
std::uint64_t
moduleFingerprint(const tir::Module &mod)
{
    const std::string text = mod.print();
    return fnv1a(text.data(), text.size());
}

/** Exact identity of a simulation: workload, scale, thread count, the
 * module fingerprint, and every SystemOptions field. Two jobs with
 * equal keys produce bit-identical RunResults. */
std::string
jobKeyWithFp(const MatrixJob &job, std::uint64_t fp)
{
    const core::SystemOptions &o = job.opts;
    std::ostringstream os;
    char fpbuf[20];
    std::snprintf(fpbuf, sizeof(fpbuf), "%016llx",
                  static_cast<unsigned long long>(fp));
    os << job.wl->wl.name << '|' << unsigned(job.wl->scale) << '|'
       << job.wl->wl.threads << '|' << fpbuf << '|'
       << unsigned(o.htmKind) << '|'
       << unsigned(o.mechanism) << '|' << o.preserveReadOnly
       << o.notaryAnnotations << o.preAbortHandler
       << unsigned(o.conflictPolicy) << '|' << o.numCores << 'x'
       << o.smtPerCore << '|' << o.seed << '|' << o.collectTxSizes
       << o.profileSharing << o.validateSafeStores << '|'
       << o.bufferEntries << '|' << o.signatureBits << '|'
       << o.maxRetries << '|' << o.collectRawStats << o.hintOracle
       << o.journal << o.metrics << '|' << o.journalCapacity << '|'
       << o.numaNodes << '|' << o.numaRemoteLatency;
    return os.str();
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

void
flushJsonReport()
{
    MatrixState &st = state();
    MatrixCacheStats cs;
    unsigned ejobs;
    {
        std::lock_guard<std::mutex> lock(st.mu);
        cs = st.stats;
        ejobs = st.lastEffectiveJobs;
    }
    std::lock_guard<std::mutex> lock(st.jsonMu);
    if (st.jsonPath.empty())
        return;
    std::ofstream os(st.jsonPath);
    if (!os) {
        warn("cannot write JSON report to ", st.jsonPath);
        return;
    }
    os << "[\n";
    for (std::size_t i = 0; i < st.jsonRecords.size(); ++i)
        os << "  " << st.jsonRecords[i] << ",\n";
    // Trailing summary record: host parallelism actually used plus the
    // process-wide cache counters (the CI sweep-cache job reads these).
    os << "  {\"summary\":true,\"jobs\":" << ejobs << ",\"cache\":{"
       << "\"hits\":" << cs.hits << ",\"misses\":" << cs.misses
       << ",\"deduped\":" << cs.deduped << ",\"disk_hits\":" << cs.diskHits
       << ",\"disk_stores\":" << cs.diskStores << "}}\n";
    os << "]\n";
}

void
recordJson(const MatrixJob &job, const sim::RunResult &r,
           double wall_ms)
{
    MatrixState &st = state();
    std::lock_guard<std::mutex> lock(st.jsonMu);
    if (st.jsonPath.empty())
        return;
    std::ostringstream os;
    os << "{\"workload\":\"" << jsonEscape(job.wl->wl.name)
       << "\",\"config\":\"" << jsonEscape(job.opts.label())
       << "\",\"threads\":" << job.wl->wl.threads << ",\"wall_ms\":";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", wall_ms);
    os << buf << ",\"cycles\":" << r.cycles
       << ",\"instructions\":" << r.instructions
       << ",\"committed_txs\":" << r.committedTxs
       << ",\"fallback_runs\":" << r.fallbackRuns << ",\"aborts\":{";
    for (unsigned a = 1; a < htm::numAbortReasons; ++a) {
        os << "\"" << htm::abortReasonName(htm::AbortReason(a))
           << "\":" << r.htm.aborts[a] << ",";
    }
    os << "\"total\":" << r.htm.totalAborts() << "}}";
    st.jsonRecords.push_back(os.str());
}

void
recordObservability(const std::string &workload,
                    const core::SystemOptions &opts, unsigned threads,
                    const sim::RunResult &r)
{
    MatrixState &st = state();
    std::lock_guard<std::mutex> lock(st.obsMu);
    if (st.perfettoPath.empty() && st.statsPath.empty())
        return;
    st.obsRuns.push_back({workload, opts.label(), threads, r});
}

void
flushObservabilityExport()
{
    MatrixState &st = state();
    std::lock_guard<std::mutex> lock(st.obsMu);
    std::vector<sim::JournalRun> runs;
    runs.reserve(st.obsRuns.size());
    for (const MatrixState::ObsRun &o : st.obsRuns)
        runs.push_back({o.workload, o.config, o.threads, &o.result});
    if (!st.perfettoPath.empty())
        sim::writePerfettoTrace(st.perfettoPath, runs);
    if (!st.statsPath.empty())
        sim::writeStatsJson(st.statsPath, runs);
}

} // namespace

void
setObservabilityExport(const std::string &perfetto_path,
                       const std::string &stats_path)
{
    MatrixState &st = state();
    bool first;
    {
        std::lock_guard<std::mutex> lock(st.obsMu);
        first = st.perfettoPath.empty() && st.statsPath.empty();
        st.perfettoPath = perfetto_path;
        st.statsPath = stats_path;
    }
    if (first && (!perfetto_path.empty() || !stats_path.empty()))
        std::atexit(flushObservabilityExport);
}

void
setJsonReport(const std::string &path)
{
    MatrixState &st = state();
    bool first;
    {
        std::lock_guard<std::mutex> lock(st.jsonMu);
        first = st.jsonPath.empty();
        st.jsonPath = path;
    }
    if (first)
        std::atexit(flushJsonReport);
}

std::string
matrixJobKey(const MatrixJob &job)
{
    HINTM_ASSERT(job.wl != nullptr, "matrix job without a workload");
    return jobKeyWithFp(job, moduleFingerprint(job.wl->wl.module));
}

void
setDiskResultCache(const std::string &dir, bool enabled)
{
    MatrixState &st = state();
    std::lock_guard<std::mutex> lock(st.mu);
    if (!enabled || dir.empty()) {
        st.disk.reset();
        return;
    }
    st.disk = std::make_shared<const ResultStore>(
        dir, ResultStore::selfBinaryHash());
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
                    std::max(1u, ThreadPool::defaultWorkers()));
}

MatrixCacheStats
matrixCacheStats()
{
    MatrixState &st = state();
    std::lock_guard<std::mutex> lock(st.mu);
    return st.stats;
}

void
clearMatrixCache()
{
    MatrixState &st = state();
    std::lock_guard<std::mutex> lock(st.mu);
    st.cache.clear();
    st.stats = {};
}

std::vector<sim::RunResult>
runMatrix(const std::vector<MatrixJob> &jobs, unsigned host_jobs)
{
    MatrixState &st = state();
    std::vector<sim::RunResult> results(jobs.size());
    // Submission slot -> the earlier slot it duplicates (or itself).
    std::vector<std::size_t> alias(jobs.size());
    std::vector<std::string> keys(jobs.size());
    std::vector<std::size_t> toRun;
    std::unordered_map<std::string, std::size_t> firstSlot;
    // Fingerprints are memoized for this call only: a pointer-keyed
    // cross-call memo would serve stale hashes to hintm_lint's
    // in-place module mutants.
    std::unordered_map<const PreparedWorkload *, std::uint64_t> fps;

    unsigned max_sim_threads = 1;
    for (const MatrixJob &j : jobs) {
        if (j.wl)
            max_sim_threads = std::max(max_sim_threads, j.wl->wl.threads);
    }
    const unsigned workers = effectiveJobs(host_jobs, max_sim_threads);
    std::shared_ptr<const ResultStore> disk;
    {
        std::lock_guard<std::mutex> lock(st.mu);
        disk = st.disk;
        st.lastEffectiveJobs = workers;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            HINTM_ASSERT(jobs[i].wl != nullptr,
                         "matrix job without a workload");
            auto fp = fps.emplace(jobs[i].wl, 0);
            if (fp.second)
                fp.first->second =
                    moduleFingerprint(jobs[i].wl->wl.module);
            keys[i] = jobKeyWithFp(jobs[i], fp.first->second);
            alias[i] = i;
            const auto cached = st.cache.find(keys[i]);
            if (cached != st.cache.end()) {
                results[i] = cached->second;
                keys[i].clear(); // resolved; nothing to run or copy
                ++st.stats.hits;
                continue;
            }
            const auto [it, fresh] = firstSlot.emplace(keys[i], i);
            if (fresh) {
                toRun.push_back(i);
            } else {
                alias[i] = it->second;
                ++st.stats.deduped;
            }
        }
    }

    // Probe the persistent store for the surviving unique jobs.
    // Serial: loads are small reads, cheap against the simulations
    // they replace. Journal- and metrics-carrying jobs bypass the store
    // (observability artifacts sized like the run itself, and the store
    // only serializes the POD result fields).
    std::vector<std::size_t> toSim;
    for (std::size_t i : toRun) {
        if (disk && !jobs[i].opts.journal && !jobs[i].opts.metrics &&
            disk->load(keys[i], results[i])) {
            std::lock_guard<std::mutex> lock(st.mu);
            ++st.stats.diskHits;
            st.cache.emplace(keys[i], results[i]);
        } else {
            toSim.push_back(i);
        }
    }
    {
        std::lock_guard<std::mutex> lock(st.mu);
        st.stats.misses += toSim.size();
    }

    std::vector<double> wallMs(toSim.size());
    parallelFor(workers, toSim.size(), [&](std::size_t k) {
        const std::size_t i = toSim[k];
        const MatrixJob &job = jobs[i];
        const auto t0 = std::chrono::steady_clock::now();
        results[i] = core::simulate(job.opts, job.wl->wl.module,
                                    job.wl->wl.threads);
        wallMs[k] = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        if (disk && !job.opts.journal && !job.opts.metrics) {
            disk->store(keys[i], results[i]);
            std::lock_guard<std::mutex> lock(st.mu);
            ++st.stats.diskStores;
        }
        std::lock_guard<std::mutex> lock(st.mu);
        st.cache.emplace(keys[i], results[i]);
    });
    // Exports list runs in submission order, whatever the job count.
    for (std::size_t k = 0; k < toSim.size(); ++k) {
        const MatrixJob &job = jobs[toSim[k]];
        const sim::RunResult &r = results[toSim[k]];
        recordJson(job, r, wallMs[k]);
        recordObservability(job.wl->wl.name, job.opts, job.wl->wl.threads,
                            r);
    }

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (alias[i] != i)
            results[i] = results[alias[i]];
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

/**
 * @file
 * The simulator's benchmark driver. One process runs one named workload
 * for a fixed host-time budget, as a closed loop: passes over the
 * workload's simulations are issued back to back, each on a freshly
 * built machine (caches start empty), with the persistent result cache
 * off and the in-memory runMatrix cache cleared before every pass.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--tiny] [--golden FILE] [--out DIR] [--record]
 *
 * Workloads (see README.md for why each was chosen):
 *   spin64         genome@64, 64 contexts, P8 Baseline, Small
 *   paper8         the Fig. 4 matrix: 10 kernels x 5 configs on P8,
 *                  Small, through bench::runMatrix with nproc jobs
 *   observe_large  the Fig. 8 pairs: 10 kernels x {Baseline, Full} on
 *                  L1TM with 2-way SMT, Large, journal + metrics on
 *
 * Every simulation is checked: its outcome digest must match the golden
 * table (or, for seeds the table lacks, the first pass of this process),
 * hardware commits + fallback runs must equal committed TXs, and
 * sim::checkTrace must be clean. A mismatch or a thrown panic counts as
 * a failed simulation. --trace 0 reports the end-to-end host-time
 * metrics; --trace 1 reports per-layer numbers from spans recorded
 * around each public call, plus the tracing overhead. The last stdout
 * line is one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. --record prints golden-table lines instead.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "core/hintm.hh"
#include "measure.hh"
#include "result_store.hh"
#include "sim/journal_io.hh"
#include "sim/schedule.hh"
#include "sim/snapshot.hh"
#include "sim/trace_check.hh"
#include "workloads/workloads.hh"

using namespace hintm;
namespace fs = std::filesystem;

namespace
{

using Clock = std::chrono::steady_clock;

const Clock::time_point processStart = Clock::now();

double
now()
{
    return std::chrono::duration<double>(Clock::now() - processStart)
        .count();
}

double
cpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval &t) {
        return double(t.tv_sec) + double(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

/** The CPUs this process may run on, by number. */
std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
        }
    }
    return cpus;
}

/** CPUs this process may run on, as nproc counts them. */
unsigned
hostThreads()
{
    const std::size_t n = allowedCpus().size();
    return n ? unsigned(n) : std::max(1u, std::thread::hardware_concurrency());
}

/**
 * Pins the calling thread to one CPU while in scope, then restores its
 * affinity; a negative CPU, or a failed call, leaves it unpinned. The
 * host's vCPUs run at different speeds for minutes at a time (set-up on
 * genome@64 took 26 us on two of them and 33-38 us on the other two),
 * and a single-threaded process stays on whichever it starts on, so a
 * run pinned nowhere reports the speed of one CPU picked at random.
 */
class Pin
{
  public:
    explicit Pin(int cpu)
    {
        if (cpu < 0 || sched_getaffinity(0, sizeof(old_), &old_) != 0)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    }
    ~Pin()
    {
        if (pinned_)
            sched_setaffinity(0, sizeof(old_), &old_);
    }
    Pin(const Pin &) = delete;
    Pin &operator=(const Pin &) = delete;

  private:
    cpu_set_t old_{};
    bool pinned_ = false;
};

// ---- spans -----------------------------------------------------------

/** One timed call into a layer. Spans of one simulation share @c id;
 * @c parent indexes the enclosing span (-1 = none). */
struct Span
{
    std::string name;
    std::uint64_t id = 0;
    int parent = -1;
    double t0 = 0;
    double t1 = 0;
};

/** In-memory span log, written out once when the benchmark ends. */
class Tracer
{
  public:
    class Scope
    {
      public:
        Scope(Tracer *t, const char *name, std::uint64_t id) : t_(t)
        {
            if (!t_)
                return;
            idx_ = int(t_->spans_.size());
            t_->spans_.push_back({name, id, t_->open_, now(), 0});
            t_->open_ = idx_;
        }
        ~Scope()
        {
            if (!t_)
                return;
            Span &s = t_->spans_[std::size_t(idx_)];
            s.t1 = now();
            t_->open_ = s.parent;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *t_;
        int idx_ = -1;
    };

    std::size_t size() const { return spans_.size(); }

    /** Summed duration of spans called @p name from index @p first on. */
    double
    total(const std::string &name, std::size_t first = 0) const
    {
        double s = 0;
        for (std::size_t i = first; i < spans_.size(); ++i) {
            if (spans_[i].name == name)
                s += spans_[i].t1 - spans_[i].t0;
        }
        return s;
    }

    /** Chrome-trace JSON: one complete event per span, one track per
     * simulation id. */
    void
    write(const fs::path &path) const
    {
        std::ofstream os(path);
        os << "{\"traceEvents\":[\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[96];
            std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"dur\":%.3f",
                          s.t0 * 1e6, (s.t1 - s.t0) * 1e6);
            os << (i ? ",\n" : "") << "{\"name\":\"" << s.name
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.id << ","
               << buf << ",\"args\":{\"id\":" << s.id << ",\"parent\":"
               << (s.parent < 0
                       ? std::string("null")
                       : "\"" + spans_[std::size_t(s.parent)].name + "\"")
               << "}}";
        }
        os << "\n]}\n";
    }

  private:
    std::vector<Span> spans_;
    int open_ = -1;
};

/** Counts every scheduler decision by event class and every tie-break,
 * always answering with the default verdicts (results stay identical). */
class CensusController : public sim::ScheduleController
{
  public:
    static constexpr unsigned numEvents = 7;

    unsigned
    chooseTie(std::uint64_t mask, unsigned rr) override
    {
        ++ties;
        return sim::defaultTieBreak(mask, rr);
    }

    bool
    onDecision(const sim::SchedDecision &d) override
    {
        ++events[unsigned(d.event)];
        return false;
    }

    std::uint64_t events[numEvents] = {};
    std::uint64_t ties = 0;
};

// ---- workloads -------------------------------------------------------

enum class Role : std::uint8_t
{
    Base,
    Full,
    Other,
};

/** One simulation of a workload pass. */
struct Sim
{
    std::size_t kernel = 0;
    core::SystemOptions opts;
    Role role = Role::Other;
    std::string label;
};

struct Workload
{
    std::string name;
    workloads::Scale scale = workloads::Scale::Small;
    std::vector<std::string> kernels;
    /** Run the pass through bench::runMatrix on nproc host threads
     * instead of one sim::SimRun at a time. */
    bool matrix = false;
    /** Journal + metrics on (the only workload the observers run in). */
    bool observed = false;
    /** Commits per runUntilCommits chunk in the traced pass. */
    std::uint64_t chunk = 64;
};

bool
makeWorkload(const std::string &name, bool tiny, Workload &w)
{
    w.name = name;
    if (name == "spin64") {
        w.scale = workloads::Scale::Small;
        w.kernels = {"genome@64"};
        w.chunk = 128;
    } else if (name == "paper8") {
        w.scale = workloads::Scale::Small;
        w.kernels = workloads::allNames();
        w.matrix = true;
    } else if (name == "observe_large") {
        w.scale = workloads::Scale::Large;
        w.kernels = workloads::allNames();
        w.observed = true;
    } else {
        return false;
    }
    if (tiny) {
        w.scale = workloads::Scale::Tiny;
        w.chunk = 8;
    }
    return true;
}

const char *
scaleName(workloads::Scale s)
{
    switch (s) {
    case workloads::Scale::Tiny:
        return "tiny";
    case workloads::Scale::Small:
        return "small";
    case workloads::Scale::Large:
        return "large";
    }
    return "?";
}

std::vector<Sim>
makeSims(const Workload &w,
         const std::vector<bench::PreparedWorkload> &prepared,
         std::uint64_t seed)
{
    using core::Mechanism;
    std::vector<Sim> sims;
    for (std::size_t k = 0; k < prepared.size(); ++k) {
        const unsigned threads = prepared[k].wl.threads;
        auto add = [&](htm::HtmKind kind, Mechanism m, Role role) {
            Sim s;
            s.kernel = k;
            s.role = role;
            s.opts.htmKind = kind;
            s.opts.mechanism = m;
            s.opts.seed = seed;
            if (w.name == "spin64") {
                s.opts.numCores = threads;
            } else if (w.observed) {
                // Fig. 8: the paper thread count on half as many cores.
                s.opts.numCores = (threads + 1) / 2;
                s.opts.smtPerCore = 2;
                s.opts.journal = true;
                s.opts.metrics = true;
            }
            s.label = prepared[k].wl.name + ":" + s.opts.label() + ":" +
                      std::to_string(s.opts.numCores) + "x" +
                      std::to_string(s.opts.smtPerCore);
            sims.push_back(std::move(s));
        };
        if (w.name == "spin64") {
            add(htm::HtmKind::P8, Mechanism::Baseline, Role::Base);
        } else if (w.matrix) {
            add(htm::HtmKind::P8, Mechanism::Baseline, Role::Base);
            add(htm::HtmKind::P8, Mechanism::StaticOnly, Role::Other);
            add(htm::HtmKind::P8, Mechanism::DynamicOnly, Role::Other);
            add(htm::HtmKind::P8, Mechanism::Full, Role::Full);
            add(htm::HtmKind::InfCap, Mechanism::Baseline, Role::Other);
        } else {
            add(htm::HtmKind::L1TM, Mechanism::Baseline, Role::Base);
            add(htm::HtmKind::L1TM, Mechanism::Full, Role::Full);
        }
    }
    return sims;
}

// ---- set-up ----------------------------------------------------------

struct Setup
{
    std::vector<bench::PreparedWorkload> prepared;
    /** Per sample: byName and compileHints. */
    std::vector<double> buildS, hintsS;
    /** Per CPU: the samples of both together. */
    std::map<int, std::vector<double>> totalByCpu;
    std::uint64_t irInstrs = 0;
    double safeStaticFrac = 0;
};

/** byName + compileHints for every kernel; their host seconds are
 * added to @p build and @p hints. */
std::vector<bench::PreparedWorkload>
prepareAll(const Workload &w, Tracer *tr, double &build, double &hints)
{
    std::vector<bench::PreparedWorkload> prepared;
    for (std::size_t k = 0; k < w.kernels.size(); ++k) {
        bench::PreparedWorkload p;
        p.scale = w.scale;
        const double t0 = now();
        {
            Tracer::Scope sp(tr, "workloads::byName", k);
            p.wl = workloads::byName(w.kernels[k], w.scale);
        }
        const double t1 = now();
        {
            Tracer::Scope sp(tr, "core::compileHints", k);
            p.compileReport = core::compileHints(p.wl.module);
        }
        build += t1 - t0;
        hints += now() - t1;
        prepared.push_back(std::move(p));
    }
    return prepared;
}

/** The modules every pass simulates, plus their static counts. */
void
initSetup(const Workload &w, Setup &s, Tracer *tr)
{
    double build = 0, hints = 0;
    s.prepared = prepareAll(w, tr, build, hints);
    std::uint64_t safe = 0, all = 0;
    for (const bench::PreparedWorkload &p : s.prepared) {
        for (const tir::Function &f : p.wl.module.functions) {
            for (const tir::BasicBlock &b : f.blocks)
                s.irInstrs += b.instrs.size();
        }
        const compiler::SafetyReport &r = p.compileReport;
        safe += r.safeLoads + r.safeStores;
        all += r.totalLoads + r.totalStores;
    }
    s.safeStaticFrac = all ? double(safe) / double(all) : 0.0;
}

/** Set-up timings, discarding the modules, on each of @p cpus in turn
 * (see Pin): two warm-up repetitions, then samples for an equal share
 * of @p budget seconds, and at least one. A sample is the mean of
 * back-to-back repetitions lasting at least 2 ms, since set-up takes
 * well under a millisecond on some workloads. This runs after every
 * pass, so that the samples span the host's speed over the whole run,
 * as wall_s does, and never before the first pass, so that every
 * sample starts from the state a pass leaves. */
void
sampleSetup(const Workload &w, Setup &s, const std::vector<int> &cpus,
            double budget)
{
    const std::vector<int> each = cpus.empty() ? std::vector<int>{-1} : cpus;
    for (int cpu : each) {
        const Pin pin(cpu);
        double build = 0, hints = 0;
        for (int i = 0; i < 2; ++i)
            prepareAll(w, nullptr, build, hints);
        std::vector<double> &total = s.totalByCpu[cpu];
        const double t0 = now();
        do {
            build = hints = 0;
            unsigned reps = 0;
            const double b0 = now();
            do {
                prepareAll(w, nullptr, build, hints);
                ++reps;
            } while (now() - b0 < 0.002);
            s.buildS.push_back(build / reps);
            s.hintsS.push_back(hints / reps);
            total.push_back((build + hints) / reps);
        } while (now() - t0 < budget / double(each.size()));
    }
}

/** setup_s: the median over CPUs of each CPU's median sample. */
double
setupSeconds(const Setup &s)
{
    std::vector<double> perCpu;
    for (const auto &[cpu, v] : s.totalByCpu)
        perCpu.push_back(perfbench::median(v));
    return perfbench::median(perCpu);
}

// ---- passes ----------------------------------------------------------

/** Simulated totals over one pass. */
struct Tally
{
    std::uint64_t instructions = 0, cycles = 0, committed = 0,
                  fallback = 0;
    std::uint64_t begins = 0, commits = 0,
                  aborts[htm::numAbortReasons] = {}, cyclesLost = 0,
                  signatureSpills = 0;
    std::uint64_t pageModeCycles = 0, safePages = 0, totalPages = 0;
    std::uint64_t journalRecords = 0, journalDropped = 0;
    stats::Distribution::Image tracked;
    std::map<std::string, std::uint64_t> raw;
    /** Per kernel: Baseline and Full cycles and capacity aborts. */
    std::vector<std::uint64_t> baseCycles, fullCycles, baseCap, fullCap;

    explicit Tally(std::size_t kernels)
        : tracked(stats::Distribution(1, 4096).image()),
          baseCycles(kernels), fullCycles(kernels), baseCap(kernels),
          fullCap(kernels)
    {
    }

    void
    add(const Sim &s, const sim::RunResult &r)
    {
        instructions += r.instructions;
        cycles += r.cycles;
        committed += r.committedTxs;
        fallback += r.fallbackRuns;
        begins += r.htm.begins;
        commits += r.htm.commits;
        for (unsigned a = 0; a < htm::numAbortReasons; ++a) {
            aborts[a] += r.htm.aborts[a];
            cyclesLost += r.htm.cyclesLost[a];
        }
        signatureSpills += r.htm.signatureSpills;
        pageModeCycles += r.pageModeOverheadCycles;
        safePages += r.safePages;
        totalPages += r.totalPages;
        if (r.journal) {
            journalRecords += r.journal->pushed();
            journalDropped += r.journal->dropped();
        }
        const stats::Distribution::Image img =
            r.htm.trackedAtCommit.image();
        if (img.buckets.size() == tracked.buckets.size() &&
            img.bucketWidth == tracked.bucketWidth) {
            for (std::size_t i = 0; i < img.buckets.size(); ++i)
                tracked.buckets[i] += img.buckets[i];
            tracked.overflow += img.overflow;
            tracked.count += img.count;
            tracked.sum += img.sum;
            tracked.minRaw = std::min(tracked.minRaw, img.minRaw);
            tracked.max = std::max(tracked.max, img.max);
        }
        std::istringstream is(r.rawStats);
        std::string key;
        std::uint64_t v = 0;
        while (is >> key >> v)
            raw[key] += v;
        const std::uint64_t cap =
            r.htm.aborts[unsigned(htm::AbortReason::Capacity)];
        if (s.role == Role::Base) {
            baseCycles[s.kernel] = r.cycles;
            baseCap[s.kernel] = cap;
        } else if (s.role == Role::Full) {
            fullCycles[s.kernel] = r.cycles;
            fullCap[s.kernel] = cap;
        }
    }

    std::uint64_t
    trackedP95() const
    {
        stats::Distribution d(1, 4096);
        d.setImage(tracked);
        return d.quantile(0.95);
    }

    /** Geomean Baseline/Full simulated speedup (0 without Full runs). */
    double
    hintmSpeedup() const
    {
        std::vector<double> v;
        for (std::size_t k = 0; k < baseCycles.size(); ++k) {
            if (fullCycles[k])
                v.push_back(double(baseCycles[k]) / double(fullCycles[k]));
        }
        return bench::geomean(v);
    }

    double
    capAbortReduction() const
    {
        double sum = 0;
        unsigned n = 0;
        for (std::size_t k = 0; k < baseCap.size(); ++k) {
            if (fullCycles[k]) {
                sum += bench::reduction(baseCap[k], fullCap[k]);
                ++n;
            }
        }
        return n ? sum / n : 0.0;
    }
};

struct Pass
{
    double wall = 0, cpu = 0;
    /** Host seconds per simulation: measured one by one, or the pass
     * wall x jobs / simulations for runMatrix passes. */
    std::vector<double> simWalls;
    std::vector<std::uint64_t> digests;
    /** Per simulation: checks passed (digest comparison comes later). */
    std::vector<bool> ok;
    Tally tally;
    unsigned jobs = 1;
    bench::MatrixCacheStats cache;
    /** Traced passes: us per commit of each runUntilCommits chunk. */
    std::vector<double> usPerCommit;
    CensusController census;

    explicit Pass(std::size_t kernels) : tally(kernels) {}
};

enum class Mode : std::uint8_t
{
    /** The workload as defined (what the end-to-end metrics time). */
    Plain,
    /** Plain with journal and metrics switched off. */
    ObserversOff,
    /** Census controller, commit chunks, raw stats, spans, exports. */
    Traced,
};

/** Everything a pass needs besides the simulations. */
struct Bench
{
    Workload w;
    std::uint64_t seed = 1;
    Setup setup;
    std::vector<Sim> sims;
    fs::path outDir;
    Tracer tracer;
    /** Record spans around the plain pass's calls too (traced runs). */
    bool tracing = false;
    std::uint64_t nextId = 1000;
    /** The CPUs set-up samples and sequential passes take in turn. */
    std::vector<int> cpus;
};

/** The CPU sequential pass (or iteration) @p i is pinned to; -1 for
 * runMatrix passes, which spread over every CPU themselves. */
int
passCpu(const Bench &b, std::size_t i)
{
    return b.w.matrix || b.cpus.empty() ? -1 : b.cpus[i % b.cpus.size()];
}

/** Invariants and sim::checkTrace for one finished simulation; digest
 * and totals are recorded either way. */
void
checkSim(Bench &b, std::size_t i, const sim::MachineConfig &cfg,
         const sim::RunResult &r, Pass &p, Tracer *tr, std::uint64_t id)
{
    const Sim &s = b.sims[i];
    bool good = true;
    if (r.htm.commits + r.fallbackRuns != r.committedTxs) {
        std::cerr << "perfbench: " << s.label << ": hardware commits "
                  << r.htm.commits << " + fallback runs " << r.fallbackRuns
                  << " != committed TXs " << r.committedTxs << "\n";
        good = false;
    }
    std::vector<sim::TraceViolation> v;
    {
        Tracer::Scope sp(tr, "sim::checkTrace", id);
        v = sim::checkTrace(cfg, r);
    }
    if (sim::anyFatal(v)) {
        for (const sim::TraceViolation &x : v) {
            if (x.fatal)
                std::cerr << "perfbench: " << s.label << ": checkTrace "
                          << x.kind << ": " << x.detail << "\n";
        }
        good = false;
    }
    p.digests.push_back(perfbench::digest(r));
    p.ok.push_back(good);
    p.tally.add(s, r);
}

void
failSim(Bench &b, std::size_t i, const std::exception &e, Pass &p)
{
    std::cerr << "perfbench: " << b.sims[i].label << ": " << e.what()
              << "\n";
    p.digests.push_back(0);
    p.ok.push_back(false);
}

void
exportRun(Bench &b, std::size_t i, const sim::RunResult &r, std::uint64_t id)
{
    const Sim &s = b.sims[i];
    const std::vector<sim::JournalRun> runs = {
        {b.setup.prepared[s.kernel].wl.name, s.opts.label(),
         b.setup.prepared[s.kernel].wl.threads, &r}};
    const std::string stem =
        (b.outDir / (b.w.name + "_sim" + std::to_string(i))).string();
    {
        Tracer::Scope sp(&b.tracer, "sim::writeStatsJson", id);
        sim::writeStatsJson(stem + ".stats.json", runs);
    }
    Tracer::Scope sp(&b.tracer, "sim::writePerfettoTrace", id);
    sim::writePerfettoTrace(stem + ".perfetto.json", runs);
}

Pass
runMatrixPass(Bench &b, Tracer *tr)
{
    Pass p(b.w.kernels.size());
    bench::clearMatrixCache();
    std::vector<bench::MatrixJob> jobs;
    for (const Sim &s : b.sims)
        jobs.push_back({&b.setup.prepared[s.kernel], s.opts});
    p.jobs = bench::effectiveJobs(hostThreads());
    std::vector<sim::RunResult> res;
    const double t0 = now(), c0 = cpuNow();
    try {
        Tracer::Scope sp(tr, "bench::runMatrix", b.nextId++);
        res = bench::runMatrix(jobs, p.jobs);
    } catch (const std::exception &e) {
        for (std::size_t i = 0; i < b.sims.size(); ++i)
            failSim(b, i, e, p);
        return p;
    }
    p.wall = now() - t0;
    p.cpu = cpuNow() - c0;
    p.cache = bench::matrixCacheStats();
    p.simWalls.push_back(p.wall * p.jobs / double(b.sims.size()));
    for (std::size_t i = 0; i < b.sims.size(); ++i) {
        const std::uint64_t id = b.nextId++;
        checkSim(b, i, core::makeMachineConfig(b.sims[i].opts), res[i], p,
                 tr, id);
    }
    return p;
}

Pass
runSequentialPass(Bench &b, Mode mode)
{
    Pass p(b.w.kernels.size());
    Tracer *tr = mode == Mode::Traced ? &b.tracer : nullptr;
    for (std::size_t i = 0; i < b.sims.size(); ++i) {
        const Sim &s = b.sims[i];
        const std::uint64_t id = b.nextId++;
        const tir::Module &mod = b.setup.prepared[s.kernel].wl.module;
        const unsigned threads = b.setup.prepared[s.kernel].wl.threads;
        try {
            const double t0 = now(), c0 = cpuNow();
            sim::MachineConfig cfg;
            {
                Tracer::Scope sp(tr, "core::makeMachineConfig", id);
                cfg = core::makeMachineConfig(s.opts);
            }
            if (mode == Mode::ObserversOff)
                cfg.journal = cfg.metrics = false;
            if (mode == Mode::Traced) {
                cfg.collectRawStats = true;
                cfg.scheduleController = &p.census;
            }
            sim::RunResult r;
            {
                Tracer::Scope whole(tr, "simulation", id);
                std::unique_ptr<sim::SimRun> run;
                {
                    Tracer::Scope sp(tr, "sim::SimRun", id);
                    run = std::make_unique<sim::SimRun>(cfg, mod, threads);
                }
                while (tr && !run->finished()) {
                    const std::uint64_t c = run->committedTxs();
                    const double u0 = now();
                    {
                        Tracer::Scope sp(tr, "sim::SimRun::runUntilCommits",
                                         id);
                        run->runUntilCommits(c + b.w.chunk);
                    }
                    const std::uint64_t done = run->committedTxs() - c;
                    if (done)
                        p.usPerCommit.push_back((now() - u0) * 1e6 /
                                                double(done));
                }
                Tracer::Scope sp(tr, "sim::SimRun::finish", id);
                r = run->finish();
            }
            p.simWalls.push_back(now() - t0);
            p.wall += p.simWalls.back();
            p.cpu += cpuNow() - c0;
            checkSim(b, i, cfg, r, p, tr, id);
            if (mode == Mode::Traced)
                exportRun(b, i, r, id);
        } catch (const std::exception &e) {
            failSim(b, i, e, p);
        }
    }
    return p;
}

Pass
runPass(Bench &b, Mode mode)
{
    if (b.w.matrix && mode == Mode::Plain)
        return runMatrixPass(b, b.tracing ? &b.tracer : nullptr);
    return runSequentialPass(b, mode);
}

// ---- golden digests --------------------------------------------------

/** Golden table lines:
 *    sim  <workload> <scale> <seed> <index> <label> <digest>
 *    pass <workload> <scale> <seed> <digest of the sim digests>     */
struct Golden
{
    std::vector<std::uint64_t> sims;
    std::uint64_t pass = 0;
    bool hasPass = false;
    /** A line names a different simulation than the workload runs:
     * the table no longer matches the workload definition. */
    bool stale = false;
};

std::uint64_t
passDigest(const std::vector<std::uint64_t> &d)
{
    return bench::fnv1a(d.data(), d.size() * sizeof(std::uint64_t));
}

Golden
loadGolden(const std::string &path, const Bench &b)
{
    Golden g;
    std::ifstream is(path);
    std::string line;
    const std::string scale = scaleName(b.w.scale);
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string kind, wl, sc, label, hex;
        std::uint64_t seed = 0, index = 0;
        ls >> kind >> wl >> sc >> seed;
        if (wl != b.w.name || sc != scale || seed != b.seed)
            continue;
        if (kind == "sim" && ls >> index >> label >> hex) {
            if (index >= b.sims.size() || label != b.sims[index].label) {
                g.stale = true;
                continue;
            }
            g.sims.resize(b.sims.size());
            g.sims[index] = std::stoull(hex, nullptr, 16);
        } else if (kind == "pass" && ls >> hex) {
            g.pass = std::stoull(hex, nullptr, 16);
            g.hasPass = true;
        }
    }
    return g;
}

/** Count failed simulations of @p p, comparing digests against the
 * golden table or, lacking one, against @p ref (the first pass). */
unsigned
judge(const Bench &b, const Golden &g, const std::vector<std::uint64_t> &ref,
      const Pass &p, const char *what)
{
    unsigned failed = 0;
    const bool passMismatch =
        g.hasPass && g.sims.empty() && passDigest(p.digests) != g.pass;
    for (std::size_t i = 0; i < p.ok.size(); ++i) {
        std::uint64_t want = 0;
        if (!g.sims.empty())
            want = g.sims[i];
        else if (!g.hasPass && i < ref.size())
            want = ref[i];
        const bool digestBad =
            p.digests[i] == 0 || (want && p.digests[i] != want) ||
            passMismatch;
        if (digestBad && p.digests[i] != 0)
            std::cerr << "perfbench: " << what << " pass: "
                      << b.sims[i].label << ": digest "
                      << perfbench::hex64(p.digests[i]) << " != expected "
                      << (want ? perfbench::hex64(want)
                               : "pass " + perfbench::hex64(g.pass))
                      << "\n";
        if (!p.ok[i] || digestBad || g.stale)
            ++failed;
    }
    return failed;
}

// ---- reporting -------------------------------------------------------

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
printJson(bool correct, unsigned attempted, unsigned failed,
          const std::vector<Metric> &ms)
{
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        std::cout << (i ? ", " : "") << "\"" << ms[i].name
                  << "\": {\"value\": " << num(ms[i].value)
                  << ", \"unit\": \"" << ms[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
}

std::string
hostFingerprint()
{
    std::ostringstream os;
#if defined(__clang__)
    const char *cc = "clang ";
#elif defined(__GNUC__)
    const char *cc = "gcc ";
#else
    const char *cc = "";
#endif
    os << "host: nproc=" << hostThreads() << " compiler=\"" << cc
       << __VERSION__
       << "\" build=" << PERFBENCH_BUILD_TYPE << " binary="
       << perfbench::hex64(bench::ResultStore::selfBinaryHash());
    return os.str();
}

std::vector<double>
pluck(const std::vector<Pass> &ps, double Pass::*field)
{
    std::vector<double> v;
    for (const Pass &p : ps)
        v.push_back(p.*field);
    return v;
}

/** Paper means the model is checked against (EXPERIMENTS.md). */
void
printAccuracy(const Bench &b, double speedup, double reduction)
{
    if (b.w.name == "spin64") {
        std::printf("e2e hintm_speedup = n/a (spin64 simulates Baseline "
                    "only)\ne2e cap_abort_reduction = n/a (spin64 "
                    "simulates Baseline only)\n");
        return;
    }
    const double paperSpeedup = b.w.matrix ? 1.4 : 1.7;
    std::printf("e2e hintm_speedup = %.4f x (simulated; paper %.1fx on "
                "%s, relative error %+.1f%%)\n",
                speedup, paperSpeedup, b.w.matrix ? "P8" : "L1TM+SMT",
                (speedup / paperSpeedup - 1) * 100);
    if (b.w.matrix)
        std::printf("e2e cap_abort_reduction = %.4f ratio (simulated; "
                    "paper 0.62-0.64 on P8, relative error %+.1f%% vs "
                    "0.63)\n",
                    reduction, (reduction / 0.63 - 1) * 100);
    else
        std::printf("e2e cap_abort_reduction = %.4f ratio (simulated; "
                    "paper gives no mean for L1TM+SMT)\n",
                    reduction);
    std::printf("note: the model is checked only against these published "
                "means, not per kernel\n");
}

int
usage(const char *msg)
{
    std::cerr << "perfbench: " << msg
              << "\nusage: perfbench --workload spin64|paper8|observe_large"
                 " --seed N --seconds S --trace 0|1 [--tiny]"
                 " [--golden FILE] [--out DIR] [--record]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, golden, out = ".";
    std::uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    bool tiny = false, record = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool more = i + 1 < argc;
        if (a == "--workload" && more)
            workload = argv[++i];
        else if (a == "--seed" && more)
            seed = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--seconds" && more)
            seconds = std::strtod(argv[++i], nullptr);
        else if (a == "--trace" && more)
            trace = std::atoi(argv[++i]);
        else if (a == "--golden" && more)
            golden = argv[++i];
        else if (a == "--out" && more)
            out = argv[++i];
        else if (a == "--tiny")
            tiny = true;
        else if (a == "--record")
            record = true;
        else
            return usage(("unknown argument " + a).c_str());
    }

    Bench b;
    b.seed = seed;
    if (!makeWorkload(workload, tiny, b.w))
        return usage("unknown workload");
    if (trace != 0 && trace != 1)
        return usage("--trace takes 0 or 1");

    const std::string buildType = PERFBENCH_BUILD_TYPE;
#ifndef __OPTIMIZE__
    const bool optimized = false;
#else
    const bool optimized =
        buildType == "Release" || buildType == "RelWithDebInfo";
#endif
    if (!optimized && !record) {
        std::cerr << "perfbench: refusing to report numbers from an "
                     "unoptimised build (CMAKE_BUILD_TYPE=\""
                  << buildType << "\")\n";
        return 3;
    }
    b.outDir = out;
    fs::create_directories(b.outDir);

    const double tEnd = now() + seconds;
    b.tracing = trace == 1;
    Tracer *tr = trace ? &b.tracer : nullptr;
    b.cpus = allowedCpus();
    initSetup(b.w, b.setup, record ? nullptr : tr);
    b.sims = makeSims(b.w, b.setup.prepared, seed);

    if (record) {
        const Pass p = runPass(b, Mode::Plain);
        for (std::size_t i = 0; i < p.ok.size(); ++i) {
            if (!p.ok[i])
                return 1;
        }
        const char *sc = scaleName(b.w.scale);
        if (seed == 1) {
            for (std::size_t i = 0; i < b.sims.size(); ++i)
                std::printf("sim %s %s %llu %zu %s %s\n", b.w.name.c_str(),
                            sc, static_cast<unsigned long long>(seed), i,
                            b.sims[i].label.c_str(),
                            perfbench::hex64(p.digests[i]).c_str());
        }
        std::printf("pass %s %s %llu %s\n", b.w.name.c_str(), sc,
                    static_cast<unsigned long long>(seed),
                    perfbench::hex64(passDigest(p.digests)).c_str());
        return 0;
    }

    const Golden g = golden.empty() ? Golden{} : loadGolden(golden, b);
    if (g.stale)
        std::cerr << "perfbench: " << golden << " names simulations this "
                  << "workload does not run; every simulation fails\n";
    std::vector<std::uint64_t> ref;
    unsigned attempted = 0, failed = 0;
    auto account = [&](const Pass &p, const char *what) {
        attempted += unsigned(p.ok.size());
        failed += judge(b, g, ref, p, what);
        if (ref.empty())
            ref = p.digests;
    };

    std::printf("%s\n", hostFingerprint().c_str());
    std::printf("workload: %s seed=%llu scale=%s simulations/pass=%zu "
                "golden=%s\n",
                b.w.name.c_str(), static_cast<unsigned long long>(seed),
                scaleName(b.w.scale), b.sims.size(),
                !g.sims.empty() ? "per-simulation"
                : g.hasPass     ? "per-pass"
                                : "none (passes checked against the first)");

    std::vector<Metric> ms;
    std::vector<Pass> plain;
    // Start another pass (or iteration) only while it is expected to end
    // no more than half its length past the deadline.
    double iterStart = now();
    const auto moreTime = [&] {
        const double t = now(), len = t - iterStart;
        iterStart = t;
        return t + 0.5 * len < tEnd;
    };

    if (!trace) {
        do {
            {
                const Pin pin(passCpu(b, plain.size()));
                plain.push_back(runPass(b, Mode::Plain));
            }
            account(plain.back(), "plain");
            sampleSetup(b.w, b.setup, b.cpus, 0.1);
        } while (moreTime());
        const double setupS = setupSeconds(b.setup);

        std::vector<double> runS, minstr;
        for (const Pass &p : plain) {
            runS.insert(runS.end(), p.simWalls.begin(), p.simWalls.end());
            minstr.push_back(p.wall > 0 ? double(p.tally.instructions) /
                                              p.wall / 1e6
                                        : 0.0);
        }
        const std::vector<double> walls = pluck(plain, &Pass::wall);
        ms = {{"wall_s", "s", perfbench::median(walls)},
              {"cpu_s", "s", perfbench::median(pluck(plain, &Pass::cpu))},
              {"run_s", "s",
               runS.empty() ? 0.0 : perfbench::interquartileMean(runS)},
              {"minstr_per_s", "Minstr/s", perfbench::median(minstr)},
              {"setup_s", "s", setupS},
              {"peak_rss_mb", "MB", peakRssMb()}};
        std::printf("passes: %zu, wall s:", plain.size());
        for (double x : walls)
            std::printf(" %.4f", x);
        std::printf("\nsetup s, median per CPU (samples):");
        for (const auto &[cpu, v] : b.setup.totalByCpu)
            std::printf(" cpu%d %.6g (%zu)", cpu, perfbench::median(v),
                        v.size());
        std::printf("\n");
        for (const Metric &m : ms)
            std::printf("e2e %s = %.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        const auto tail = perfbench::tailPercentile(runS);
        if (!runS.empty())
            std::printf("e2e run_s median = %.6g s (run_s above is the "
                        "interquartile mean)\n",
                        perfbench::median(runS));
        if (tail)
            std::printf("e2e run_s p%g = %.6g s (%zu samples)\n", tail->pct,
                        tail->value, runS.size());
        else
            std::printf("e2e run_s tail = n/a (%zu samples; a percentile "
                        "needs >= 10 beyond it)%s\n",
                        runS.size(),
                        b.w.matrix ? "; runMatrix samples are pass wall x "
                                     "jobs / simulations"
                                   : "");
        std::printf("e2e failed_frac = %.6g ratio (%u of %u simulations)\n",
                    attempted ? double(failed) / attempted : 0.0, failed,
                    attempted);
        printAccuracy(b, plain.front().tally.hintmSpeedup(),
                      plain.front().tally.capAbortReduction());
        printJson(failed == 0, attempted, failed, ms);
        return 0;
    }

    // Traced run: each iteration is one plain pass (the reference the
    // tracing overhead is measured against), for observe_large one pass
    // with the observers off, and one traced pass.
    std::vector<Pass> off, traced;
    std::vector<double> initS, runS, finishS, checkS, exportS;
    do {
        std::size_t first = 0;
        {
            // One CPU for the whole iteration keeps its passes comparable.
            const Pin pin(passCpu(b, traced.size()));
            plain.push_back(runPass(b, Mode::Plain));
            if (b.w.observed)
                off.push_back(runPass(b, Mode::ObserversOff));
            first = b.tracer.size();
            traced.push_back(runPass(b, Mode::Traced));
        }
        account(plain.back(), "plain");
        if (b.w.observed)
            account(off.back(), "observers-off");
        account(traced.back(), "traced");
        initS.push_back(b.tracer.total("sim::SimRun", first));
        runS.push_back(b.tracer.total("sim::SimRun::runUntilCommits", first));
        finishS.push_back(b.tracer.total("sim::SimRun::finish", first));
        checkS.push_back(b.tracer.total("sim::checkTrace", first));
        exportS.push_back(b.tracer.total("sim::writeStatsJson", first) +
                          b.tracer.total("sim::writePerfettoTrace", first));
        sampleSetup(b.w, b.setup, b.cpus, 0.1);
    } while (moreTime());

    const Pass &t = traced.back();
    const Tally &y = t.tally;
    const Pass &m0 = plain.back();
    const auto frac = [](double a, double bb) { return bb ? a / bb : 0.0; };
    const auto raw = [&](const char *k) {
        const auto it = y.raw.find(k);
        return it == y.raw.end() ? 0.0 : double(it->second);
    };
    const double plainCpu = perfbench::median(pluck(plain, &Pass::cpu));
    const double plainWall = perfbench::median(pluck(plain, &Pass::wall));
    // Overheads pair the passes of one iteration, which run back to back,
    // so host speed drifting between iterations cancels out.
    const auto pairedOverhead = [](const std::vector<Pass> &with,
                                   const std::vector<Pass> &without,
                                   double Pass::*field) {
        std::vector<double> r;
        for (std::size_t i = 0; i < with.size() && i < without.size(); ++i)
            r.push_back(with[i].*field / without[i].*field - 1);
        return r.empty() ? 0.0 : perfbench::median(r);
    };
    const std::vector<double> upc =
        t.usPerCommit.empty() ? std::vector<double>{0} : t.usPerCommit;
    const auto upcTail = perfbench::tailPercentile(upc);
    std::uint64_t decisions = 0;
    for (std::uint64_t e : t.census.events)
        decisions += e;
    const auto ev = [&](sim::SchedEvent e) {
        return double(t.census.events[unsigned(e)]);
    };
    const auto abortsOf = [&](htm::AbortReason r) {
        return double(y.aborts[unsigned(r)]);
    };

    ms = {
        {"workloads.build_s", "s", perfbench::median(b.setup.buildS)},
        {"workloads.ir_instrs", "count", double(b.setup.irInstrs)},
        {"compiler.hints_s", "s", perfbench::median(b.setup.hintsS)},
        {"compiler.safe_static_frac", "ratio", b.setup.safeStaticFrac},
        {"bench.jobs", "count", double(m0.jobs)},
        {"bench.parallel_eff", "ratio",
         frac(plainCpu, plainWall * m0.jobs)},
        {"bench.prefix_forks", "count", double(m0.cache.prefixForks)},
        {"bench.deduped", "count", double(m0.cache.deduped)},
        {"sim.init_s", "s", perfbench::median(initS)},
        {"sim.run_s", "s", perfbench::median(runS)},
        {"sim.finish_s", "s", perfbench::median(finishS)},
        {"sim.host_us_per_commit", "us", perfbench::median(upc)},
        {"sim.host_us_per_commit_tail", "us",
         upcTail ? upcTail->value : perfbench::quantile(upc, 1.0)},
        {"sim.cycles", "cycles", double(y.cycles)},
        {"sim.committed_txs", "count", double(y.committed)},
        {"sim.fallback_share", "ratio",
         frac(double(y.fallback), double(y.committed))},
        {"sim.events.tx_begin", "count", ev(sim::SchedEvent::TxBegin)},
        {"sim.events.tx_commit", "count", ev(sim::SchedEvent::TxCommit)},
        {"sim.events.tx_abort", "count", ev(sim::SchedEvent::TxAbort)},
        {"sim.events.lock_acquire", "count",
         ev(sim::SchedEvent::LockAcquire)},
        {"sim.events.lock_release", "count",
         ev(sim::SchedEvent::LockRelease)},
        {"sim.events.lock_spin", "count", ev(sim::SchedEvent::LockSpin)},
        {"sim.events.barrier", "count", ev(sim::SchedEvent::Barrier)},
        {"sim.tie_picks", "count", double(t.census.ties)},
        {"sim.lock_spin_share", "ratio",
         frac(ev(sim::SchedEvent::LockSpin), double(decisions))},
        {"sim.check_s", "s", perfbench::median(checkS)},
        {"tir.instructions", "count", double(y.instructions)},
        {"tir.sim_ipc", "ratio",
         frac(double(y.instructions), double(y.cycles))},
        {"htm.begins", "count", double(y.begins)},
        {"htm.commits", "count", double(y.commits)},
        {"htm.commit_ratio", "ratio",
         frac(double(y.commits), double(y.begins))},
        {"htm.aborts.capacity", "count",
         abortsOf(htm::AbortReason::Capacity)},
        {"htm.aborts.conflict", "count",
         abortsOf(htm::AbortReason::Conflict)},
        {"htm.aborts.false_conflict", "count",
         abortsOf(htm::AbortReason::FalseConflict)},
        {"htm.aborts.page_mode", "count",
         abortsOf(htm::AbortReason::PageMode)},
        {"htm.aborts.fallback_lock", "count",
         abortsOf(htm::AbortReason::FallbackLock)},
        {"htm.cycles_lost", "cycles", double(y.cyclesLost)},
        {"htm.tracked_p95", "blocks", double(y.trackedP95())},
        {"htm.signature_spills", "count", double(y.signatureSpills)},
        {"mem.reads", "count", raw("mem.reads")},
        {"mem.writes", "count", raw("mem.writes")},
        {"mem.l1_miss_ratio", "ratio",
         frac(raw("mem.l1_misses"),
              raw("mem.l1_hits") + raw("mem.l1_misses"))},
        {"mem.l2_misses", "count", raw("mem.l2_misses")},
        {"mem.invalidations", "count", raw("mem.invalidations")},
        {"mem.upgrades", "count", raw("mem.upgrades")},
        {"mem.writebacks", "count", raw("mem.writebacks")},
        {"vm.tlb_misses", "count", raw("vm.tlb_misses")},
        {"vm.minor_faults", "count", raw("vm.minor_faults")},
        {"vm.unsafe_transitions", "count", raw("vm.unsafe_transitions")},
        {"vm.shootdown_slaves", "count", raw("vm.shootdown_slaves")},
        {"vm.page_mode_cycles", "cycles", double(y.pageModeCycles)},
        {"vm.safe_page_frac", "ratio",
         frac(double(y.safePages), double(y.totalPages))},
        {"observers.journal_records", "count", double(y.journalRecords)},
        {"observers.journal_dropped", "count", double(y.journalDropped)},
        {"observers.export_s", "s", perfbench::median(exportS)},
        {"observers.overhead_frac", "ratio",
         pairedOverhead(plain, off, &Pass::wall)},
        {"trace.overhead_frac", "ratio",
         pairedOverhead(traced, plain, &Pass::cpu)},
    };

    std::printf("iterations: %zu (plain + %straced pass each)\n",
                traced.size(), b.w.observed ? "observers-off + " : "");
    for (const Metric &m : ms)
        std::printf("layer %s = %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("layer sim.host_us_per_commit tail = %s (%zu chunks of %llu "
                "commits)\n",
                upcTail ? ("p" + num(upcTail->pct)).c_str()
                        : "max (too few chunks for a percentile)",
                t.usPerCommit.size(),
                static_cast<unsigned long long>(b.w.chunk));
    std::printf("census: %llu decisions, %llu tie picks;",
                static_cast<unsigned long long>(decisions),
                static_cast<unsigned long long>(t.census.ties));
    for (unsigned e = 0; e < CensusController::numEvents; ++e)
        std::printf(" %s %.1f%%", sim::schedEventName(sim::SchedEvent(e)),
                    100.0 * frac(double(t.census.events[e]),
                                 double(decisions)));
    std::printf("\n");

    // Metrics that are structurally zero here, and why.
    std::vector<std::string> why;
    if (!b.w.matrix)
        why.push_back("bench.prefix_forks, bench.deduped: simulations run "
                      "one at a time through sim::SimRun, not runMatrix");
    if (!b.w.observed)
        why.push_back("observers.journal_records, .journal_dropped, "
                      ".overhead_frac: journal and metrics are off");
    why.push_back("htm.signature_spills, htm.aborts.false_conflict: no "
                  "P8S simulation in this workload");
    if (b.w.name == "spin64")
        why.push_back("vm.unsafe_transitions, vm.shootdown_slaves, "
                      "vm.page_mode_cycles: Baseline only, no dynamic "
                      "page classification");
    for (const std::string &s : why)
        std::printf("undefined here: %s\n", s.c_str());

    const fs::path tracePath =
        b.outDir / ("trace_" + b.w.name + "_seed" + std::to_string(seed) +
                    ".json");
    b.tracer.write(tracePath);
    std::printf("spans: %zu written to %s\n", b.tracer.size(),
                tracePath.string().c_str());
    printJson(failed == 0, attempted, failed, ms);
    return 0;
}

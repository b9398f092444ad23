/**
 * @file
 * hintm_explore: bounded schedule-space explorer driver. Runs one of
 * the adversarial micro-workloads (convoy, hintrace) across scheduler
 * interleavings up to a preemption bound, checks every trace against
 * the invariant oracle, and reports violations with a replayable
 * schedule file.
 *
 * Examples:
 *   hintm_explore --workload convoy --preemption-bound 2
 *   hintm_explore --workload hintrace --bug --preemption-bound 2 \
 *       --schedule-out fail.sched
 *   hintm_explore --replay fail.sched
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
#include "core/hintm.hh"
#include "sim/explorer.hh"
#include "sim/journal_io.hh"
#include "sim/schedule.hh"
#include "sim/trace_check.hh"
#include "workloads/workloads.hh"

using namespace hintm;

namespace
{

constexpr const char *ownHelp =
    "  --bug               seeded-bug variant: a wrong safe hint\n"
    "                      (hintrace) or lazy lock subscription "
    "(convoy)\n"
    "  --preemption-bound N  max preemptions per schedule (default 1)\n"
    "  --max-schedules N   hard cap on schedules run (default 4096)\n"
    "  --livelock-threshold N  consecutive aborted attempts that\n"
    "                      count as a convoy warning (default 8)\n"
    "  --no-dpor           disable the independence filter (naive\n"
    "                      enumeration; for pruning comparisons)\n"
    "  --no-final-state    skip the final-memory determinism check\n"
    "                      (forced off for hintrace: its final state\n"
    "                      is legitimately schedule-dependent)\n"
    "  --schedule-out FILE write the first fatal violation's "
    "schedule\n"
    "  --replay FILE       run one recorded schedule and re-check it\n"
    "  --json [FILE]       machine-readable report (default stdout)\n"
    "\n"
    "workloads: convoy | hintrace. The retries default is low so the\n"
    "fallback lock sees traffic.\n"
    "exit status: 0 = no fatal violation, 1 = fatal violation found,\n"
    "2 = bad flag, bad input or I/O error\n";

/** Everything needed to rebuild a run from a schedule file. */
struct Setup
{
    std::string workload = "convoy";
    workloads::Scale scale = workloads::Scale::Tiny;
    unsigned threads = 0; // 0 = the workload's default
    std::uint64_t seed = 1;
    unsigned retries = 2;
    bool bug = false;
};

std::string
encodeConfig(const Setup &s)
{
    std::ostringstream os;
    os << "scale=" << workloads::scaleLabel(s.scale)
       << " threads=" << s.threads << " retries=" << s.retries
       << " bug=" << (s.bug ? 1 : 0);
    return os.str();
}

bool
decodeConfig(const std::string &str, Setup &s)
{
    std::istringstream is(str);
    std::string kv;
    while (is >> kv) {
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos)
            return false;
        const std::string k = kv.substr(0, eq);
        const std::string v = kv.substr(eq + 1);
        if (k == "scale") {
            if (!workloads::scaleByName(v, s.scale))
                return false;
        } else if (k == "threads" || k == "retries") {
            std::uint64_t n = 0;
            if (!parseUnsigned(v.c_str(), n,
                               std::numeric_limits<unsigned>::max()))
                return false;
            if (k == "threads")
                s.threads = unsigned(n);
            else
                s.retries = unsigned(n);
        } else if (k == "bug") {
            s.bug = v != "0";
        } else {
            return false;
        }
    }
    return true;
}

workloads::Workload
buildWorkload(const Setup &s)
{
    if (s.workload == "convoy")
        return workloads::buildConvoy(s.scale, s.threads);
    if (s.workload == "hintrace")
        return workloads::buildHintRace(s.scale, s.threads, s.bug);
    HINTM_FATAL("unknown workload '", s.workload,
                "' (want convoy or hintrace)");
}

sim::MachineConfig
makeConfig(const Setup &s)
{
    core::SystemOptions so;
    so.mechanism = s.workload == "hintrace"
                       ? core::Mechanism::StaticOnly
                       : core::Mechanism::Baseline;
    so.hintOracle = s.workload == "hintrace";
    so.journal = true;
    so.seed = s.seed;
    so.maxRetries = s.retries;
    sim::MachineConfig cfg = core::makeMachineConfig(so);
    if (s.workload == "convoy" && s.bug)
        cfg.unsafeLazySubscription = true;
    return cfg;
}

void
writeJson(std::ostream &os, const Setup &s,
          const sim::ExploreOptions &opt, const sim::ExploreReport &rep)
{
    os << "{\n"
       << "  \"workload\": \"" << s.workload << "\",\n"
       << "  \"config\": \"" << encodeConfig(s) << "\",\n"
       << "  \"seed\": " << s.seed << ",\n"
       << "  \"preemption_bound\": " << opt.preemptionBound << ",\n"
       << "  \"dpor\": " << (opt.dpor ? "true" : "false") << ",\n"
       << "  \"schedules_run\": " << rep.schedulesRun << ",\n"
       << "  \"branch_points\": " << rep.branchPoints << ",\n"
       << "  \"branches_pruned\": " << rep.branchesPruned << ",\n"
       << "  \"branches_capped\": " << rep.branchesCapped << ",\n"
       << "  \"issues\": [";
    for (std::size_t i = 0; i < rep.issues.size(); ++i) {
        const sim::ExploreIssue &is = rep.issues[i];
        os << (i ? "," : "") << "\n    {\"kind\": \""
           << is.violation.kind << "\", \"fatal\": "
           << (is.violation.fatal ? "true" : "false") << ", \"plan\": [";
        for (std::size_t p = 0; p < is.plan.size(); ++p)
            os << (p ? "," : "") << is.plan[p];
        os << "], \"detail\": \"" << sim::jsonEscape(is.violation.detail)
           << "\"}";
    }
    os << (rep.issues.empty() ? "" : "\n  ") << "]\n}\n";
}

int
replay(const std::string &path)
{
    sim::ScheduleFile sf;
    if (!sim::readScheduleFile(path, sf))
        HINTM_FATAL("cannot read schedule file ", path);
    Setup s;
    s.workload = sf.workload;
    s.seed = sf.seed;
    if (sf.workload == "hintrace-bug") {
        s.workload = "hintrace";
        s.bug = true;
    }
    if (!decodeConfig(sf.config, s))
        HINTM_FATAL("bad config line in ", path, ": '", sf.config, "'");
    const workloads::Workload wl = buildWorkload(s);
    sim::MachineConfig cfg = makeConfig(s);
    sim::PlanScheduleController ctrl;
    ctrl.reset(sf.preemptAt);
    cfg.scheduleController = &ctrl;

    std::printf("replaying %s: %s, %s, %zu preemption(s)\n",
                path.c_str(), wl.name.c_str(), sf.config.c_str(),
                sf.preemptAt.size());
    const sim::RunResult r =
        sim::runMachine(cfg, wl.module, s.threads ? s.threads : wl.threads);
    std::printf("cycles %llu, TXs %llu (%llu fallback), decisions %u\n",
                (unsigned long long)r.cycles,
                (unsigned long long)r.committedTxs,
                (unsigned long long)r.fallbackRuns, ctrl.nextIndex());

    sim::TraceCheckOptions chk;
    const std::vector<sim::TraceViolation> v =
        sim::checkTrace(cfg, r, chk);
    for (const sim::TraceViolation &tv : v)
        std::printf("%s: [%s] %s\n", tv.fatal ? "VIOLATION" : "warning",
                    tv.kind.c_str(), tv.detail.c_str());
    if (v.empty())
        std::printf("all invariants hold\n");
    return sim::anyFatal(v) ? 1 : 0;
}

} // namespace

static int
run(int argc, char **argv)
{
    Setup s;
    sim::ExploreOptions opt;
    opt.livelockThreshold = 8;
    std::string scheduleOut, replayPath, jsonPath;
    bool json = false;

    // Setup's defaults, which --replay also starts from, are the presets.
    bench::BenchArgs args;
    args.only = {s.workload};
    args.scale = s.scale;
    args.seed = s.seed;
    args.retries = s.retries;
    using namespace bench::flags;
    const auto own = [&](const std::string &a, bench::FlagValues &v) {
        if (a == "--bug") {
            s.bug = true;
        } else if (a == "--preemption-bound") {
            opt.preemptionBound = parseFlag<unsigned>(a, v.next());
        } else if (a == "--max-schedules") {
            opt.maxSchedules = parseFlag(a, v.next());
        } else if (a == "--livelock-threshold") {
            opt.livelockThreshold = parseFlag<unsigned>(a, v.next());
        } else if (a == "--no-dpor") {
            opt.dpor = false;
        } else if (a == "--no-final-state") {
            opt.compareFinalState = false;
        } else if (a == "--schedule-out") {
            scheduleOut = v.next();
        } else if (a == "--replay") {
            replayPath = v.next();
        } else if (a == "--json") {
            json = true;
            jsonPath = v.next("");
        } else {
            return false;
        }
        return true;
    };
    args.parse(argc, argv, Workload | Scale | Threads | Seed | Retries | List,
               {ownHelp, own});
    if (args.list) {
        std::printf("convoy\nhintrace\n");
        return 0;
    }
    s.workload = args.only.front();
    s.scale = args.scale;
    s.threads = args.threads;
    s.seed = args.seed;
    s.retries = args.retries;

    if (!replayPath.empty())
        return replay(replayPath);

    // A guarded-read scaffold's final state legitimately depends on the
    // schedule; comparing it would drown real violations in noise.
    if (s.workload == "hintrace")
        opt.compareFinalState = false;

    const workloads::Workload wl = buildWorkload(s);
    const sim::MachineConfig cfg = makeConfig(s);
    const unsigned threads = s.threads ? s.threads : wl.threads;

    std::printf("exploring %s (%u threads, %s): bound %u, %s\n",
                wl.name.c_str(), threads, encodeConfig(s).c_str(),
                opt.preemptionBound,
                opt.dpor ? "DPOR pruning on" : "naive enumeration");
    const sim::ExploreReport rep =
        sim::exploreSchedules(cfg, wl.module, threads, opt);

    std::printf("schedules run     : %llu\n",
                (unsigned long long)rep.schedulesRun);
    std::printf("branch points     : %llu (%llu pruned as independent, "
                "%llu capped)\n",
                (unsigned long long)rep.branchPoints,
                (unsigned long long)rep.branchesPruned,
                (unsigned long long)rep.branchesCapped);
    for (const sim::ExploreIssue &is : rep.issues) {
        std::ostringstream plan;
        for (std::size_t p = 0; p < is.plan.size(); ++p)
            plan << (p ? " " : "") << is.plan[p];
        std::printf("%s: [%s] plan [%s] (%u decisions): %s\n",
                    is.violation.fatal ? "VIOLATION" : "warning",
                    is.violation.kind.c_str(), plan.str().c_str(),
                    is.decisions, is.violation.detail.c_str());
    }
    if (rep.issues.empty())
        std::printf("all invariants hold on every explored schedule\n");

    if (!scheduleOut.empty()) {
        const sim::ExploreIssue *first = nullptr;
        for (const sim::ExploreIssue &is : rep.issues) {
            if (is.violation.fatal) {
                first = &is;
                break;
            }
        }
        if (first) {
            sim::ScheduleFile sf;
            sf.workload = wl.name;
            sf.config = encodeConfig(s);
            sf.seed = s.seed;
            sf.decisions = first->decisions;
            sf.preemptAt = first->plan;
            if (!sim::writeScheduleFile(scheduleOut, sf))
                HINTM_FATAL("cannot write ", scheduleOut);
            std::printf("failing schedule  : %s\n", scheduleOut.c_str());
        }
    }

    if (json) {
        if (jsonPath.empty()) {
            writeJson(std::cout, s, opt, rep);
        } else {
            std::ofstream os = openOutput(jsonPath);
            writeJson(os, s, opt, rep);
            std::printf("json report       : %s\n", jsonPath.c_str());
        }
    }
    return rep.anyFatal() ? 1 : 0;
}

int
main(int argc, char **argv)
{
    return hintm::runMain(argc, argv, run);
}

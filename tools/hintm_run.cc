/**
 * @file
 * hintm_run: general-purpose command-line driver. Runs any workload of
 * the suite under any system configuration and prints a full report —
 * timing, abort breakdown, classification mix, footprint percentiles,
 * page statistics — plus optional gem5-style raw stat dumps.
 *
 * Examples:
 *   hintm_run --workload labyrinth --mech full
 *   hintm_run --workload vacation --htm p8s --scale large --preserve
 *   hintm_run --workload genome --mech dyn --cores 4 --smt 2 --htm l1tm
 *   hintm_run --list
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/trace.hh"
#include "common/types.hh"
#include "core/hintm.hh"
#include "sim/journal_io.hh"
#include "workloads/workloads.hh"

using namespace hintm;

namespace
{

constexpr const char *ownHelp =
    "  --mech M            baseline | static | dyn | full "
    "(default full)\n"
    "  --cores N           physical cores (default 8)\n"
    "  --smt N             hardware contexts per core (default 1)\n"
    "  --signature N       signature bits for p8s (default 1024)\n"
    "  --notary            honor programmer page annotations\n"
    "  --policy P          conflict loser: attacker | requester\n"
    "  --validate          check safe-store initializing property\n"
    "  --profile           collect Fig.1-style sharing metrics\n"
    "  --cdf               collect TX footprint CDFs\n"
    "  --stats             dump raw memory/VM statistics\n"
    "  --oracle            shadow-track safe accesses and report\n"
    "                      conflicting remote writes (observation "
    "only)\n"
    "  --journal-capacity N  journal ring size in records "
    "(default 65536; implies --journal)\n"
    "  --numa-nodes N      two-tier NUMA latency model with N home "
    "nodes (default 1 = flat)\n"
    "  --numa-latency N    extra cycles for a remote-home bus "
    "transaction (default 24)\n"
    "  --trace CATS        trace categories (tx,vm,sched,journal|all)\n";

} // namespace

static int
run(int argc, char **argv)
{
    bench::BenchArgs args;
    args.only = {"kmeans"};
    core::SystemOptions opts;
    opts.mechanism = core::Mechanism::Full;

    using namespace bench::flags;
    const auto own = [&](const std::string &a, bench::FlagValues &v) {
        if (a == "--mech") {
            const std::string s = v.next();
            if (s == "baseline")
                opts.mechanism = core::Mechanism::Baseline;
            else if (s == "static")
                opts.mechanism = core::Mechanism::StaticOnly;
            else if (s == "dyn")
                opts.mechanism = core::Mechanism::DynamicOnly;
            else if (s == "full")
                opts.mechanism = core::Mechanism::Full;
            else
                HINTM_FATAL("--mech expects baseline, static, dyn or full, "
                            "got '", s, "'");
        } else if (a == "--cores") {
            opts.numCores = parseFlag<unsigned>(a, v.next());
            if (opts.numCores == 0)
                HINTM_FATAL("--cores expects at least 1 core, got 0");
        } else if (a == "--smt") {
            opts.smtPerCore = parseFlag<unsigned>(a, v.next());
        } else if (a == "--signature") {
            opts.signatureBits = parseFlag<unsigned>(a, v.next());
            if (!isPowerOfTwo(opts.signatureBits))
                HINTM_FATAL("--signature expects a power of two, got ",
                            opts.signatureBits);
        } else if (a == "--notary") {
            opts.notaryAnnotations = true;
        } else if (a == "--policy") {
            const std::string s = v.next();
            if (s == "attacker")
                opts.conflictPolicy = htm::ConflictPolicy::AttackerWins;
            else if (s == "requester")
                opts.conflictPolicy = htm::ConflictPolicy::RequesterLoses;
            else
                HINTM_FATAL("--policy expects attacker or requester, got '",
                            s, "'");
        } else if (a == "--validate") {
            opts.validateSafeStores = true;
        } else if (a == "--profile") {
            opts.profileSharing = true;
        } else if (a == "--cdf") {
            opts.collectTxSizes = true;
        } else if (a == "--stats") {
            opts.collectRawStats = true;
        } else if (a == "--oracle") {
            opts.hintOracle = true;
        } else if (a == "--journal-capacity") {
            opts.journalCapacity = parseFlag<std::size_t>(a, v.next());
            args.journal = true;
        } else if (a == "--numa-nodes") {
            opts.numaNodes = parseFlag<unsigned>(a, v.next());
        } else if (a == "--numa-latency") {
            opts.numaRemoteLatency = parseFlag<Cycle>(a, v.next());
        } else if (a == "--trace") {
            trace::enableFromSpec(v.next());
        } else {
            return false;
        }
        return true;
    };
    args.parse(argc, argv,
               Workload | Scale | Htm | Threads | Seed | Retries | Buffer |
                   Preserve | Preabort | Lint | Journal | Metrics |
                   Perfetto | StatsJson | List,
               {ownHelp, own});
    if (args.list) {
        for (const auto &n : workloads::allNames())
            std::printf("%s\n", n.c_str());
        return 0;
    }

    opts = args.options(opts);

    const bench::PreparedWorkload p = bench::prepare(
        args.only.front(), args.scale, args.threads, args.lint);
    const workloads::Workload &wl = p.wl;

    std::printf("workload   : %s (%u threads)\n", wl.name.c_str(),
                wl.threads);
    std::printf("config     : %s, %u cores x %u SMT, buffer %u\n",
                opts.label().c_str(), opts.numCores, opts.smtPerCore,
                opts.bufferEntries);
    std::printf("compiler   : %s\n\n", p.compileReport.summary().c_str());

    const sim::RunResult r = core::simulate(opts, wl.module, wl.threads);

    std::printf("cycles            : %llu\n",
                (unsigned long long)r.cycles);
    std::printf("instructions      : %llu (%.2f IPC aggregate)\n",
                (unsigned long long)r.instructions,
                r.cycles ? double(r.instructions) / double(r.cycles) : 0);
    std::printf("TXs committed     : %llu (%llu hardware, %llu "
                "fallback)\n",
                (unsigned long long)r.committedTxs,
                (unsigned long long)r.htm.commits,
                (unsigned long long)r.fallbackRuns);
    std::printf("aborts            :");
    for (unsigned a = 1; a < htm::numAbortReasons; ++a) {
        std::printf(" %s=%llu",
                    htm::abortReasonName(htm::AbortReason(a)),
                    (unsigned long long)r.htm.aborts[a]);
    }
    std::printf("\n");
    std::printf("tracked at commit : p50=%llu p95=%llu max=%llu "
                "blocks\n",
                (unsigned long long)r.htm.trackedAtCommit.quantile(0.5),
                (unsigned long long)r.htm.trackedAtCommit.quantile(0.95),
                (unsigned long long)r.htm.trackedAtCommit.max());

    const double total = double(r.txAccessesTotal());
    if (total > 0) {
        std::printf(
            "TX access mix     : %.1f%% static-safe, %.1f%% dyn-safe, "
            "%.1f%% annotated, %.1f%% unsafe\n",
            100 * (r.txReadsStaticSafe + r.txWritesStaticSafe) / total,
            100 * r.txReadsDynSafe / total,
            100 * r.txReadsAnnotated / total,
            100 * (r.txReadsUnsafe + r.txWritesUnsafe) / total);
    }
    std::printf("pages             : %llu touched, %llu safe at end\n",
                (unsigned long long)r.totalPages,
                (unsigned long long)r.safePages);
    std::printf("page-mode cycles  : %llu (%.2f%% of cycle-work)\n",
                (unsigned long long)r.pageModeOverheadCycles,
                r.cycles ? 100.0 * double(r.pageModeOverheadCycles) /
                               (double(r.cycles) * wl.threads)
                         : 0);
    if (opts.profileSharing) {
        std::printf(
            "sharing (Fig.1)   : safe pages %.1f%%, safe blocks %.1f%%, "
            "safe tx-reads %.1f%% (pg) / %.1f%% (blk)\n",
            100 * r.pageSharing.safeRegionFraction(),
            100 * r.blockSharing.safeRegionFraction(),
            100 * r.pageSharing.safeTxReadFraction(),
            100 * r.blockSharing.safeTxReadFraction());
    }
    if (opts.collectTxSizes) {
        std::printf("footprint CDF     : <=64 blocks: baseline %.1f%%, "
                    "no-static %.1f%%, unsafe-only %.1f%%\n",
                    100 * r.txSizeAll.cdfAt(64),
                    100 * r.txSizeNoStatic.cdfAt(64),
                    100 * r.txSizeUnsafe.cdfAt(64));
    }
    if (opts.hintOracle) {
        std::printf("hint oracle       : %llu safe accesses checked, "
                    "%llu tracking skips, %zu witness(es)\n",
                    (unsigned long long)r.oracleSafeChecked,
                    (unsigned long long)r.oracleSafeSkips,
                    r.oracleWitnesses.size());
        for (const std::string &w : r.oracleWitnesses)
            std::printf("  %s\n", w.c_str());
    }
    if (r.journal) {
        constexpr std::size_t top_sites = 10;
        std::printf("%s", sim::journalSummary(r).c_str());
        std::printf("\n-- abort attribution (top %zu sites) --\n%s",
                    top_sites,
                    sim::renderAttributionTable(*r.journal, top_sites)
                        .c_str());
        std::printf("\n-- interval time series --\n%s",
                    sim::renderIntervalTable(*r.journal, r.cycles)
                        .c_str());
    }
    if (r.metrics)
        std::printf("%s", sim::metricsSummary(r).c_str());
    bench::writeExports(args.perfettoPath, args.statsJsonPath,
                        {{wl.name, opts.label(), wl.threads, &r}});
    if (!args.perfettoPath.empty())
        std::printf("perfetto trace    : %s\n", args.perfettoPath.c_str());
    if (!args.statsJsonPath.empty())
        std::printf("stats json        : %s\n",
                    args.statsJsonPath.c_str());
    if (opts.collectRawStats) {
        std::printf("\n-- raw statistics --\n%s", r.rawStats.c_str());
    }
    return opts.hintOracle && !r.oracleWitnesses.empty() ? 1 : 0;
}

int
main(int argc, char **argv)
{
    return hintm::runMain(argc, argv, run);
}

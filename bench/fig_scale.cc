/**
 * @file
 * Core-count scaling study for the PR 7 directory machine: the fig4/fig8
 * kernels re-partitioned for 8/32/64 hardware contexts ("name@N"
 * workloads), run with hints off (Baseline) and on (Full) over the P8
 * and L1TM backends. Larger machines get a two-tier NUMA latency model
 * (one home node per 16 cores) to keep the memory system honest.
 *
 * Output is fully deterministic; the equivalence property in
 * tests/test_properties.cc holds it byte-identical to the reference
 * coherence and scheduler paths at every size. With --journal the
 * per-TX journal attributes every abort; the hottest sites for the
 * largest machine are printed per workload, and --stats-json exports
 * the machine-readable records (PR 5 schema).
 *
 * Options: --tiny/--small/--large, --workload NAME (repeatable;
 * default kmeans/intruder/vacation/tpcc-no), --journal, --stats-json
 * [FILE], --jobs N.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "sim/journal_io.hh"

using namespace hintm;
using bench::BenchArgs;
using core::Mechanism;
using core::SystemOptions;

namespace
{

constexpr unsigned coreCounts[] = {8, 32, 64};

/** One directory home node per 16 cores: 8 -> flat, 32 -> 2, 64 -> 4. */
unsigned
numaNodesFor(unsigned cores)
{
    return cores >= 16 ? cores / 16 : 1;
}

} // namespace

static int
run(int argc, char **argv)
{
    BenchArgs args;
    // The scaling subset: two conflict-bound kernels (kmeans, tpcc-no),
    // one capacity-bound (intruder) and one mixed (vacation). --workload
    // overrides as usual.
    args.only = {"kmeans", "intruder", "vacation", "tpcc-no"};
    args.parse(argc, argv);

    const std::vector<std::string> names = args.names();
    for (const std::string &name : names) {
        if (name.find('@') != std::string::npos)
            HINTM_FATAL("workload '", name, "' names its own thread "
                        "count, but fig_scale sets every count itself");
    }
    struct Cell
    {
        std::string wlName;
        unsigned cores;
        htm::HtmKind kind;
        std::size_t base; ///< runMatrix index of the Baseline run
        std::size_t full; ///< runMatrix index of the Full run
    };

    // One prepared workload per (kernel, core count): the thread count
    // is baked into the TxIR partitions, so every machine size is its
    // own module ("name@N").
    std::vector<bench::PreparedWorkload> prepared;
    std::vector<Cell> cells;
    std::vector<bench::MatrixJob> jobs;
    for (const std::string &name : names) {
        for (unsigned cores : coreCounts) {
            prepared.push_back(
                bench::prepare(name, args.scale, cores, args.lint));
        }
    }
    std::size_t p_idx = 0;
    for (const std::string &name : names) {
        for (unsigned cores : coreCounts) {
            const bench::PreparedWorkload &p = prepared[p_idx++];
            for (const htm::HtmKind kind :
                 {htm::HtmKind::P8, htm::HtmKind::L1TM}) {
                auto opt = [&](Mechanism m) {
                    SystemOptions o = args.options();
                    o.htmKind = kind;
                    o.mechanism = m;
                    o.numCores = cores;
                    o.numaNodes = numaNodesFor(cores);
                    return o;
                };
                Cell c{name, cores, kind, jobs.size(), jobs.size() + 1};
                jobs.push_back({&p, opt(Mechanism::Baseline)});
                jobs.push_back({&p, opt(Mechanism::Full)});
                cells.push_back(c);
            }
        }
    }
    const std::vector<sim::RunResult> res = bench::runMatrix(jobs, args);

    for (const htm::HtmKind kind :
         {htm::HtmKind::P8, htm::HtmKind::L1TM}) {
        TextTable t;
        t.header({"workload", "cores", "base cycles", "HinTM cycles",
                  "speedup", "commits", "base cap aborts", "-cap%",
                  "conf aborts"});
        for (const Cell &c : cells) {
            if (c.kind != kind)
                continue;
            const sim::RunResult &b = res[c.base];
            const sim::RunResult &f = res[c.full];
            const auto cap = [](const sim::RunResult &r) {
                return r.htm.aborts[unsigned(htm::AbortReason::Capacity)];
            };
            const auto conf = [](const sim::RunResult &r) {
                return r.htm.aborts[unsigned(htm::AbortReason::Conflict)];
            };
            t.row({c.wlName, std::to_string(c.cores),
                   std::to_string(b.cycles), std::to_string(f.cycles),
                   bench::speedupStr(double(b.cycles) /
                                     double(f.cycles ? f.cycles : 1)),
                   std::to_string(b.committedTxs), std::to_string(cap(b)),
                   TextTable::pct(bench::reduction(cap(b), cap(f))),
                   std::to_string(conf(b))});
        }
        std::cout << "== Scaling on " << htm::htmKindName(kind)
                  << " (hints off vs on, 8/32/64 contexts) ==\n"
                  << t << "\n";
    }

    // Journal abort attribution for the biggest machines: which sites
    // hurt once 64 contexts contend.
    if (args.journal) {
        for (const Cell &c : cells) {
            if (c.cores != 64 || c.kind != htm::HtmKind::P8)
                continue;
            const sim::RunResult &b = res[c.base];
            std::cout << "== " << c.wlName
                      << "@64 baseline abort attribution ==\n"
                      << sim::journalSummary(b);
            if (b.journal)
                std::cout << sim::renderAttributionTable(*b.journal, 5);
            std::cout << "\n";
        }
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return hintm::runMain(argc, argv, run);
}

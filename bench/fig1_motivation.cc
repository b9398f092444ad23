/**
 * @file
 * Reproduces Fig. 1 (the motivation study): per workload,
 *   - fraction of runtime spent on capacity aborts, derived exactly as
 *     the paper does — comparing baseline P8 against InfCap;
 *   - fraction of safe memory regions (no inter-thread read-write
 *     sharing) at 64B-block and 4KB-page granularity;
 *   - fraction of transactional reads targeting safe regions, at both
 *     granularities.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/table.hh"

using namespace hintm;
using bench::BenchArgs;
using core::Mechanism;
using core::SystemOptions;

static int
run(int argc, char **argv)
{
    BenchArgs args;
    args.parse(argc, argv);

    TextTable t;
    t.header({"workload", "cap-abort time", "safe pages", "safe blocks",
              "safe tx-reads (pg)", "safe tx-reads (blk)"});

    double sum_cap = 0, sum_pages = 0, sum_reads_pg = 0;
    unsigned n = 0;

    const std::vector<std::string> names = args.names();
    std::vector<bench::PreparedWorkload> prepared;
    prepared.reserve(names.size());
    for (const std::string &name : names)
        prepared.push_back(bench::prepare(name, args.scale, 0, args.lint));

    std::vector<bench::MatrixJob> jobs;
    for (const bench::PreparedWorkload &p : prepared) {
        SystemOptions base = args.options();
        base.htmKind = htm::HtmKind::P8;
        base.mechanism = Mechanism::Baseline;
        jobs.push_back({&p, base});

        SystemOptions inf = base;
        inf.htmKind = htm::HtmKind::InfCap;
        inf.profileSharing = true;
        jobs.push_back({&p, inf});
    }
    const std::vector<sim::RunResult> res = bench::runMatrix(jobs, args);

    for (std::size_t w = 0; w < names.size(); ++w) {
        const std::string &name = names[w];
        const auto &r_p8 = res[2 * w + 0];
        const auto &r_inf = res[2 * w + 1];

        const double cap_frac =
            r_p8.cycles > r_inf.cycles
                ? double(r_p8.cycles - r_inf.cycles) / r_p8.cycles
                : 0.0;

        t.row({name, TextTable::pct(cap_frac),
               TextTable::pct(r_inf.pageSharing.safeRegionFraction()),
               TextTable::pct(r_inf.blockSharing.safeRegionFraction()),
               TextTable::pct(r_inf.pageSharing.safeTxReadFraction()),
               TextTable::pct(r_inf.blockSharing.safeTxReadFraction())});

        sum_cap += cap_frac;
        sum_pages += r_inf.pageSharing.safeRegionFraction();
        sum_reads_pg += r_inf.pageSharing.safeTxReadFraction();
        ++n;
    }

    std::cout << "== Fig. 1: capacity-abort cost and safe-region "
                 "opportunity ==\n"
              << t << "\n";
    if (n) {
        std::printf("averages: cap-abort time %.1f%% (paper 22%%), safe "
                    "pages %.1f%% (paper 62%%), safe tx-reads at page "
                    "granularity %.1f%% (paper 40%%)\n",
                    100 * sum_cap / n, 100 * sum_pages / n,
                    100 * sum_reads_pg / n);
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return hintm::runMain(argc, argv, run);
}

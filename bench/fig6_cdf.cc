/**
 * @file
 * Reproduces Fig. 6: per-workload CDFs of committed-TX footprints
 * (readset + writeset, in 64B blocks) under three tracking disciplines,
 * collected in a single InfCap run exactly as the paper describes:
 *   baseline  — every block touched in the TX;
 *   HinTM-st  — blocks touched by instructions not statically safe;
 *   HinTM     — blocks touched by accesses not safe under either
 *               mechanism.
 * The paper plots genome, labyrinth, tpcc-no and vacation; default here
 * is the same four (override with --workload).
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
    args.only = {"genome", "labyrinth", "tpcc-no", "vacation"};
    args.parse(argc, argv);

    const std::vector<std::uint64_t> xs = {1,  2,  4,  8,  16, 24,
                                           32, 48, 64, 96, 128};

    std::vector<bench::PreparedWorkload> prepared;
    prepared.reserve(args.only.size());
    for (const std::string &name : args.only)
        prepared.push_back(bench::prepare(name, args.scale, 0, args.lint));

    std::vector<bench::MatrixJob> jobs;
    for (const bench::PreparedWorkload &p : prepared) {
        SystemOptions o = args.options();
        o.htmKind = htm::HtmKind::InfCap; // every TX commits: full CDF
        o.mechanism = Mechanism::Full;    // both hint kinds evaluated
        o.collectTxSizes = true;
        jobs.push_back({&p, o});
    }
    const std::vector<sim::RunResult> res = bench::runMatrix(jobs, args);

    for (std::size_t w = 0; w < args.only.size(); ++w) {
        const std::string &name = args.only[w];
        const auto &r = res[w];

        TextTable t;
        std::vector<std::string> hdr = {"tracked blocks <="};
        for (auto x : xs)
            hdr.push_back(std::to_string(x));
        t.header(hdr);

        auto cdf_row = [&](const char *label,
                           const stats::Distribution &d) {
            std::vector<std::string> row = {label};
            for (auto x : xs)
                row.push_back(TextTable::pct(d.cdfAt(x), 0));
            t.row(row);
        };
        cdf_row("baseline", r.txSizeAll);
        cdf_row("HinTM-st", r.txSizeNoStatic);
        cdf_row("HinTM", r.txSizeUnsafe);

        std::cout << "== Fig. 6: TX size CDF for " << name << " ("
                  << r.txSizeAll.count() << " committed TXs) ==\n"
                  << t;
        std::printf("fits in 64-entry buffer: baseline %.1f%%  "
                    "HinTM-st %.1f%%  HinTM %.1f%%\n\n",
                    100 * r.txSizeAll.cdfAt(64),
                    100 * r.txSizeNoStatic.cdfAt(64),
                    100 * r.txSizeUnsafe.cdfAt(64));
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return hintm::runMain(argc, argv, run);
}

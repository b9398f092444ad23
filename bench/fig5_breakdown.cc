/**
 * @file
 * Reproduces Fig. 5: the dynamic breakdown of memory accesses performed
 * inside transactions, split into compiler-annotated safe, runtime-
 * (page-)annotated safe, and unsafe. Collected under full HinTM with the
 * preserve-read-only page policy, exactly as the paper does ("collected
 * using HinTM + preserve").
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
    t.header({"workload", "compiler-safe", "runtime-safe", "unsafe",
              "(tx accesses)"});

    double sum_safe = 0;
    unsigned n = 0;

    const std::vector<std::string> names = args.names();
    std::vector<bench::PreparedWorkload> prepared;
    prepared.reserve(names.size());
    for (const std::string &name : names)
        prepared.push_back(bench::prepare(name, args.scale, 0, args.lint));

    std::vector<bench::MatrixJob> jobs;
    for (const bench::PreparedWorkload &p : prepared) {
        SystemOptions o = args.options();
        o.htmKind = htm::HtmKind::P8;
        o.mechanism = Mechanism::Full;
        o.preserveReadOnly = true; // the paper's collection setup
        jobs.push_back({&p, o});
    }
    const std::vector<sim::RunResult> res = bench::runMatrix(jobs, args);

    for (std::size_t w = 0; w < names.size(); ++w) {
        const std::string &name = names[w];
        const auto &r = res[w];

        const double total = double(r.txAccessesTotal());
        if (total == 0) {
            t.row({name, "-", "-", "-", "0"});
            continue;
        }
        const double comp =
            double(r.txReadsStaticSafe + r.txWritesStaticSafe) / total;
        const double dyn = double(r.txReadsDynSafe) / total;
        const double unsafe =
            double(r.txReadsUnsafe + r.txWritesUnsafe) / total;
        t.row({name, TextTable::pct(comp), TextTable::pct(dyn),
               TextTable::pct(unsafe),
               std::to_string(std::uint64_t(total))});
        sum_safe += comp + dyn;
        ++n;
    }

    std::cout << "== Fig. 5: TX memory access breakdown (HinTM + "
                 "preserve) ==\n"
              << t << "\n";
    if (n) {
        std::printf("average safe fraction: %.1f%% (paper: ~50%%, "
                    "dominated by the dynamic mechanism)\n",
                    100 * sum_safe / n);
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return hintm::runMain(argc, argv, run);
}

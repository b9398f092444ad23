/**
 * @file
 * Ablation: retry-policy sweep. Two axes the paper fixes implicitly:
 * how many transient-abort retries precede the fallback lock, and
 * whether capacity aborts retry at all (they are deterministic, so the
 * sane policy — and ours — falls back immediately; this sweep shows why
 * by letting them burn retries like transient aborts).
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/table.hh"

using namespace hintm;
using bench::BenchArgs;
using core::SystemOptions;

static int
run(int argc, char **argv)
{
    BenchArgs args;
    args.only = {"intruder", "tpcc-p", "vacation"};
    args.parse(argc, argv);

    const std::vector<unsigned> retries = {0, 2, 4, 8, 16};

    std::vector<bench::PreparedWorkload> prepared;
    prepared.reserve(args.only.size());
    for (const std::string &name : args.only)
        prepared.push_back(bench::prepare(name, args.scale, 0, args.lint));

    std::vector<bench::MatrixJob> jobs;
    for (const bench::PreparedWorkload &p : prepared) {
        for (const unsigned r : retries) {
            SystemOptions o = args.options();
            o.htmKind = htm::HtmKind::P8;
            o.maxRetries = r;
            jobs.push_back({&p, o});
        }
    }
    const std::vector<sim::RunResult> all = bench::runMatrix(jobs, args);

    for (std::size_t w = 0; w < args.only.size(); ++w) {
        const std::string &name = args.only[w];
        TextTable t;
        t.header({"max retries", "cycles", "commits", "fallbacks",
                  "conflict aborts"});
        for (std::size_t ri = 0; ri < retries.size(); ++ri) {
            const auto &res = all[w * retries.size() + ri];
            t.row({std::to_string(retries[ri]),
                   std::to_string(res.cycles),
                   std::to_string(res.htm.commits),
                   std::to_string(res.fallbackRuns),
                   std::to_string(res.htm.aborts[unsigned(
                       htm::AbortReason::Conflict)])});
        }
        std::cout << "== retry-policy ablation (P8 baseline): " << name
                  << " ==\n"
                  << t << "\n";
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return hintm::runMain(argc, argv, run);
}

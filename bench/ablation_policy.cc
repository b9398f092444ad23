/**
 * @file
 * Ablation: conflict-loser policy. The paper's simulator (and ours, by
 * default) aborts the TX that *receives* a conflicting coherence
 * message (attacker-wins, POWER8-style); the alternative aborts the
 * requester before it disturbs the holder. Attacker-wins lets committed
 * work finish (the committer's final writes kill the bystanders);
 * requester-loses protects long-running holders at the cost of starving
 * late arrivals. HinTM's benefit is largely policy-independent, which
 * this table demonstrates.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/table.hh"

using namespace hintm;
using core::Mechanism;
using core::SystemOptions;

static int
run(int argc, char **argv)
{
    bench::BenchArgs args;
    args.only = {"kmeans", "intruder", "labyrinth", "tpcc-p"};
    args.parse(argc, argv);

    TextTable t;
    t.header({"workload", "policy", "base cycles", "base conflicts",
              "HinTM speedup"});

    const htm::ConflictPolicy policies[] = {
        htm::ConflictPolicy::AttackerWins,
        htm::ConflictPolicy::RequesterLoses};

    std::vector<bench::PreparedWorkload> prepared;
    prepared.reserve(args.only.size());
    for (const std::string &name : args.only)
        prepared.push_back(bench::prepare(name, args.scale, 0, args.lint));

    std::vector<bench::MatrixJob> jobs;
    for (const bench::PreparedWorkload &p : prepared) {
        for (const htm::ConflictPolicy pol : policies) {
            SystemOptions base = args.options();
            base.htmKind = htm::HtmKind::P8;
            base.conflictPolicy = pol;
            jobs.push_back({&p, base});

            SystemOptions full = base;
            full.mechanism = Mechanism::Full;
            jobs.push_back({&p, full});
        }
    }
    const std::vector<sim::RunResult> res = bench::runMatrix(jobs, args);

    for (std::size_t w = 0; w < args.only.size(); ++w) {
        const std::string &name = args.only[w];
        for (std::size_t pi = 0; pi < 2; ++pi) {
            const htm::ConflictPolicy pol = policies[pi];
            const auto &rb = res[4 * w + 2 * pi + 0];
            const auto &rf = res[4 * w + 2 * pi + 1];

            t.row({name, htm::conflictPolicyName(pol),
                   std::to_string(rb.cycles),
                   std::to_string(rb.htm.aborts[unsigned(
                       htm::AbortReason::Conflict)]),
                   bench::speedupStr(double(rb.cycles) / rf.cycles)});
        }
    }
    std::cout << "== conflict-policy ablation (P8) ==\n" << t;
    return 0;
}

int
main(int argc, char **argv)
{
    return hintm::runMain(argc, argv, run);
}

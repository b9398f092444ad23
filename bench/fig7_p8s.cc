/**
 * @file
 * Reproduces Fig. 7: HinTM on the P8S baseline (P8 plus a 1024-bit PBX
 * read signature). Signatures make the readset effectively unbounded, so
 * HinTM's remaining leverage is writeset reduction (capacity aborts) and
 * false-conflict elimination (signature aliasing). Run at --large scale,
 * as the paper uses larger inputs to pressure the bigger HTMs.
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
    args.scale = workloads::Scale::Large;
    args.parse(argc, argv);

    TextTable t7a;
    t7a.header({"workload", "base cap", "base false-cf", "st -cap%",
                "dyn -fcf%", "HinTM -cap%", "HinTM -fcf%"});
    TextTable t7b;
    t7b.header({"workload", "st speedup", "dyn speedup", "HinTM speedup",
                "InfCap speedup"});

    std::vector<double> sp_full;
    const std::vector<std::string> names = args.names();
    std::vector<bench::PreparedWorkload> prepared;
    prepared.reserve(names.size());
    for (const std::string &name : names)
        prepared.push_back(bench::prepare(name, args.scale, 0, args.lint));

    std::vector<bench::MatrixJob> jobs;
    for (const bench::PreparedWorkload &p : prepared) {
        auto opt = [&](Mechanism m) {
            SystemOptions o = args.options();
            o.htmKind = htm::HtmKind::P8S;
            o.mechanism = m;
            return o;
        };
        jobs.push_back({&p, opt(Mechanism::Baseline)});
        jobs.push_back({&p, opt(Mechanism::StaticOnly)});
        jobs.push_back({&p, opt(Mechanism::DynamicOnly)});
        jobs.push_back({&p, opt(Mechanism::Full)});
        SystemOptions inf_o = opt(Mechanism::Baseline);
        inf_o.htmKind = htm::HtmKind::InfCap;
        jobs.push_back({&p, inf_o});
    }
    const std::vector<sim::RunResult> res = bench::runMatrix(jobs, args);

    for (std::size_t w = 0; w < names.size(); ++w) {
        const std::string &name = names[w];
        const auto &base = res[5 * w + 0];
        const auto &st = res[5 * w + 1];
        const auto &dyn = res[5 * w + 2];
        const auto &full = res[5 * w + 3];
        const auto &inf = res[5 * w + 4];

        const auto cap = [](const sim::RunResult &r) {
            return r.htm.aborts[unsigned(htm::AbortReason::Capacity)];
        };
        const auto fcf = [](const sim::RunResult &r) {
            return r.htm
                .aborts[unsigned(htm::AbortReason::FalseConflict)];
        };
        t7a.row({name, std::to_string(cap(base)),
                 std::to_string(fcf(base)),
                 TextTable::pct(bench::reduction(cap(base), cap(st))),
                 TextTable::pct(bench::reduction(fcf(base), fcf(dyn))),
                 TextTable::pct(bench::reduction(cap(base), cap(full))),
                 TextTable::pct(bench::reduction(fcf(base), fcf(full)))});
        t7b.row({name, bench::speedupStr(double(base.cycles) / st.cycles),
                 bench::speedupStr(double(base.cycles) / dyn.cycles),
                 bench::speedupStr(double(base.cycles) / full.cycles),
                 bench::speedupStr(double(base.cycles) / inf.cycles)});
        sp_full.push_back(double(base.cycles) / full.cycles);
    }

    std::cout << "== Fig. 7a: abort reduction vs P8S baseline ==\n"
              << t7a << "\n";
    std::cout << "== Fig. 7b: speedup vs P8S baseline ==\n" << t7b << "\n";
    std::printf("geomean HinTM speedup on P8S: %.2fx (paper: ~1.28x)\n",
                bench::geomean(sp_full));
    return 0;
}

int
main(int argc, char **argv)
{
    return hintm::runMain(argc, argv, run);
}

/**
 * @file
 * Reproduces Fig. 8: HinTM on the L1TM baseline — transactional state
 * tracked in the 32KB 8-way L1 data cache, with 2-way SMT per core to
 * create capacity and set-conflict pressure (each workload runs its
 * paper thread count on half as many cores, two hardware contexts per
 * L1). Run at --large scale like the paper.
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

    TextTable t;
    t.header({"workload", "base cap aborts", "HinTM -cap%", "st speedup",
              "dyn speedup", "HinTM speedup", "InfCap speedup",
              "pg-abort cyc%"});

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
            o.htmKind = htm::HtmKind::L1TM;
            o.mechanism = m;
            // 2-way SMT: paper thread count on half as many cores.
            o.numCores = (p.wl.threads + 1) / 2;
            o.smtPerCore = 2;
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
        const bench::PreparedWorkload &p = prepared[w];
        const auto &base = res[5 * w + 0];
        const auto &st = res[5 * w + 1];
        const auto &dyn = res[5 * w + 2];
        const auto &full = res[5 * w + 3];
        const auto &inf = res[5 * w + 4];

        const auto cap = [](const sim::RunResult &r) {
            return r.htm.aborts[unsigned(htm::AbortReason::Capacity)];
        };
        const double pg =
            full.cycles ? double(full.pageModeOverheadCycles) /
                              (double(full.cycles) * p.wl.threads)
                        : 0.0;
        t.row({name, std::to_string(cap(base)),
               TextTable::pct(bench::reduction(cap(base), cap(full))),
               bench::speedupStr(double(base.cycles) / st.cycles),
               bench::speedupStr(double(base.cycles) / dyn.cycles),
               bench::speedupStr(double(base.cycles) / full.cycles),
               bench::speedupStr(double(base.cycles) / inf.cycles),
               TextTable::pct(pg)});
        sp_full.push_back(double(base.cycles) / full.cycles);
    }

    std::cout << "== Fig. 8: HinTM on L1TM with 2-way SMT ==\n"
              << t << "\n";
    std::printf("geomean HinTM speedup on L1TM+SMT: %.2fx (paper: ~1.7x "
                "avg, up to 7.1x)\n",
                bench::geomean(sp_full));
    return 0;
}

int
main(int argc, char **argv)
{
    return hintm::runMain(argc, argv, run);
}

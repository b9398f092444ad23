/**
 * @file
 * Reproduces Fig. 4: HinTM on the P8 (POWER8-style, 64-entry buffer)
 * baseline.
 *   (a) capacity-abort reduction of HinTM-st / HinTM-dyn / HinTM
 *   (b) speedup over baseline P8 (plus the InfCap upper bound) and the
 *       fraction of cycles spent on page-mode transitions.
 *
 * Options: --tiny/--small/--large, --workload NAME (repeatable),
 * --preserve (runs the §VI-B page policy for the HinTM columns).
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

    TextTable fig4a;
    fig4a.header({"workload", "base cap aborts", "st -cap%", "dyn -cap%",
                  "HinTM -cap%"});
    TextTable fig4b;
    fig4b.header({"workload", "st speedup", "dyn speedup", "HinTM speedup",
                  "InfCap speedup", "pg-abort cyc%"});

    std::vector<double> sp_st, sp_dyn, sp_full, sp_inf;
    std::vector<double> red_full;

    const std::vector<std::string> names = args.names();
    std::vector<bench::PreparedWorkload> prepared;
    prepared.reserve(names.size());
    for (const std::string &name : names)
        prepared.push_back(bench::prepare(name, args.scale, 0, args.lint));

    // Five configurations per workload, farmed out together.
    std::vector<bench::MatrixJob> jobs;
    for (const bench::PreparedWorkload &p : prepared) {
        auto opt = [&](Mechanism m) {
            SystemOptions o = args.options();
            o.htmKind = htm::HtmKind::P8;
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
        const bench::PreparedWorkload &p = prepared[w];
        const auto &base = res[5 * w + 0];
        const auto &st = res[5 * w + 1];
        const auto &dyn = res[5 * w + 2];
        const auto &full = res[5 * w + 3];
        const auto &inf = res[5 * w + 4];

        const auto cap = [](const sim::RunResult &r) {
            return r.htm.aborts[unsigned(htm::AbortReason::Capacity)];
        };
        fig4a.row({name, std::to_string(cap(base)),
                   TextTable::pct(bench::reduction(cap(base), cap(st))),
                   TextTable::pct(bench::reduction(cap(base), cap(dyn))),
                   TextTable::pct(bench::reduction(cap(base), cap(full)))});

        const double s_st = double(base.cycles) / st.cycles;
        const double s_dyn = double(base.cycles) / dyn.cycles;
        const double s_full = double(base.cycles) / full.cycles;
        const double s_inf = double(base.cycles) / inf.cycles;
        const double pg = full.cycles
                              ? double(full.pageModeOverheadCycles) /
                                    (double(full.cycles) * p.wl.threads)
                              : 0.0;
        fig4b.row({name, bench::speedupStr(s_st), bench::speedupStr(s_dyn),
                   bench::speedupStr(s_full), bench::speedupStr(s_inf),
                   TextTable::pct(pg)});

        sp_st.push_back(s_st);
        sp_dyn.push_back(s_dyn);
        sp_full.push_back(s_full);
        sp_inf.push_back(s_inf);
        red_full.push_back(bench::reduction(cap(base), cap(full)));
    }

    double red_avg = 0;
    for (double r : red_full)
        red_avg += r;
    red_avg /= red_full.empty() ? 1 : double(red_full.size());

    std::cout << "== Fig. 4a: capacity abort reduction vs P8 baseline ==\n"
              << fig4a << "\n";
    std::cout << "== Fig. 4b: speedup vs P8 baseline ==\n" << fig4b << "\n";
    std::printf("HinTM mean capacity-abort reduction: %.1f%%  "
                "(paper: ~62-64%%)\n",
                red_avg * 100.0);
    std::printf("geomean speedup  st %.2fx  dyn %.2fx  HinTM %.2fx  "
                "InfCap %.2fx  (paper: HinTM ~1.4x avg)\n",
                bench::geomean(sp_st), bench::geomean(sp_dyn),
                bench::geomean(sp_full), bench::geomean(sp_inf));
    return 0;
}

int
main(int argc, char **argv)
{
    return hintm::runMain(argc, argv, run);
}

/**
 * @file
 * Diagnostic harness: per-workload, per-configuration drill-down —
 * abort breakdown by reason, cycles lost, TX footprint percentiles,
 * access-classification mix, page statistics. Not tied to a specific
 * paper figure; used to calibrate and debug experiments.
 *
 * Options: the shared BenchArgs set, plus everything runs on P8 and
 * InfCap with all four mechanisms.
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

    const std::vector<std::string> names = args.names();
    std::vector<bench::PreparedWorkload> prepared;
    prepared.reserve(names.size());
    for (const std::string &name : names)
        prepared.push_back(bench::prepare(name, args.scale, 0, args.lint));

    std::vector<bench::MatrixJob> jobs;
    for (const bench::PreparedWorkload &p : prepared) {
        for (htm::HtmKind kind :
             {htm::HtmKind::P8, htm::HtmKind::InfCap}) {
            for (Mechanism mech :
                 {Mechanism::Baseline, Mechanism::StaticOnly,
                  Mechanism::DynamicOnly, Mechanism::Full}) {
                SystemOptions o = args.options();
                o.htmKind = kind;
                o.mechanism = mech;
                jobs.push_back({&p, o});
            }
        }
    }
    const std::vector<sim::RunResult> res = bench::runMatrix(jobs, args);

    for (std::size_t w = 0; w < names.size(); ++w) {
        const bench::PreparedWorkload &p = prepared[w];
        std::cout << "==== " << names[w] << " (threads=" << p.wl.threads
                  << ") ====\n";
        std::cout << "compile: " << p.compileReport.summary() << "\n";

        TextTable t;
        t.header({"config", "cycles", "commits", "fallback", "conflict",
                  "false-cf", "capacity", "page-mode", "lock-abrt",
                  "trk p50", "trk p95", "trk max", "safe-rd st/dyn %"});

        auto row = [&](const SystemOptions &opts,
                       const sim::RunResult &r) {
            const auto ab = [&](htm::AbortReason a) {
                return std::to_string(r.htm.aborts[unsigned(a)]);
            };
            const double total = double(r.txAccessesTotal());
            const double st_pct =
                total ? 100.0 *
                            (r.txReadsStaticSafe + r.txWritesStaticSafe) /
                            total
                      : 0;
            const double dyn_pct =
                total ? 100.0 * r.txReadsDynSafe / total : 0;
            char mix[48];
            std::snprintf(mix, sizeof(mix), "%.1f / %.1f", st_pct,
                          dyn_pct);
            t.row({opts.label(), std::to_string(r.cycles),
                   std::to_string(r.htm.commits),
                   std::to_string(r.fallbackRuns),
                   ab(htm::AbortReason::Conflict),
                   ab(htm::AbortReason::FalseConflict),
                   ab(htm::AbortReason::Capacity),
                   ab(htm::AbortReason::PageMode),
                   ab(htm::AbortReason::FallbackLock),
                   std::to_string(r.htm.trackedAtCommit.quantile(0.5)),
                   std::to_string(r.htm.trackedAtCommit.quantile(0.95)),
                   std::to_string(r.htm.trackedAtCommit.max()), mix});
        };

        for (std::size_t k = 0; k < 8; ++k)
            row(jobs[8 * w + k].opts, res[8 * w + k]);
        std::cout << t << "\n";
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return hintm::runMain(argc, argv, run);
}

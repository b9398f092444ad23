/**
 * @file
 * Ablation: pre-abort handlers [51] vs HinTM (§VII). A pre-abort
 * handler converts a capacity-overflowing TX into a critical section —
 * no work is lost, but the system still serializes. HinTM instead
 * *prevents* the overflow, keeping execution parallel. The paper argues
 * the two compose: HinTM shrinks footprints and the handler rescues the
 * residue, which the combined column demonstrates.
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
    args.only = {"genome", "labyrinth", "yada", "intruder"};
    args.parse(argc, argv);

    TextTable t;
    t.header({"workload", "baseline", "pre-abort", "HinTM",
              "HinTM+pre-abort", "conversions"});

    std::vector<bench::PreparedWorkload> prepared;
    prepared.reserve(args.only.size());
    for (const std::string &name : args.only)
        prepared.push_back(bench::prepare(name, args.scale, 0, args.lint));

    std::vector<bench::MatrixJob> jobs;
    for (const bench::PreparedWorkload &p : prepared) {
        SystemOptions base = args.options();
        base.htmKind = htm::HtmKind::P8;
        jobs.push_back({&p, base});

        SystemOptions pre = base;
        pre.preAbortHandler = true;
        jobs.push_back({&p, pre});

        SystemOptions full = base;
        full.mechanism = Mechanism::Full;
        jobs.push_back({&p, full});

        SystemOptions both = full;
        both.preAbortHandler = true;
        jobs.push_back({&p, both});
    }
    const std::vector<sim::RunResult> res = bench::runMatrix(jobs, args);

    for (std::size_t w = 0; w < args.only.size(); ++w) {
        const std::string &name = args.only[w];
        const auto &rb = res[4 * w + 0];
        const auto &rp = res[4 * w + 1];
        const auto &rf = res[4 * w + 2];
        const auto &rc = res[4 * w + 3];

        t.row({name, "1.00x",
               bench::speedupStr(double(rb.cycles) / rp.cycles),
               bench::speedupStr(double(rb.cycles) / rf.cycles),
               bench::speedupStr(double(rb.cycles) / rc.cycles),
               std::to_string(rc.htm.preAbortConversions)});
    }
    std::cout << "== pre-abort handler ablation (P8, speedup vs "
                 "baseline) ==\n"
              << t;
    std::printf("\npre-abort saves the doomed attempt's work; HinTM "
                "avoids the overflow altogether; together the handler "
                "mops up the TXs HinTM cannot shrink.\n");
    return 0;
}

int
main(int argc, char **argv)
{
    return hintm::runMain(argc, argv, run);
}

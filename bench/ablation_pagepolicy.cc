/**
 * @file
 * Ablation: page-mode transition policy (§VI-B). Compares full HinTM
 * under the default sticky policy (a safe page that turns unsafe stays
 * unsafe; aborts every TX that safe-read it) against the
 * preserve-read-only policy (a second reader demotes private-rw pages
 * to shared-ro instead of declaring them unsafe). The paper studies
 * this for vacation, its page-mode outlier.
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
    t.header({"workload", "base cycles", "HinTM", "pg-aborts",
              "HinTM+preserve", "pg-aborts", "preserve gain"});

    const std::vector<std::string> names = args.names();
    std::vector<bench::PreparedWorkload> prepared;
    prepared.reserve(names.size());
    for (const std::string &name : names)
        prepared.push_back(bench::prepare(name, args.scale, 0, args.lint));

    std::vector<bench::MatrixJob> jobs;
    for (const bench::PreparedWorkload &p : prepared) {
        SystemOptions base = args.options();
        base.htmKind = htm::HtmKind::P8;
        jobs.push_back({&p, base});

        // Both HinTM columns name their page policy, so --preserve
        // changes neither.
        SystemOptions sticky = base;
        sticky.mechanism = Mechanism::Full;
        sticky.preserveReadOnly = false;
        jobs.push_back({&p, sticky});

        SystemOptions pres = sticky;
        pres.preserveReadOnly = true;
        jobs.push_back({&p, pres});
    }
    const std::vector<sim::RunResult> res = bench::runMatrix(jobs, args);

    for (std::size_t w = 0; w < names.size(); ++w) {
        const std::string &name = names[w];
        const auto &rb = res[3 * w + 0];
        const auto &rs = res[3 * w + 1];
        const auto &rp = res[3 * w + 2];

        const auto pg = [](const sim::RunResult &r) {
            return r.htm.aborts[unsigned(htm::AbortReason::PageMode)];
        };
        t.row({name, std::to_string(rb.cycles),
               bench::speedupStr(double(rb.cycles) / rs.cycles),
               std::to_string(pg(rs)),
               bench::speedupStr(double(rb.cycles) / rp.cycles),
               std::to_string(pg(rp)),
               bench::speedupStr(double(rs.cycles) / rp.cycles)});
    }
    std::cout << "== page-policy ablation (P8 + HinTM) ==\n" << t;
    return 0;
}

int
main(int argc, char **argv)
{
    return hintm::runMain(argc, argv, run);
}

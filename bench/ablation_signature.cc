/**
 * @file
 * Ablation: P8S read-signature width sweep. Smaller bitvectors alias
 * more (more false-conflict aborts); HinTM shrinks the spilled readset,
 * so it effectively buys signature headroom the same way it buys buffer
 * capacity.
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
    args.only = {"genome", "intruder", "vacation"};
    args.parse(argc, argv);

    const std::vector<unsigned> widths = {128, 256, 512, 1024, 2048};

    std::vector<bench::PreparedWorkload> prepared;
    prepared.reserve(args.only.size());
    for (const std::string &name : args.only)
        prepared.push_back(bench::prepare(name, args.scale, 0, args.lint));

    std::vector<bench::MatrixJob> jobs;
    for (const bench::PreparedWorkload &p : prepared) {
        for (const unsigned bits : widths) {
            SystemOptions base = args.options();
            base.htmKind = htm::HtmKind::P8S;
            base.signatureBits = bits;
            jobs.push_back({&p, base});

            SystemOptions full = base;
            full.mechanism = Mechanism::Full;
            jobs.push_back({&p, full});
        }
    }
    const std::vector<sim::RunResult> res = bench::runMatrix(jobs, args);

    for (std::size_t w = 0; w < args.only.size(); ++w) {
        const std::string &name = args.only[w];
        TextTable t;
        t.header({"signature bits", "base false-cf", "base cycles",
                  "HinTM false-cf", "HinTM speedup"});
        for (std::size_t s = 0; s < widths.size(); ++s) {
            const unsigned bits = widths[s];
            const auto &rb = res[2 * (w * widths.size() + s) + 0];
            const auto &rf = res[2 * (w * widths.size() + s) + 1];

            const auto fcf = [](const sim::RunResult &r) {
                return r.htm
                    .aborts[unsigned(htm::AbortReason::FalseConflict)];
            };
            t.row({std::to_string(bits), std::to_string(fcf(rb)),
                   std::to_string(rb.cycles), std::to_string(fcf(rf)),
                   bench::speedupStr(double(rb.cycles) / rf.cycles)});
        }
        std::cout << "== signature-width ablation: " << name << " ==\n"
                  << t << "\n";
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return hintm::runMain(argc, argv, run);
}

/**
 * @file
 * Ablation: transactional-buffer size sweep. HinTM's pitch is that
 * hints expand *effective* capacity — this sweep quantifies how many
 * physical entries a conventional HTM would need to match HinTM at 64
 * entries (§VI-E: achieving the same effect in hardware alone requires
 * larger buffers).
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
    args.only = {"genome", "labyrinth", "vacation", "yada"};
    args.parse(argc, argv);

    const std::vector<unsigned> sizes = {16, 32, 64, 128, 256, 512};

    std::vector<bench::PreparedWorkload> prepared;
    prepared.reserve(args.only.size());
    for (const std::string &name : args.only)
        prepared.push_back(bench::prepare(name, args.scale, 0, args.lint));

    std::vector<bench::MatrixJob> jobs;
    for (const bench::PreparedWorkload &p : prepared) {
        for (const unsigned entries : sizes) {
            SystemOptions base = args.options();
            base.htmKind = htm::HtmKind::P8;
            base.bufferEntries = entries;
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
        t.header({"buffer entries", "base cap-aborts", "base cycles",
                  "HinTM cap-aborts", "HinTM cycles", "HinTM speedup"});
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            const unsigned entries = sizes[s];
            const auto &rb = res[2 * (w * sizes.size() + s) + 0];
            const auto &rf = res[2 * (w * sizes.size() + s) + 1];

            const auto cap = [](const sim::RunResult &r) {
                return r.htm.aborts[unsigned(htm::AbortReason::Capacity)];
            };
            t.row({std::to_string(entries), std::to_string(cap(rb)),
                   std::to_string(rb.cycles), std::to_string(cap(rf)),
                   std::to_string(rf.cycles),
                   bench::speedupStr(double(rb.cycles) / rf.cycles)});
        }
        std::cout << "== buffer-size ablation: " << name << " ==\n"
                  << t << "\n";
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return hintm::runMain(argc, argv, run);
}

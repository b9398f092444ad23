/**
 * @file
 * Ablation: programmer annotations vs automatic classification (§VII,
 * Notary discussion). Builds a labyrinth variant whose private grids are
 * additionally covered by Notary-style page annotations, then compares:
 *   - baseline (no hints),
 *   - Notary (annotations only, no compiler pass, no page FSM),
 *   - HinTM-st (automatic compiler hints),
 *   - HinTM (both automatic mechanisms),
 *   - HinTM + annotations.
 * Annotations recover the read side without any HinTM hardware/OS
 * machinery, but — like the dynamic mechanism — cannot make stores
 * safe, which is exactly why labyrinth still needs the compiler pass.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "tir/builder.hh"

using namespace hintm;
using core::Mechanism;
using core::SystemOptions;

namespace
{

/** Append Notary annotations for the two private grids to a labyrinth
 * worker by rebuilding it with annotate ops after the mallocs. */
workloads::Workload
annotatedLabyrinth(workloads::Scale s)
{
    workloads::Workload wl = workloads::buildLabyrinth(s);
    // Surgical rewrite: insert Annotate after each worker Malloc.
    tir::Function &fn =
        wl.module.functions[std::size_t(wl.module.threadFunc)];
    for (auto &bb : fn.blocks) {
        for (std::size_t i = 0; i < bb.instrs.size(); ++i) {
            if (bb.instrs[i].op != tir::Opcode::Malloc)
                continue;
            tir::Instr ann;
            ann.op = tir::Opcode::Annotate;
            ann.a = bb.instrs[i].dst; // the fresh allocation
            ann.b = bb.instrs[i].a;   // its size register
            bb.instrs.insert(bb.instrs.begin() + long(i) + 1, ann);
            ++i;
        }
    }
    wl.name = "labyrinth+notary";
    return wl;
}

} // namespace

static int
run(int argc, char **argv)
{
    // It runs only its annotated labyrinth: no --workload.
    bench::BenchArgs args;
    args.parse(argc, argv, bench::flags::harness & ~bench::flags::Workloads);
    bench::PreparedWorkload p;
    p.wl = annotatedLabyrinth(args.scale);
    p.compileReport = core::compileHints(p.wl.module);
    if (args.lint)
        bench::lintGate(p.wl);
    std::printf("compiler: %s\n\n", p.compileReport.summary().c_str());

    TextTable t;
    t.header({"config", "cycles", "capacity", "page-mode", "annot reads",
              "speedup"});

    SystemOptions base = args.options();
    base.htmKind = htm::HtmKind::P8;

    SystemOptions notary = base;
    notary.notaryAnnotations = true;
    SystemOptions st = base;
    st.mechanism = Mechanism::StaticOnly;
    SystemOptions full = base;
    full.mechanism = Mechanism::Full;
    SystemOptions both = full;
    both.notaryAnnotations = true;

    const std::vector<bench::MatrixJob> jobs = {
        {&p, base}, {&p, notary}, {&p, st}, {&p, full}, {&p, both}};
    const std::vector<sim::RunResult> res = bench::runMatrix(jobs, args);

    const std::uint64_t base_cycles = res[0].cycles;
    const char *const labels[] = {"baseline", "Notary (annot only)",
                                  "HinTM-st", "HinTM",
                                  "HinTM + annotations"};
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        const sim::RunResult &r = res[k];
        t.row({labels[k], std::to_string(r.cycles),
               std::to_string(
                   r.htm.aborts[unsigned(htm::AbortReason::Capacity)]),
               std::to_string(
                   r.htm.aborts[unsigned(htm::AbortReason::PageMode)]),
               std::to_string(r.txReadsAnnotated),
               bench::speedupStr(double(base_cycles) / r.cycles)});
    }

    std::cout << "== annotation ablation (labyrinth, P8) ==\n" << t;
    std::printf("\nannotations cover only reads; labyrinth's private "
                "grid *stores* still need the compiler pass.\n");
    return 0;
}

int
main(int argc, char **argv)
{
    return hintm::runMain(argc, argv, run);
}

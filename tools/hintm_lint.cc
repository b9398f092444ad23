/**
 * @file
 * hintm_lint: soundness checker for HinTM safety hints. For every
 * registered workload it (1) runs the annotation pipeline, (2) runs the
 * static race-lint pass over the annotated TxIR, and (3) replays the
 * workload with the dynamic HintOracle armed, reporting any safe-hinted
 * access whose target is written by another thread. Exits non-zero on
 * any diagnostic or runtime witness, so CI can gate on it.
 *
 * --mutate flips deliberately-unsound hint bits post-pass and reports
 * which side of the checker catches each corruption (demonstration mode:
 * diagnostics are expected and do not affect the exit code).
 *
 * Examples:
 *   hintm_lint --tiny
 *   hintm_lint --workload kmeans --scale small
 *   hintm_lint --tiny --mutate
 */

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "compiler/race_lint.hh"
#include "core/hintm.hh"
#include "workloads/workloads.hh"

using namespace hintm;

namespace
{

constexpr const char *ownHelp =
    "  --static-only       skip the dynamic-oracle simulation\n"
    "  --mutate            corrupt hints on purpose and show which\n"
    "                      side catches it (does not affect exit "
    "code;\n"
    "                      --seed picks the corrupted bits)\n";

/** Candidate hint bit to corrupt: a currently-unsafe access. */
struct FlipSite
{
    int fn, block, instr;
};

std::vector<FlipSite>
unsafeAccesses(const tir::Module &mod)
{
    std::vector<FlipSite> sites;
    for (int f = 0; f < int(mod.functions.size()); ++f) {
        const auto &fn = mod.functions[std::size_t(f)];
        for (int b = 0; b < int(fn.blocks.size()); ++b) {
            const auto &instrs = fn.blocks[std::size_t(b)].instrs;
            for (int i = 0; i < int(instrs.size()); ++i) {
                const tir::Instr &ins = instrs[std::size_t(i)];
                if (tir::isMemAccess(ins.op) && !ins.safe)
                    sites.push_back({f, b, i});
            }
        }
    }
    return sites;
}

struct LintOutcome
{
    unsigned staticDiags = 0;
    unsigned oracleWitnesses = 0;
};

LintOutcome
lintWorkload(const std::string &name, workloads::Scale scale,
             bool run_oracle)
{
    LintOutcome out;
    const bench::PreparedWorkload p = bench::prepare(name, scale);

    const compiler::LintReport lint = compiler::lintRaces(p.wl.module);
    out.staticDiags = unsigned(lint.diagnostics.size());
    std::printf("%-10s static : %s\n", name.c_str(),
                lint.summary().c_str());
    if (!lint.clean())
        std::printf("%s", lint.render().c_str());

    if (run_oracle) {
        core::SystemOptions opts;
        opts.mechanism = core::Mechanism::Full;
        opts.hintOracle = true;
        const sim::RunResult r =
            core::simulate(opts, p.wl.module, p.wl.threads);
        out.oracleWitnesses = unsigned(r.oracleWitnesses.size());
        std::printf("%-10s oracle : %zu witness(es), %llu safe accesses "
                    "checked, %llu conflict-tracking skips\n",
                    name.c_str(), r.oracleWitnesses.size(),
                    (unsigned long long)r.oracleSafeChecked,
                    (unsigned long long)r.oracleSafeSkips);
        for (const auto &w : r.oracleWitnesses)
            std::printf("%s\n", w.c_str());
    }
    return out;
}

void
mutateWorkload(const std::string &name, workloads::Scale scale,
               std::uint64_t seed, unsigned &caught, unsigned &total)
{
    bench::PreparedWorkload p = bench::prepare(name, scale);

    const std::vector<FlipSite> sites = unsafeAccesses(p.wl.module);
    if (sites.empty())
        return;
    std::mt19937_64 rng(seed);
    const FlipSite s =
        sites[std::size_t(rng() % std::uint64_t(sites.size()))];
    tir::Instr &ins = p.wl.module.functions[std::size_t(s.fn)]
                          .blocks[std::size_t(s.block)]
                          .instrs[std::size_t(s.instr)];
    ins.safe = true;
    ++total;

    const compiler::LintReport lint = compiler::lintRaces(p.wl.module);
    bool hit_static = false;
    for (const auto &d : lint.diagnostics) {
        if (d.fn == s.fn && d.block == s.block && d.instr == s.instr)
            hit_static = true;
    }

    core::SystemOptions opts;
    opts.mechanism = core::Mechanism::Full;
    opts.hintOracle = true;
    const sim::RunResult r =
        core::simulate(opts, p.wl.module, p.wl.threads);
    const bool hit_oracle = !r.oracleWitnesses.empty();

    const char *verdict = hit_static && hit_oracle ? "both"
                          : hit_static             ? "static"
                          : hit_oracle             ? "oracle"
                                                   : "MISSED";
    if (hit_static || hit_oracle)
        ++caught;
    std::printf("%-10s mutate : flipped %s:%d:%d -> caught by %s\n",
                name.c_str(),
                p.wl.module.functions[std::size_t(s.fn)].name.c_str(),
                s.block, s.instr, verdict);
}

} // namespace

static int
run(int argc, char **argv)
{
    bench::BenchArgs args;
    args.scale = workloads::Scale::Tiny;
    bool static_only = false;
    bool mutate = false;

    using namespace bench::flags;
    const auto own = [&](const std::string &a, bench::FlagValues &) {
        if (a == "--static-only")
            static_only = true;
        else if (a == "--mutate")
            mutate = true;
        else
            return false;
        return true;
    };
    args.parse(argc, argv, Workload | Scale | Seed | List, {ownHelp, own});
    if (args.list) {
        for (const auto &n : workloads::allNames())
            std::printf("%s\n", n.c_str());
        return 0;
    }
    const std::vector<std::string> names = args.names();

    if (mutate) {
        unsigned caught = 0, total = 0;
        for (const auto &n : names)
            mutateWorkload(n, args.scale, args.seed, caught, total);
        std::printf("\nmutation: %u/%u corrupted hints caught\n", caught,
                    total);
        return 0;
    }

    unsigned diags = 0, witnesses = 0;
    for (const auto &n : names) {
        const LintOutcome o = lintWorkload(n, args.scale, !static_only);
        diags += o.staticDiags;
        witnesses += o.oracleWitnesses;
    }
    std::printf("\nlint: %u static diagnostic(s), %u oracle witness(es) "
                "across %zu workload(s)\n",
                diags, witnesses, names.size());
    return diags + witnesses == 0 ? 0 : 1;
}

int
main(int argc, char **argv)
{
    return hintm::runMain(argc, argv, run);
}

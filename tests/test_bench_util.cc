/**
 * @file
 * Tests for the benchmark-harness plumbing: argument parsing, reduction
 * and geomean math, the prepare/simulate round trip, the host job count,
 * the RunResult encoding, and that a harness run leaves no files in the
 * user's cache directory.
 */

#include <cstdlib>
#include <filesystem>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "../bench/bench_util.hh"
#include "../bench/result_store.hh"
#include "common/logging.hh"

using namespace hintm;
using bench::BenchArgs;

namespace
{

/** Every shared flag bit. */
constexpr unsigned allFlags = (bench::flags::List << 1) - 1;

/** Parse @p argv (after a program name) into @p a, honouring the shared
 * flags in @p shared. */
BenchArgs
parse(std::vector<const char *> argv, unsigned shared = bench::flags::harness,
      BenchArgs a = {})
{
    argv.insert(argv.begin(), "bench");
    a.parse(int(argv.size()), const_cast<char **>(argv.data()), shared);
    return a;
}

/** The fatal: line @p f ends with, or "" when it returns. */
template <typename F>
std::string
fatalOf(F &&f)
{
    try {
        f();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

/** The spellings --help text @p usage lists: the first word of each
 * line that starts with a flag, split at '|'. */
std::set<std::string>
listed(const std::string &usage)
{
    std::set<std::string> out;
    std::istringstream is(usage);
    for (std::string line; std::getline(is, line);) {
        if (line.rfind("  -", 0) != 0)
            continue;
        std::istringstream words(line);
        std::string word;
        words >> word;
        for (std::size_t at = 0, bar; at != std::string::npos;
             at = bar == std::string::npos ? bar : bar + 1) {
            bar = word.find('|', at);
            out.insert(word.substr(at, bar - at));
        }
    }
    return out;
}

std::string
unknown(const std::string &flag)
{
    return "fatal: unknown option " + flag + " (see --help)";
}

} // namespace

TEST(BenchArgs, Defaults)
{
    const BenchArgs a = parse({});
    EXPECT_EQ(a.scale, workloads::Scale::Small);
    EXPECT_FALSE(a.preserve);
    EXPECT_EQ(a.names(), workloads::allNames());
}

TEST(BenchArgs, ExplicitScaleAndWorkloads)
{
    const BenchArgs a =
        parse({"--large", "--workload", "genome", "--workload", "yada",
               "--preserve"});
    EXPECT_EQ(a.scale, workloads::Scale::Large);
    EXPECT_TRUE(a.preserve);
    EXPECT_EQ(a.names(),
              (std::vector<std::string>{"genome", "yada"}));
}

TEST(BenchArgs, UnknownArgumentFatals)
{
    EXPECT_THROW(parse({"--bogus"}), std::runtime_error);
}

TEST(BenchArgs, MissingValueSaysSo)
{
    // The flag exists; a trailing one without its value must not read
    // as an unknown option.
    for (const char *flag : {"--jobs", "--workload", "--scale", "--htm",
                             "--threads", "--seed", "--retries",
                             "--buffer"}) {
        EXPECT_EQ(fatalOf([&] { parse({"--tiny", flag}, allFlags); }),
                  std::string("fatal: ") + flag + " needs a value");
    }
}

TEST(BenchArgs, JsonFlagIsUnknown)
{
    // perfbench is the one timer: a harness command line that still asks
    // for a wall-time report stops at once instead of running untimed.
    EXPECT_EQ(fatalOf([] { parse({"--json", "timings.json", "--tiny"}); }),
              unknown("--json"));
}

TEST(BenchArgs, EachSharedFlagOnlyInsideItsSet)
{
    // Every spelling of every shared flag, with a valid value.
    const struct
    {
        unsigned bit;
        std::vector<const char *> argv;
    } cases[] = {
        {bench::flags::Scale, {"--tiny"}},
        {bench::flags::Scale, {"--small"}},
        {bench::flags::Scale, {"--large"}},
        {bench::flags::Scale, {"--scale", "tiny"}},
        {bench::flags::Workloads, {"--workload", "kmeans"}},
        {bench::flags::Workload, {"--workload", "kmeans"}},
        {bench::flags::Htm, {"--htm", "l1tm"}},
        {bench::flags::Threads, {"--threads", "4"}},
        {bench::flags::Seed, {"--seed", "7"}},
        {bench::flags::Retries, {"--retries", "2"}},
        {bench::flags::Buffer, {"--buffer", "16"}},
        {bench::flags::Preserve, {"--preserve"}},
        {bench::flags::Preabort, {"--preabort"}},
        {bench::flags::Jobs, {"--jobs", "2"}},
        {bench::flags::Lint, {"--lint"}},
        {bench::flags::Journal, {"--journal"}},
        {bench::flags::Metrics, {"--metrics"}},
        {bench::flags::Perfetto, {"--perfetto", "t.json"}},
        {bench::flags::Perfetto, {"--perfetto"}},
        {bench::flags::StatsJson, {"--stats-json", "s.json"}},
        {bench::flags::StatsJson, {"--stats-json"}},
        {bench::flags::List, {"--list"}},
    };
    unsigned covered = 0;
    for (const auto &c : cases) {
        const std::string flag = c.argv.front();
        SCOPED_TRACE(flag);
        covered |= c.bit;
        EXPECT_EQ(fatalOf([&] { parse(c.argv, c.bit); }), "");
        // --workload is one flag with two bits: outside both it is
        // unknown.
        const unsigned others =
            allFlags & ~c.bit &
            ~(c.bit & (bench::flags::Workloads | bench::flags::Workload)
                  ? bench::flags::Workloads | bench::flags::Workload
                  : 0u);
        EXPECT_EQ(fatalOf([&] { parse(c.argv, others); }), unknown(flag));

        // --help lists the flag exactly where it is taken.
        const BenchArgs a;
        EXPECT_EQ(listed(a.usage("bench", c.bit)).count(flag), 1u);
        EXPECT_EQ(listed(a.usage("bench", others)).count(flag), 0u);
    }
    EXPECT_EQ(covered, allFlags);
    // --help and -h are every binary's.
    EXPECT_EQ(listed(BenchArgs().usage("bench", 0)),
              (std::set<std::string>{"-h", "--help"}));
}

TEST(BenchArgs, SharedValuesLandInTheirFields)
{
    const BenchArgs a =
        parse({"--htm", "l1tm", "--threads", "4", "--seed", "7",
               "--retries", "2", "--buffer", "16", "--preabort", "--jobs",
               "3", "--lint", "--metrics", "--perfetto", "--stats-json",
               "s.json", "--list"},
              allFlags);
    EXPECT_EQ(a.htmKind, htm::HtmKind::L1TM);
    EXPECT_EQ(a.threads, 4u);
    EXPECT_EQ(a.seed, 7u);
    EXPECT_EQ(a.retries, 2u);
    EXPECT_EQ(a.bufferEntries, 16u);
    EXPECT_TRUE(a.preAbort);
    EXPECT_EQ(a.jobs, 3u);
    EXPECT_TRUE(a.lint);
    EXPECT_TRUE(a.metrics);
    EXPECT_TRUE(a.journal); // --perfetto implies it
    EXPECT_EQ(a.perfettoPath, "perfetto_trace.json");
    EXPECT_EQ(a.statsJsonPath, "s.json");
    EXPECT_TRUE(a.list);
}

TEST(BenchArgs, FourScaleSpellings)
{
    const std::pair<std::vector<const char *>, workloads::Scale> cases[] = {
        {{"--tiny"}, workloads::Scale::Tiny},
        {{"--small"}, workloads::Scale::Small},
        {{"--large"}, workloads::Scale::Large},
        {{"--scale", "tiny"}, workloads::Scale::Tiny},
        {{"--scale", "small"}, workloads::Scale::Small},
        {{"--scale", "large"}, workloads::Scale::Large},
        {{"--large", "--tiny"}, workloads::Scale::Tiny}, // last one wins
    };
    for (const auto &[argv, scale] : cases) {
        BenchArgs preset;
        preset.scale = workloads::Scale::Large;
        EXPECT_EQ(parse(argv, bench::flags::Scale, preset).scale, scale);
    }
    EXPECT_EQ(fatalOf([] { parse({"--scale", "huge"}); }),
              "fatal: --scale expects tiny, small or large, got 'huge'");
    EXPECT_EQ(fatalOf([] { parse({"--htm", "p9"}, bench::flags::Htm); }),
              "fatal: --htm expects p8, p8s, l1tm or infcap, got 'p9'");
}

TEST(BenchArgs, PresetSurvivesAnAbsentFlag)
{
    BenchArgs preset;
    preset.scale = workloads::Scale::Large;
    preset.only = {"genome", "intruder"};
    preset.retries = 2;
    const BenchArgs kept = parse({"--jobs", "2"}, allFlags, preset);
    EXPECT_EQ(kept.scale, workloads::Scale::Large);
    EXPECT_EQ(kept.names(), preset.only);
    EXPECT_EQ(kept.retries, 2u);
    EXPECT_EQ(kept.options().maxRetries, 2u);
    // The first --workload replaces the preset list; later ones add to
    // it where the flag repeats.
    EXPECT_EQ(parse({"--workload", "yada"}, bench::flags::Workloads, preset)
                  .only,
              std::vector<std::string>{"yada"});
    EXPECT_EQ(parse({"--workload", "yada", "--workload", "kmeans"},
                    bench::flags::Workloads, preset)
                  .only,
              (std::vector<std::string>{"yada", "kmeans"}));
    // --help shows the preset as the default.
    const std::string help =
        preset.usage("bench", bench::flags::Workloads | bench::flags::Scale |
                                  bench::flags::Retries);
    EXPECT_NE(help.find("(default genome intruder)"), std::string::npos);
    EXPECT_NE(help.find("(default large)"), std::string::npos);
    EXPECT_NE(help.find("(default 2)"), std::string::npos);
}

TEST(BenchArgs, OneWorkloadToolsTakeOneWorkload)
{
    BenchArgs preset;
    preset.only = {"kmeans"};
    EXPECT_EQ(parse({"--workload", "intruder"}, bench::flags::Workload,
                    preset)
                  .only,
              std::vector<std::string>{"intruder"});
    EXPECT_EQ(fatalOf([&] {
                  parse({"--workload", "intruder", "--workload", "yada"},
                        bench::flags::Workload, preset);
              }),
              "fatal: bench runs one workload: --workload 'intruder' and "
              "then 'yada'");
}

TEST(BenchArgs, ThreadsRejectASecondSuffix)
{
    const unsigned set = bench::flags::Workload | bench::flags::Threads;
    EXPECT_EQ(fatalOf([&] {
                  parse({"--workload", "kmeans@4", "--threads", "8"}, set);
              }),
              "fatal: workload 'kmeans@4' names its own thread count: drop "
              "the suffix or --threads 8");
    // --threads 0 keeps the workload's own count, suffix or not.
    EXPECT_EQ(parse({"--workload", "kmeans@4", "--threads", "0"}, set).only,
              std::vector<std::string>{"kmeans@4"});
    EXPECT_EQ(parse({"--threads", "8", "--workload", "kmeans"}, set).threads,
              8u);
}

TEST(BenchArgs, OwnFlagsGoToTheBinarysHandler)
{
    std::vector<std::string> seen;
    const bench::OwnFlags own{
        "  --top N             top sites\n",
        [&](const std::string &flag, bench::FlagValues &v) {
            if (flag == "--top")
                seen.push_back(flag + "=" + v.next());
            else if (flag == "--json")
                seen.push_back(flag + "=" + v.next("stdout"));
            else
                return false;
            return true;
        }};
    const auto run = [&](std::vector<const char *> argv) {
        argv.insert(argv.begin(), "tool");
        BenchArgs a;
        a.parse(int(argv.size()), const_cast<char **>(argv.data()),
                bench::flags::Jobs, own);
        return a;
    };
    EXPECT_EQ(run({"--top", "3", "--jobs", "2", "--json", "--top", "4",
                   "--json", "r.json"})
                  .jobs,
              2u);
    EXPECT_EQ(seen, (std::vector<std::string>{"--top=3", "--json=stdout",
                                              "--top=4", "--json=r.json"}));
    // The same wordings as the shared flags: a missing value, and a flag
    // neither side takes. A shared flag outside the set never reaches
    // the handler.
    EXPECT_EQ(fatalOf([&] { run({"--top"}); }),
              "fatal: --top needs a value");
    EXPECT_EQ(fatalOf([&] { run({"--bogus"}); }), unknown("--bogus"));
    EXPECT_EQ(fatalOf([&] { run({"--seed", "1"}); }), unknown("--seed"));
    EXPECT_NE(BenchArgs().usage("tool", bench::flags::Jobs, own)
                  .find("  --top N"),
              std::string::npos);
}

TEST(BenchArgs, OptionsApplyTheRunFlagsOverABase)
{
    // Defaults are SystemOptions' own.
    const core::SystemOptions fresh;
    const core::SystemOptions d = BenchArgs().options();
    EXPECT_EQ(d.label(), fresh.label());
    EXPECT_EQ(d.seed, fresh.seed);
    EXPECT_EQ(d.maxRetries, fresh.maxRetries);
    EXPECT_EQ(d.bufferEntries, fresh.bufferEntries);
    EXPECT_EQ(d.preAbortHandler, fresh.preAbortHandler);

    core::SystemOptions base;
    base.numCores = 4;
    base.mechanism = core::Mechanism::Full;
    const core::SystemOptions o =
        parse({"--htm", "p8s", "--seed", "9", "--retries", "1", "--buffer",
               "8", "--preabort", "--preserve", "--journal"},
              allFlags)
            .options(base);
    EXPECT_EQ(o.htmKind, htm::HtmKind::P8S);
    EXPECT_EQ(o.seed, 9u);
    EXPECT_EQ(o.maxRetries, 1u);
    EXPECT_EQ(o.bufferEntries, 8u);
    EXPECT_TRUE(o.preAbortHandler);
    EXPECT_TRUE(o.preserveReadOnly);
    EXPECT_TRUE(o.journal);
    EXPECT_EQ(o.numCores, 4u); // the base's own fields stay
    EXPECT_EQ(o.mechanism, core::Mechanism::Full);
}

TEST(BenchArgs, JobsFlag)
{
    EXPECT_EQ(parse({}).jobs, 0u); // 0 = hardware concurrency
    EXPECT_EQ(parse({"--jobs", "4"}).jobs, 4u);
    EXPECT_EQ(parse({"--jobs", "1"}).jobs, 1u);
    // No wrap-around to a huge pool, no silent fallback to the default.
    EXPECT_THROW(parse({"--jobs", "-1"}), std::runtime_error);
    EXPECT_THROW(parse({"--jobs", "abc"}), std::runtime_error);
}

TEST(BenchArgs, ObservationFlagsApplyOnlyThroughOptions)
{
    // Parsing must not flip process-wide state: configs built from
    // options() journal and collect metrics, a fresh one does neither.
    const BenchArgs a = parse({"--journal", "--metrics"});
    EXPECT_TRUE(a.options().journal);
    EXPECT_TRUE(a.options().metrics);
    const core::SystemOptions fresh;
    EXPECT_FALSE(fresh.journal);
    EXPECT_FALSE(fresh.metrics);
}

TEST(BenchArgs, PreserveAppliesThroughOptions)
{
    // Every harness starts its configs from options(), so --preserve
    // reaches each of them.
    EXPECT_TRUE(parse({"--preserve"}).options().preserveReadOnly);
    EXPECT_FALSE(parse({}).options().preserveReadOnly);
}

TEST(BenchMath, Reduction)
{
    EXPECT_DOUBLE_EQ(bench::reduction(100, 40), 0.6);
    EXPECT_DOUBLE_EQ(bench::reduction(100, 0), 1.0);
    EXPECT_DOUBLE_EQ(bench::reduction(0, 5), 0.0); // no baseline
    // Regressions render as negative reductions, not a 0% clamp.
    EXPECT_DOUBLE_EQ(bench::reduction(10, 20), -1.0);
    EXPECT_DOUBLE_EQ(bench::reduction(100, 150), -0.5);
}

TEST(BenchMath, Geomean)
{
    EXPECT_DOUBLE_EQ(bench::geomean({2.0, 8.0}), 4.0);
    EXPECT_DOUBLE_EQ(bench::geomean({}), 0.0);
    EXPECT_NEAR(bench::geomean({1.0, 1.0, 8.0}), 2.0, 1e-9);
    // Non-positive entries are ignored rather than poisoning the mean.
    EXPECT_DOUBLE_EQ(bench::geomean({0.0, 4.0}), 4.0);
}

TEST(BenchMath, SpeedupFormat)
{
    EXPECT_EQ(bench::speedupStr(2.984), "2.98x");
    EXPECT_EQ(bench::speedupStr(1.0), "1.00x");
}

TEST(BenchPrepare, CompilesAndRuns)
{
    const bench::PreparedWorkload p =
        bench::prepare("kmeans", workloads::Scale::Tiny);
    EXPECT_EQ(p.wl.name, "kmeans");
    EXPECT_GT(p.compileReport.totalLoads, 0u);

    core::SystemOptions opts;
    const sim::RunResult r = core::simulate(opts, p.wl.module, p.wl.threads);
    EXPECT_GT(r.committedTxs, 0u);
}

TEST(EffectiveJobs, PassesThroughAndClampsTheDefault)
{
    EXPECT_EQ(bench::effectiveJobs(5), 5u);
    EXPECT_EQ(bench::effectiveJobs(1), 1u);
    const unsigned d = bench::effectiveJobs(0);
    EXPECT_GE(d, 1u);
    EXPECT_LE(d, 64u);
}

TEST(BenchRun, LeavesTheCacheHomeEmpty)
{
    // Every run simulates: a harness parses its flags and runs its
    // matrix without writing under $XDG_CACHE_HOME (or $HOME/.cache).
    namespace fs = std::filesystem;
    char tmpl[] = "/tmp/hintm_cache_home_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    const std::string home = tmpl;
    const char *old_xdg = std::getenv("XDG_CACHE_HOME");
    const char *old_home = std::getenv("HOME");
    const std::string saved_xdg = old_xdg ? old_xdg : "";
    const std::string saved_home = old_home ? old_home : "";
    setenv("XDG_CACHE_HOME", (home + "/.cache").c_str(), 1);
    setenv("HOME", home.c_str(), 1);

    const BenchArgs a = parse({"--tiny", "--workload", "kmeans"});
    const bench::PreparedWorkload p = bench::prepare("kmeans", a.scale);
    core::SystemOptions full = a.options();
    full.mechanism = core::Mechanism::Full;
    const auto res = bench::runMatrix({{&p, a.options()}, {&p, full}}, 2);
    EXPECT_EQ(res.size(), 2u);
    EXPECT_TRUE(fs::is_empty(home)) << home << " is not empty";

    if (old_xdg)
        setenv("XDG_CACHE_HOME", saved_xdg.c_str(), 1);
    else
        unsetenv("XDG_CACHE_HOME");
    if (old_home)
        setenv("HOME", saved_home.c_str(), 1);
    else
        unsetenv("HOME");
    fs::remove_all(home);
}

TEST(EncodeRunResult, CoversEveryCollectedSection)
{
    // The digest table and the equivalence properties compare runs by
    // these bytes, so a change in any collected section must reach them.
    const bench::PreparedWorkload p =
        bench::prepare("kmeans", workloads::Scale::Tiny);
    core::SystemOptions opts;
    opts.mechanism = core::Mechanism::Full;
    opts.collectTxSizes = true;
    opts.collectRawStats = true;
    opts.profileSharing = true;
    const sim::RunResult r = core::simulate(opts, p.wl.module, p.wl.threads);
    const std::string bytes = bench::encodeRunResult(r);
    EXPECT_EQ(bench::encodeRunResult(r), bytes);
    ASSERT_FALSE(r.rawStats.empty());
    ASSERT_FALSE(r.finalGlobals.empty());
    ASSERT_GT(r.txSizeAll.count(), 0u);
    ASSERT_GT(r.blockSharing.totalRegions, 0u);

    const std::vector<void (*)(sim::RunResult &)> edits = {
        [](sim::RunResult &x) { ++x.cycles; },
        [](sim::RunResult &x) { ++x.htm.aborts[0]; },
        [](sim::RunResult &x) { ++x.txReadsDynSafe; },
        [](sim::RunResult &x) { x.txSizeAll.sample(1); },
        [](sim::RunResult &x) { ++x.blockSharing.txReads; },
        [](sim::RunResult &x) { ++x.pageSharing.safeRegions; },
        [](sim::RunResult &x) { x.finalGlobals.begin()->second.push_back(0); },
        [](sim::RunResult &x) { x.rawStats += ' '; },
        [](sim::RunResult &x) { x.oracleWitnesses.push_back("w"); },
        [](sim::RunResult &x) { ++x.oracleSafeSkips; },
    };
    for (std::size_t i = 0; i < edits.size(); ++i) {
        sim::RunResult e = r;
        edits[i](e);
        EXPECT_NE(bench::encodeRunResult(e), bytes) << "edit " << i;
    }
}

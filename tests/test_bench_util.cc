/**
 * @file
 * Tests for the benchmark-harness plumbing: argument parsing, reduction
 * and geomean math, the prepare/simulate round trip, the host job count,
 * the RunResult encoding, and that a harness run leaves no files in the
 * user's cache directory.
 */

#include <cstdlib>
#include <filesystem>

#include <gtest/gtest.h>

#include "../bench/bench_util.hh"
#include "../bench/result_store.hh"
#include "common/logging.hh"

using namespace hintm;
using bench::BenchArgs;

namespace
{

BenchArgs
parse(std::vector<const char *> argv)
{
    argv.insert(argv.begin(), "bench");
    return BenchArgs::parse(int(argv.size()),
                            const_cast<char **>(argv.data()));
}

} // namespace

TEST(BenchArgs, Defaults)
{
    const BenchArgs a = parse({});
    EXPECT_EQ(a.scale, workloads::Scale::Small);
    EXPECT_FALSE(a.scaleExplicit);
    EXPECT_FALSE(a.preserve);
    EXPECT_EQ(a.names(), workloads::allNames());
}

TEST(BenchArgs, ExplicitScaleAndWorkloads)
{
    const BenchArgs a =
        parse({"--large", "--workload", "genome", "--workload", "yada",
               "--preserve"});
    EXPECT_EQ(a.scale, workloads::Scale::Large);
    EXPECT_TRUE(a.scaleExplicit);
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
    // as an unknown argument.
    for (const char *flag : {"--jobs", "--workload"}) {
        try {
            parse({"--tiny", flag});
            ADD_FAILURE() << flag << " without a value was accepted";
        } catch (const FatalError &e) {
            EXPECT_EQ(std::string(e.what()),
                      std::string("fatal: ") + flag + " needs a value");
        }
    }
}

TEST(BenchArgs, JsonFlagIsUnknown)
{
    // perfbench is the one timer: a harness command line that still asks
    // for a wall-time report stops at once instead of running untimed.
    try {
        parse({"--json", "timings.json", "--tiny"});
        ADD_FAILURE() << "--json was accepted";
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()), "fatal: unknown argument --json");
    }
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

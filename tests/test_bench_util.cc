/**
 * @file
 * Tests for the benchmark-harness plumbing: argument parsing, reduction
 * and geomean math, the prepare/run round trip, the matrix job-key
 * format, and the persistent on-disk result store (round trip,
 * corruption tolerance, runMatrix integration).
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "../bench/bench_util.hh"
#include "../bench/result_store.hh"

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

/** Fresh scratch directory for disk-cache tests. */
std::string
makeTempDir()
{
    char tmpl[] = "/tmp/hintm_cache_test_XXXXXX";
    const char *d = mkdtemp(tmpl);
    EXPECT_NE(d, nullptr);
    return d ? d : "";
}

/** The single .res entry under @p dir (empty when none). */
std::string
onlyEntry(const std::string &dir)
{
    namespace fs = std::filesystem;
    for (const auto &e : fs::recursive_directory_iterator(dir)) {
        if (e.is_regular_file() && e.path().extension() == ".res")
            return e.path().string();
    }
    return "";
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
    const BenchArgs a =
        parse({"--journal", "--metrics", "--no-disk-cache"});
    EXPECT_TRUE(a.options().journal);
    EXPECT_TRUE(a.options().metrics);
    const core::SystemOptions fresh;
    EXPECT_FALSE(fresh.journal);
    EXPECT_FALSE(fresh.metrics);
    bench::setDiskResultCache("", false);
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
    const sim::RunResult r = bench::run(p, opts);
    EXPECT_GT(r.committedTxs, 0u);
}

TEST(BenchArgs, CacheFlags)
{
    // --no-disk-cache everywhere: parse() wires the process-wide store,
    // and these parses must not point it at the user's real cache dir.
    BenchArgs a = parse({"--no-disk-cache"});
    EXPECT_TRUE(a.cacheDir.empty());
    EXPECT_TRUE(a.noDiskCache);
    EXPECT_FALSE(a.cacheClear);

    const std::string dir = makeTempDir();
    a = parse({"--cache-dir", dir.c_str(), "--no-disk-cache",
               "--cache-clear"});
    EXPECT_EQ(a.cacheDir, dir);
    EXPECT_TRUE(a.noDiskCache);
    EXPECT_TRUE(a.cacheClear);

    // Undo the process-wide side effect for the rest of the binary.
    bench::setDiskResultCache("", false);
    std::filesystem::remove_all(dir);
}

TEST(EffectiveJobs, PassesThroughAndClampsTheDefault)
{
    EXPECT_EQ(bench::effectiveJobs(5), 5u);
    EXPECT_EQ(bench::effectiveJobs(1), 1u);
    const unsigned d = bench::effectiveJobs(0);
    EXPECT_GE(d, 1u);
    EXPECT_LE(d, 64u);
}

TEST(JobKey, GoldenFormatIsStable)
{
    const bench::PreparedWorkload p =
        bench::prepare("kmeans", workloads::Scale::Tiny);
    const core::SystemOptions o; // paper defaults
    const bench::MatrixJob job{&p, o};

    // The module fingerprint is recomputed independently so the golden
    // string stays valid when workload content evolves; everything else
    // is spelled out verbatim. Changing the key format invalidates every
    // persisted cache entry — this test makes that a deliberate act.
    const std::string text = p.wl.module.print();
    char fp[20];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(
                      bench::fnv1a(text.data(), text.size())));
    std::ostringstream expect;
    expect << "kmeans|0|" << p.wl.threads << '|' << fp
           << "|0|0|0000|8x1|1|000|64|1024|8|0000|65536|1|24";
    EXPECT_EQ(bench::matrixJobKey(job), expect.str());
}

TEST(JobKey, TracksInPlaceModuleMutation)
{
    // hintm_lint --mutate flips hint bits on the same module object and
    // reruns; the key must change with the content, not the pointer.
    bench::PreparedWorkload p =
        bench::prepare("kmeans", workloads::Scale::Tiny);
    const core::SystemOptions o;
    const bench::MatrixJob job{&p, o};
    const std::string before = bench::matrixJobKey(job);

    for (auto &fn : p.wl.module.functions) {
        for (auto &bb : fn.blocks) {
            for (auto &in : bb.instrs) {
                if (in.op == tir::Opcode::Load && !in.safe) {
                    in.safe = true;
                    const std::string after = bench::matrixJobKey(job);
                    EXPECT_NE(before, after);
                    in.safe = false;
                    EXPECT_EQ(before, bench::matrixJobKey(job));
                    return;
                }
            }
        }
    }
    FAIL() << "no unsafe load found to mutate";
}

TEST(ResultStore, EncodeDecodeRoundTrip)
{
    const bench::PreparedWorkload p =
        bench::prepare("kmeans", workloads::Scale::Tiny);
    core::SystemOptions opts;
    opts.mechanism = core::Mechanism::Full;
    opts.collectTxSizes = true;
    opts.collectRawStats = true;
    opts.profileSharing = true;
    const sim::RunResult r = bench::run(p, opts);

    const std::string payload = bench::encodeRunResult(r);
    sim::RunResult out;
    ASSERT_TRUE(bench::decodeRunResult(payload, out));
    EXPECT_EQ(out.cycles, r.cycles);
    EXPECT_EQ(out.committedTxs, r.committedTxs);
    EXPECT_EQ(out.rawStats, r.rawStats);
    EXPECT_EQ(bench::encodeRunResult(out), payload);

    // Truncations and trailing garbage are rejected, never misread.
    for (const std::size_t cut : {std::size_t(0), payload.size() / 2,
                                  payload.size() - 1}) {
        sim::RunResult bad;
        EXPECT_FALSE(
            bench::decodeRunResult(payload.substr(0, cut), bad));
    }
    sim::RunResult bad;
    EXPECT_FALSE(bench::decodeRunResult(payload + "x", bad));
}

TEST(ResultStore, LoadSurvivesCorruptionAndVersionSkew)
{
    const bench::PreparedWorkload p =
        bench::prepare("kmeans", workloads::Scale::Tiny);
    const sim::RunResult r = bench::run(p, {});
    const std::string dir = makeTempDir();

    const bench::ResultStore store(dir, 0x1234);
    sim::RunResult out;
    EXPECT_FALSE(store.load("some-key", out)); // absent = miss

    store.store("some-key", r);
    ASSERT_TRUE(store.load("some-key", out));
    EXPECT_EQ(bench::encodeRunResult(out), bench::encodeRunResult(r));
    EXPECT_FALSE(store.load("other-key", out));

    // A rebuilt binary (different content hash) must not see entries.
    const bench::ResultStore rebuilt(dir, 0x9999);
    EXPECT_FALSE(rebuilt.load("some-key", out));

    // Flip one payload byte: the checksum rejects the entry.
    const std::string path = onlyEntry(dir);
    ASSERT_FALSE(path.empty());
    std::string bytes;
    {
        std::ifstream is(path, std::ios::binary);
        std::ostringstream ss;
        ss << is.rdbuf();
        bytes = ss.str();
    }
    std::string flipped = bytes;
    flipped[flipped.size() - 12] ^= 0x40;
    std::ofstream(path, std::ios::binary) << flipped;
    EXPECT_FALSE(store.load("some-key", out));

    // Truncation reads as a miss too.
    std::ofstream(path, std::ios::binary)
        << bytes.substr(0, bytes.size() / 2);
    EXPECT_FALSE(store.load("some-key", out));

    // Restore the pristine entry, then --cache-clear semantics.
    std::ofstream(path, std::ios::binary) << bytes;
    ASSERT_TRUE(store.load("some-key", out));
    bench::ResultStore::clearDir(dir);
    EXPECT_FALSE(store.load("some-key", out));

    std::filesystem::remove_all(dir);
}

TEST(ResultStore, RunMatrixServesSecondRunFromDisk)
{
    const bench::PreparedWorkload p =
        bench::prepare("kmeans", workloads::Scale::Tiny);
    core::SystemOptions a, b;
    a.htmKind = htm::HtmKind::P8;
    b.htmKind = htm::HtmKind::P8S;
    const std::string dir = makeTempDir();

    bench::setDiskResultCache(dir, true);
    bench::clearMatrixCache();
    const auto first = bench::runMatrix({{&p, a}, {&p, b}}, 2);
    auto st = bench::matrixCacheStats();
    EXPECT_EQ(st.misses, 2u);
    EXPECT_EQ(st.diskHits, 0u);
    EXPECT_EQ(st.diskStores, 2u);

    // Drop the in-memory cache (a "new process"): disk serves both.
    bench::clearMatrixCache();
    const auto second = bench::runMatrix({{&p, a}, {&p, b}}, 2);
    st = bench::matrixCacheStats();
    EXPECT_EQ(st.misses, 0u);
    EXPECT_EQ(st.diskHits, 2u);
    EXPECT_EQ(st.diskStores, 0u);
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(bench::encodeRunResult(second[i]),
                  bench::encodeRunResult(first[i]));
    }

    // Journal-carrying jobs never touch the store.
    core::SystemOptions j = a;
    j.journal = true;
    bench::clearMatrixCache();
    (void)bench::runMatrix({{&p, j}}, 1);
    st = bench::matrixCacheStats();
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.diskStores, 0u);
    bench::clearMatrixCache();
    (void)bench::runMatrix({{&p, j}}, 1);
    st = bench::matrixCacheStats();
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.diskHits, 0u);

    bench::setDiskResultCache("", false);
    bench::clearMatrixCache();
    std::filesystem::remove_all(dir);
}

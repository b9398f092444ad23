#include <functional>
#include <set>

#include <gtest/gtest.h>

#include "measure.hh"

using namespace hintm;
using perfbench::tailPercentile;

namespace
{

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = n; i > 0; --i)
        v.push_back(double(i)); // descending: the helpers must sort
    return v;
}

} // namespace

TEST(TailPercentile, UndefinedBelowTwentySamples)
{
    EXPECT_FALSE(tailPercentile({}).has_value());
    EXPECT_FALSE(tailPercentile(ramp(19)).has_value());
    const auto t = tailPercentile(ramp(20));
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->pct, 50.0);
    EXPECT_EQ(t->value, 10.0);
}

TEST(TailPercentile, PicksHighestPercentileWithTenBeyond)
{
    // 100 samples: p90 has exactly 10 beyond it, p95 only 5.
    auto t = tailPercentile(ramp(100));
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->pct, 90.0);
    EXPECT_EQ(t->value, 90.0);

    // 1000 samples: p99 has 10 beyond it.
    t = tailPercentile(ramp(1000));
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->pct, 99.0);
    EXPECT_EQ(t->value, 990.0);

    // 99 samples: p90 is rank 90, leaving 9 — fall back to p75.
    t = tailPercentile(ramp(99));
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->pct, 75.0);
    EXPECT_EQ(t->value, 75.0);
}

TEST(TailPercentile, HonoursTheBeyondCount)
{
    const auto t = tailPercentile(ramp(100), 50);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->pct, 50.0);
    EXPECT_FALSE(tailPercentile(ramp(100), 51).has_value());
}

TEST(Quantile, NearestRank)
{
    EXPECT_EQ(perfbench::median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(perfbench::quantile(ramp(4), 0.75), 3.0);
    EXPECT_EQ(perfbench::quantile(ramp(4), 1.0), 4.0);
    EXPECT_EQ(perfbench::quantile(ramp(4), 0.0), 1.0);
}

TEST(Quantile, InterquartileMean)
{
    EXPECT_EQ(perfbench::interquartileMean({5.0}), 5.0);
    EXPECT_EQ(perfbench::interquartileMean({3.0, 1.0, 2.0}), 2.0);
    // 8 samples: drop two at each end, average 3..6.
    EXPECT_EQ(perfbench::interquartileMean(ramp(8)), 4.5);
    EXPECT_EQ(perfbench::interquartileMean({1, 1, 1, 1, 100, -100}), 1.0);
}

TEST(Digest, EveryFieldMoves)
{
    sim::RunResult base;
    base.finalGlobals["g"] = {1, 2};
    const std::uint64_t d0 = perfbench::digest(base);

    using Mut = std::function<void(sim::RunResult &)>;
    std::vector<Mut> muts = {
        [](sim::RunResult &r) { r.cycles++; },
        [](sim::RunResult &r) { r.instructions++; },
        [](sim::RunResult &r) { r.htm.begins++; },
        [](sim::RunResult &r) { r.htm.commits++; },
        [](sim::RunResult &r) { r.htm.trackedAtCommit.sample(3); },
        [](sim::RunResult &r) { r.htm.signatureSpills++; },
        [](sim::RunResult &r) { r.htm.preAbortConversions++; },
        [](sim::RunResult &r) { r.txReadsStaticSafe++; },
        [](sim::RunResult &r) { r.txReadsDynSafe++; },
        [](sim::RunResult &r) { r.txReadsAnnotated++; },
        [](sim::RunResult &r) { r.txWritesStaticSafe++; },
        [](sim::RunResult &r) { r.txReadsUnsafe++; },
        [](sim::RunResult &r) { r.txWritesUnsafe++; },
        [](sim::RunResult &r) { r.txAccessesSuspended++; },
        [](sim::RunResult &r) { r.pageModeOverheadCycles++; },
        [](sim::RunResult &r) { r.fallbackRuns++; },
        [](sim::RunResult &r) { r.committedTxs++; },
        [](sim::RunResult &r) { r.safePages++; },
        [](sim::RunResult &r) { r.totalPages++; },
        [](sim::RunResult &r) { r.subscriptionViolations++; },
        [](sim::RunResult &r) { r.finalGlobals["g"][1] = 3; },
        [](sim::RunResult &r) { r.finalGlobals["g"].push_back(0); },
        [](sim::RunResult &r) { r.finalGlobals["h"] = {}; },
        [](sim::RunResult &r) {
            r.finalGlobals["h"] = r.finalGlobals["g"];
            r.finalGlobals.erase("g");
        },
    };
    for (unsigned a = 0; a < htm::numAbortReasons; ++a) {
        muts.push_back([a](sim::RunResult &r) { r.htm.aborts[a]++; });
        muts.push_back([a](sim::RunResult &r) { r.htm.cyclesLost[a]++; });
    }

    std::set<std::uint64_t> seen{d0};
    for (std::size_t i = 0; i < muts.size(); ++i) {
        sim::RunResult r = base;
        muts[i](r);
        const std::uint64_t d = perfbench::digest(r);
        EXPECT_NE(d, d0) << "mutation " << i << " left the digest unchanged";
        seen.insert(d);
    }
    // Distinct single-field changes give distinct digests as well.
    EXPECT_EQ(seen.size(), muts.size() + 1);
}

TEST(Digest, IgnoresObservationOnlyFields)
{
    sim::RunResult r;
    const std::uint64_t d0 = perfbench::digest(r);
    r.rawStats = "mem.reads 1\n";
    r.txSizeAll.sample(4);
    r.oracleSafeChecked = 7;
    r.oracleWitnesses.push_back("w");
    EXPECT_EQ(perfbench::digest(r), d0);
}

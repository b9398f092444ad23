/**
 * @file
 * Tests for the host-side parallel runner: parallelFor and the
 * determinism guarantees of bench::runMatrix (results must be
 * bit-identical regardless of how many host threads execute the
 * matrix).
 */

#include <atomic>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "../bench/bench_util.hh"
#include "../bench/result_store.hh"
#include "common/parallel.hh"

using namespace hintm;

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (const unsigned workers : {1u, 3u, 8u}) {
        std::vector<std::atomic<int>> hits(257);
        parallelFor(workers, hits.size(),
                    [&](std::size_t i) { ++hits[i]; });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(ParallelFor, ZeroItemsIsANoop)
{
    parallelFor(4, 0, [](std::size_t) { FAIL(); });
}

TEST(ParallelFor, OversizedWorkerRequestIsCappedAtItemCount)
{
    // 2^20 threads cannot be created; three items need at most three.
    std::vector<std::atomic<int>> hits(3);
    parallelFor(1u << 20, hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ExceptionPropagates)
{
    EXPECT_THROW(parallelFor(2, 8,
                             [](std::size_t i) {
                                 if (i == 5)
                                     throw std::runtime_error("bad");
                             }),
                 std::runtime_error);
}

namespace
{

std::vector<bench::MatrixJob>
sampleJobs(const bench::PreparedWorkload &p)
{
    std::vector<bench::MatrixJob> jobs;
    for (const core::Mechanism m :
         {core::Mechanism::Baseline, core::Mechanism::StaticOnly,
          core::Mechanism::DynamicOnly, core::Mechanism::Full}) {
        core::SystemOptions o;
        o.htmKind = htm::HtmKind::P8;
        o.mechanism = m;
        jobs.push_back({&p, o});
    }
    return jobs;
}

} // namespace

TEST(RunMatrix, DeterministicAcrossHostJobCounts)
{
    const bench::PreparedWorkload p =
        bench::prepare("kmeans", workloads::Scale::Tiny);
    const std::vector<bench::MatrixJob> jobs = sampleJobs(p);

    const auto seq = bench::runMatrix(jobs, 1);
    const auto par = bench::runMatrix(jobs, 8);

    ASSERT_EQ(seq.size(), jobs.size());
    ASSERT_EQ(par.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(seq[i].cycles, par[i].cycles) << "job " << i;
        EXPECT_EQ(seq[i].instructions, par[i].instructions) << "job "
                                                            << i;
        EXPECT_EQ(seq[i].committedTxs, par[i].committedTxs) << "job "
                                                            << i;
        EXPECT_EQ(seq[i].htm.totalAborts(), par[i].htm.totalAborts())
            << "job " << i;
    }
}

TEST(RunMatrix, ResultsArriveInSubmissionOrder)
{
    const bench::PreparedWorkload p =
        bench::prepare("kmeans", workloads::Scale::Tiny);
    std::vector<bench::MatrixJob> jobs = sampleJobs(p);

    const auto res = bench::runMatrix(jobs, 4);
    // Re-run each job individually and check slot alignment.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const sim::RunResult direct =
            core::simulate(jobs[i].opts, p.wl.module, p.wl.threads);
        EXPECT_EQ(res[i].cycles, direct.cycles) << "job " << i;
        EXPECT_EQ(res[i].htm.commits, direct.htm.commits) << "job " << i;
    }
}

TEST(RunMatrix, IdenticalJobsSimulateIndependently)
{
    const bench::PreparedWorkload p =
        bench::prepare("kmeans", workloads::Scale::Tiny);
    core::SystemOptions o;
    o.htmKind = htm::HtmKind::P8;
    o.journal = true;

    // Three identical jobs in one call: each is its own simulation (its
    // own journal, not a shared copy), and all three agree byte for byte.
    const auto res = bench::runMatrix({{&p, o}, {&p, o}, {&p, o}}, 2);
    ASSERT_EQ(res.size(), 3u);
    const std::string bytes = bench::encodeRunResult(res[0]);
    for (std::size_t i = 0; i < res.size(); ++i) {
        ASSERT_NE(res[i].journal, nullptr) << "job " << i;
        EXPECT_EQ(bench::encodeRunResult(res[i]), bytes) << "job " << i;
        for (std::size_t j = 0; j < i; ++j)
            EXPECT_NE(res[i].journal, res[j].journal) << i << " vs " << j;
    }
}

TEST(RunMatrix, ThreadsOverrideBuildsItsOwnModule)
{
    // A thread-count override builds "kmeans@2", a module of its own.
    const bench::PreparedWorkload p =
        bench::prepare("kmeans", workloads::Scale::Tiny);
    const bench::PreparedWorkload p2 =
        bench::prepare("kmeans", workloads::Scale::Tiny, 2);
    ASSERT_EQ(p2.wl.name, "kmeans@2");
    ASSERT_EQ(p2.wl.threads, 2u);
    core::SystemOptions o;
    o.htmKind = htm::HtmKind::P8;

    const auto res = bench::runMatrix({{&p, o}, {&p2, o}}, 2);
    EXPECT_NE(res[0].cycles, res[1].cycles);
}

/**
 * @file
 * End-to-end integration tests: small TxIR programs run on the full
 * machine (interpreter + VM + MESI hierarchy + HTM) under every HTM kind
 * and HinTM mechanism. The core invariant: whatever the abort/retry
 * history, committed results must equal the serial semantics.
 */

#include <gtest/gtest.h>

#include "core/hintm.hh"
#include "sim/machine.hh"
#include "tir/builder.hh"
#include "tir/interp.hh"
#include "tir/verifier.hh"

using namespace hintm;
using tir::FunctionBuilder;
using tir::Module;
using tir::Reg;

namespace
{

/** threads x iters transactional increments of one shared counter. */
Module
counterModule(int iters)
{
    Module m;
    m.globals.push_back({"counter", 8, 0});

    FunctionBuilder tf(m, "worker", 1);
    tf.forRangeI(0, iters, [&](Reg) {
        tf.txBegin();
        const Reg g = tf.globalAddr("counter");
        const Reg v = tf.load(g);
        tf.store(g, tf.addI(v, 1));
        tf.txEnd();
    });
    tf.retVoid();
    m.threadFunc = tf.finish();
    return m;
}

/** Each thread sums a private heap array inside TXs, writing the result
 * to its own slot of a shared result array. */
Module
privateSumModule(int n)
{
    Module m;
    m.globals.push_back({"results", 8 * 32, 0});

    FunctionBuilder tf(m, "worker", 1);
    const Reg tid = tf.param(0);
    const Reg buf = tf.mallocI(std::uint64_t(n) * 8);
    tf.forRangeI(0, n, [&](Reg i) {
        tf.store(tf.gep(buf, i, 8), tf.add(i, tid));
    });
    const Reg acc = tf.freshVar();
    tf.setI(acc, 0);
    tf.txBegin();
    tf.forRangeI(0, n, [&](Reg i) {
        tf.set(acc, tf.add(acc, tf.load(tf.gep(buf, i, 8))));
    });
    tf.store(tf.gep(tf.globalAddr("results"), tid, 8), acc);
    tf.txEnd();
    tf.freePtr(buf);
    tf.retVoid();
    m.threadFunc = tf.finish();
    return m;
}

} // namespace

TEST(SimVerify, ModulesVerify)
{
    Module m1 = counterModule(10);
    EXPECT_FALSE(tir::verify(m1).has_value())
        << *tir::verify(m1);
    Module m2 = privateSumModule(64);
    EXPECT_FALSE(tir::verify(m2).has_value()) << *tir::verify(m2);
}

class SimEndToEnd
    : public ::testing::TestWithParam<std::tuple<htm::HtmKind,
                                                 core::Mechanism>>
{
};

TEST_P(SimEndToEnd, CounterIsAtomic)
{
    const auto [kind, mech] = GetParam();
    Module m = counterModule(50);
    core::compileHints(m);

    core::SystemOptions opts;
    opts.htmKind = kind;
    opts.mechanism = mech;
    opts.validateSafeStores = true;
    const unsigned threads = 8;

    sim::RunResult res = core::simulate(opts, m, threads);
    EXPECT_GT(res.cycles, 0u);
    EXPECT_EQ(res.committedTxs, threads * 50u);
    // Atomicity: every increment must survive, whatever the abort mix.
    EXPECT_EQ(res.finalGlobals.at("counter")[0], 8 * 50);
    EXPECT_GT(res.htm.commits + res.fallbackRuns, 0u);
}

TEST_P(SimEndToEnd, PrivateSumsCommit)
{
    const auto [kind, mech] = GetParam();
    Module m = privateSumModule(128);
    core::compileHints(m);

    core::SystemOptions opts;
    opts.htmKind = kind;
    opts.mechanism = mech;
    opts.validateSafeStores = true;

    sim::RunResult res = core::simulate(opts, m, 8);
    EXPECT_EQ(res.committedTxs, 8u);
    // 128 words = 16 blocks: fits even P8, so no capacity aborts.
    EXPECT_EQ(res.htm.aborts[unsigned(htm::AbortReason::Capacity)], 0u);
    // Each thread's sum: sum_{i<128}(i + tid) = 8128 + 128*tid.
    const auto &results = res.finalGlobals.at("results");
    for (int t = 0; t < 8; ++t)
        EXPECT_EQ(results[std::size_t(t)], 8128 + 128 * t) << "tid " << t;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, SimEndToEnd,
    ::testing::Combine(
        ::testing::Values(htm::HtmKind::P8, htm::HtmKind::P8S,
                          htm::HtmKind::L1TM, htm::HtmKind::InfCap),
        ::testing::Values(core::Mechanism::Baseline,
                          core::Mechanism::StaticOnly,
                          core::Mechanism::DynamicOnly,
                          core::Mechanism::Full)));

TEST(SimCapacity, BigTxCapacityAbortsOnP8Only)
{
    // One TX touching 200 distinct blocks: overflows P8 (64), fits
    // InfCap.
    Module m;
    m.globals.push_back({"sink", 8, 0});
    FunctionBuilder tf(m, "worker", 1);
    const Reg buf = tf.mallocI(200 * 64);
    const Reg acc = tf.freshVar();
    tf.setI(acc, 0);
    tf.txBegin();
    tf.forRangeI(0, 200, [&](Reg i) {
        tf.set(acc, tf.add(acc, tf.load(tf.gep(buf, i, 64))));
    });
    tf.store(tf.globalAddr("sink"), acc);
    tf.txEnd();
    tf.freePtr(buf);
    tf.retVoid();
    m.threadFunc = tf.finish();

    core::SystemOptions p8;
    p8.htmKind = htm::HtmKind::P8;
    sim::RunResult r1 = core::simulate(p8, m, 1);
    EXPECT_GT(r1.htm.aborts[unsigned(htm::AbortReason::Capacity)], 0u);
    EXPECT_EQ(r1.fallbackRuns, 1u);
    EXPECT_EQ(r1.committedTxs, 1u);

    core::SystemOptions inf;
    inf.htmKind = htm::HtmKind::InfCap;
    sim::RunResult r2 = core::simulate(inf, m, 1);
    EXPECT_EQ(r2.htm.aborts[unsigned(htm::AbortReason::Capacity)], 0u);
    EXPECT_EQ(r2.fallbackRuns, 0u);
    EXPECT_EQ(r2.htm.commits, 1u);
}

TEST(SimCapacity, StaticHintsAvoidCapacityAbort)
{
    // Thread-private buffer read inside the TX: HinTM-st marks the loads
    // safe, so the footprint shrinks below P8 capacity.
    Module m = privateSumModule(1024); // 128 blocks > 64
    const auto report = core::compileHints(m);
    EXPECT_GT(report.safeLoads, 0u);

    core::SystemOptions base;
    base.htmKind = htm::HtmKind::P8;
    sim::RunResult r1 = core::simulate(base, m, 4);
    EXPECT_GT(r1.htm.aborts[unsigned(htm::AbortReason::Capacity)], 0u);

    core::SystemOptions st = base;
    st.mechanism = core::Mechanism::StaticOnly;
    sim::RunResult r2 = core::simulate(st, m, 4);
    EXPECT_EQ(r2.htm.aborts[unsigned(htm::AbortReason::Capacity)], 0u);
    EXPECT_LT(r2.cycles, r1.cycles);
}

// ---- sharing profiler ----------------------------------------------

TEST(SharingProfiler, TrackedTidsStayExact)
{
    sim::SharingProfiler p;
    p.record(63, 0x1000, AccessType::Read, true);
    p.record(3, 0x1000, AccessType::Read, true);

    const sim::SharingSummary s = p.blockSummary();
    EXPECT_EQ(s.totalRegions, 1u);
    EXPECT_EQ(s.safeRegions, 1u); // read-only sharing is safe
    EXPECT_EQ(s.txReadsToSafe, 2u);
}

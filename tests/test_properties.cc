/**
 * @file
 * Property-based tests: randomized sweeps asserting system invariants
 * rather than example-specific values.
 *
 *  - MESI single-writer invariant over random access traces;
 *  - page-FSM monotonicity (safety never resurrects) over random
 *    multi-thread access sequences;
 *  - signature completeness (no false negatives) over random sets;
 *  - end-to-end serializability: a shared counter workload commits
 *    exactly its increment count under every (seed, HTM, mechanism)
 *    combination;
 *  - determinism: identical (seed, config) runs produce identical cycle
 *    counts and final memory;
 *  - reference-path equivalence: each fast path matches the reference
 *    implementation it replaced, bit for bit;
 *  - observation only: switching any one observation sink on leaves
 *    every simulated result bit-identical.
 */

#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "../bench/result_store.hh"
#include "common/rng.hh"
#include "core/hintm.hh"
#include "htm/signature.hh"
#include "mem/mem_system.hh"
#include "tir/builder.hh"
#include "vm/page_table.hh"
#include "workloads/workloads.hh"

using namespace hintm;

namespace
{

/** Verify MESI invariants across all L1 copies of every block. */
void
checkMesi(mem::MemorySystem &ms, const std::vector<mem::ContextId> &ctxs,
          const std::vector<Addr> &blocks)
{
    for (const Addr b : blocks) {
        unsigned valid = 0, exclusive_like = 0;
        for (const auto c : ctxs) {
            const mem::CacheLine *line = ms.probeL1(c, b);
            if (!line)
                continue;
            ++valid;
            if (line->state == mem::CoherState::Modified ||
                line->state == mem::CoherState::Exclusive)
                ++exclusive_like;
        }
        // M/E implies sole ownership.
        if (exclusive_like > 0) {
            EXPECT_EQ(exclusive_like, 1u) << "block " << b;
            EXPECT_EQ(valid, 1u) << "block " << b;
        }
    }
}

} // namespace

class MesiProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(MesiProperty, SingleWriterInvariantHoldsUnderRandomTraffic)
{
    Rng rng(GetParam());
    mem::MemConfig cfg;
    cfg.l1SizeBytes = 2048;
    cfg.l1Assoc = 4;
    mem::MemorySystem ms(cfg, 4);
    std::vector<mem::ContextId> ctxs;
    for (unsigned i = 0; i < 4; ++i)
        ctxs.push_back(ms.addContext(i));

    std::vector<Addr> blocks;
    for (unsigned i = 0; i < 32; ++i)
        blocks.push_back(Addr(i) * 64);

    for (unsigned step = 0; step < 2000; ++step) {
        const auto c = ctxs[rng.below(ctxs.size())];
        const Addr b = blocks[rng.below(blocks.size())];
        const AccessType t =
            rng.chance(0.4) ? AccessType::Write : AccessType::Read;
        ms.access(c, b, t);
        if (step % 50 == 0)
            checkMesi(ms, ctxs, blocks);
    }
    checkMesi(ms, ctxs, blocks);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MesiProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

class PageFsmProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>>
{
};

TEST_P(PageFsmProperty, SafetyIsMonotonicallyRevoked)
{
    const auto [seed, preserve] = GetParam();
    Rng rng(seed);
    vm::PageTable pt(preserve);

    std::map<Addr, bool> was_unsafe;
    for (unsigned step = 0; step < 5000; ++step) {
        const ThreadId tid = ThreadId(rng.below(4));
        const Addr addr = rng.below(16) * pageBytes;
        const AccessType t =
            rng.chance(0.3) ? AccessType::Write : AccessType::Read;
        const auto tr = pt.touch(tid, addr, t);

        // A page that ever became unsafe must stay shared-rw forever.
        bool &unsafe = was_unsafe[pageNumber(addr)];
        if (unsafe) {
            EXPECT_EQ(tr.after, vm::PageState::SharedRw);
            EXPECT_FALSE(tr.becameUnsafe); // fires at most once
        }
        if (tr.becameUnsafe) {
            EXPECT_FALSE(unsafe);
            unsafe = true;
        }
        // becameUnsafe if and only if safe -> shared-rw edge.
        EXPECT_EQ(tr.becameUnsafe,
                  vm::pageStateSafe(tr.before) &&
                      tr.after == vm::PageState::SharedRw &&
                      tr.before != vm::PageState::Untouched);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPolicies, PageFsmProperty,
    ::testing::Combine(::testing::Values(11u, 22u, 33u, 44u),
                       ::testing::Bool()));

class SignatureProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(SignatureProperty, NeverForgetsAnInsertedAddress)
{
    const auto [bits, seed] = GetParam();
    Rng rng(seed);
    htm::Signature sig(bits, 2);
    std::vector<Addr> inserted;
    for (unsigned i = 0; i < 500; ++i) {
        const Addr a = blockAlign(rng.below(1 << 24));
        sig.insert(a);
        inserted.push_back(a);
        // Every inserted address still tests positive.
        for (unsigned k = 0; k < 5; ++k) {
            const Addr probe = inserted[rng.below(inserted.size())];
            EXPECT_TRUE(sig.test(probe));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndSeeds, SignatureProperty,
    ::testing::Combine(::testing::Values(128u, 1024u, 4096u),
                       ::testing::Values(7u, 8u)));

namespace
{

tir::Module
counterModule(int iters)
{
    tir::Module m;
    m.globals.push_back({"counter", 8, 0});
    tir::FunctionBuilder tf(m, "worker", 1);
    tf.forRangeI(0, iters, [&](tir::Reg) {
        tf.txBegin();
        const tir::Reg g = tf.globalAddr("counter");
        tf.store(g, tf.addI(tf.load(g), 1));
        tf.txEnd();
    });
    tf.retVoid();
    m.threadFunc = tf.finish();
    return m;
}

} // namespace

class SerializabilityProperty
    : public ::testing::TestWithParam<
          std::tuple<unsigned, htm::HtmKind, core::Mechanism>>
{
};

TEST_P(SerializabilityProperty, CounterNeverLosesIncrements)
{
    const auto [seed, kind, mech] = GetParam();
    tir::Module m = counterModule(40);
    core::compileHints(m);

    core::SystemOptions opts;
    opts.htmKind = kind;
    opts.mechanism = mech;
    opts.seed = seed;
    opts.validateSafeStores = true;
    const sim::RunResult r = core::simulate(opts, m, 8);
    EXPECT_EQ(r.finalGlobals.at("counter")[0], 8 * 40);
    EXPECT_EQ(r.committedTxs, 8u * 40u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SerializabilityProperty,
    ::testing::Combine(
        ::testing::Values(101u, 202u, 303u),
        ::testing::Values(htm::HtmKind::P8, htm::HtmKind::P8S,
                          htm::HtmKind::L1TM),
        ::testing::Values(core::Mechanism::Baseline,
                          core::Mechanism::Full)));

class DeterminismProperty : public ::testing::TestWithParam<std::string>
{
};

TEST_P(DeterminismProperty, IdenticalSeedsProduceIdenticalRuns)
{
    workloads::Workload w1 =
        workloads::byName(GetParam(), workloads::Scale::Tiny);
    workloads::Workload w2 =
        workloads::byName(GetParam(), workloads::Scale::Tiny);
    core::compileHints(w1.module);
    core::compileHints(w2.module);

    core::SystemOptions opts;
    opts.mechanism = core::Mechanism::Full;
    opts.seed = 12345;
    const sim::RunResult r1 = core::simulate(opts, w1.module, w1.threads);
    const sim::RunResult r2 = core::simulate(opts, w2.module, w2.threads);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.instructions, r2.instructions);
    EXPECT_EQ(r1.htm.commits, r2.htm.commits);
    EXPECT_EQ(r1.finalGlobals, r2.finalGlobals);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, DeterminismProperty,
                         ::testing::ValuesIn(workloads::allNames()));

/**
 * Every simulator fast path keeps its original implementation as the
 * oracle it must match bit for bit: broadcast coherence
 * (MemConfig::directory), the un-memoized translate
 * (VmConfig::translationCache), the Instr-walking interpreter
 * (MachineConfig::decodeCache) and the rotating scheduler scan
 * (MachineConfig::schedIndex). Turning any one of them off must leave
 * the full RunResult encoding — cycles, abort breakdowns, footprint
 * distributions, raw stat dumps, final globals — unchanged, for every
 * kernel, backend, machine size and hint mechanism. The 32- and
 * 64-context machines run both flat and with fig_scale's NUMA split
 * (one home node per 16 cores). Broadcast coherence is also checked on
 * 4 cores x 2 SMT, where tracker filtering decides which same-L1
 * sibling hears each access and eviction.
 *
 * At the default sizes no Tiny kernel overflows any backend, so the
 * "pressure" shape shrinks the TX buffer to 4 entries, the P8S
 * signature to 64 bits and the L1 to 4 KB on 8 contexts (and on
 * 4 cores x 2 SMT for Broadcast): P8 aborts on capacity, P8S spills
 * into its signature and conflicts falsely through it, and L1TM loses
 * tracked lines to set conflicts.
 */
enum class RefPath
{
    Broadcast,
    Translate,
    Interpreter,
    SchedScan,
};

struct RefCase
{
    RefPath path;
    std::string kernel;
    htm::HtmKind kind;
    unsigned contexts;
    unsigned smt;
    unsigned numaNodes;
    core::Mechanism mech;
    bool pressure;
};

/** Readable case name (CTest names the cases after it). */
void
PrintTo(const RefCase &c, std::ostream *os)
{
    static const char *const paths[] = {"Broadcast", "Translate",
                                        "Interpreter", "SchedScan"};
    *os << paths[unsigned(c.path)] << ':' << c.kernel << ':'
        << htm::htmKindName(c.kind) << ':' << c.contexts << "ctx:";
    if (c.smt > 1)
        *os << c.smt << "smt:";
    *os << c.numaNodes << "node:" << core::mechanismName(c.mech);
    if (c.pressure)
        *os << ":pressure";
}

std::vector<RefCase>
allRefCases()
{
    struct Shape
    {
        unsigned contexts, smt, numaNodes;
        bool pressure = false;
    };
    // The SMT shapes run under the Broadcast path only.
    const Shape shapes[] = {{8, 1, 1},       {32, 1, 1}, {32, 1, 2},
                            {64, 1, 1},      {64, 1, 4}, {8, 2, 1},
                            {8, 1, 1, true}, {8, 2, 1, true}};
    std::vector<RefCase> cases;
    for (const RefPath path : {RefPath::Broadcast, RefPath::Translate,
                               RefPath::Interpreter, RefPath::SchedScan})
        for (const std::string &kernel : workloads::allNames())
            for (const htm::HtmKind kind :
                 {htm::HtmKind::P8, htm::HtmKind::P8S, htm::HtmKind::L1TM})
                for (const Shape &s : shapes) {
                    if (s.smt > 1 && path != RefPath::Broadcast)
                        continue;
                    for (const core::Mechanism mech :
                         {core::Mechanism::Baseline, core::Mechanism::Full})
                        cases.push_back({path, kernel, kind, s.contexts,
                                         s.smt, s.numaNodes, mech,
                                         s.pressure});
                }
    return cases;
}

class ReferencePathEquivalence : public ::testing::TestWithParam<RefCase>
{
};

TEST_P(ReferencePathEquivalence, FastPathMatchesReferenceExactly)
{
    const RefCase &c = GetParam();
    // "name@N" re-partitions the kernel for N worker threads; the plain
    // name keeps the paper's 8-thread deployment.
    const std::string name =
        c.contexts == 8 ? c.kernel
                        : c.kernel + "@" + std::to_string(c.contexts);
    workloads::Workload w = workloads::byName(name, workloads::Scale::Tiny);
    core::compileHints(w.module);

    core::SystemOptions opts;
    opts.htmKind = c.kind;
    opts.mechanism = c.mech;
    opts.numCores = c.contexts / c.smt;
    opts.smtPerCore = c.smt;
    opts.numaNodes = c.numaNodes;
    opts.collectTxSizes = true;
    opts.collectRawStats = true;
    if (c.pressure) {
        opts.bufferEntries = 4;
        opts.signatureBits = 64;
    }
    sim::MachineConfig fast = core::makeMachineConfig(opts);
    if (c.pressure)
        fast.mem.l1SizeBytes = 4096;
    ASSERT_TRUE(fast.mem.directory && fast.vm.translationCache &&
                fast.decodeCache && fast.schedIndex);
    sim::MachineConfig ref = fast;
    switch (c.path) {
      case RefPath::Broadcast: ref.mem.directory = false; break;
      case RefPath::Translate: ref.vm.translationCache = false; break;
      case RefPath::Interpreter: ref.decodeCache = false; break;
      case RefPath::SchedScan: ref.schedIndex = false; break;
    }

    const sim::RunResult a = sim::runMachine(fast, w.module, w.threads);
    const sim::RunResult b = sim::runMachine(ref, w.module, w.threads);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.rawStats, b.rawStats);
    EXPECT_EQ(bench::encodeRunResult(a), bench::encodeRunResult(b));
}

INSTANTIATE_TEST_SUITE_P(AllKernels, ReferencePathEquivalence,
                         ::testing::ValuesIn(allRefCases()));

/*
 * Observation only: a sink records what the machine does without
 * changing it. Switching one sink on must leave the full RunResult
 * encoding unchanged once that sink's own output fields are reset, and
 * the sink must have recorded something. The journal and the metrics
 * registry are not part of the encoding, so their runs compare as they
 * are.
 */
enum class Sink
{
    Journal,
    Metrics,
    TxSizes,
    Sharing,
    HintOracle,
};

struct SinkCase
{
    Sink sink;
    std::string kernel;
    htm::HtmKind kind;
};

void
PrintTo(const SinkCase &c, std::ostream *os)
{
    static const char *const sinks[] = {"journal", "metrics", "txsizes",
                                        "sharing", "oracle"};
    *os << sinks[unsigned(c.sink)] << ':' << c.kernel << ':'
        << htm::htmKindName(c.kind);
}

std::vector<SinkCase>
allSinkCases()
{
    std::vector<SinkCase> cases;
    for (const Sink sink : {Sink::Journal, Sink::Metrics, Sink::TxSizes,
                            Sink::Sharing, Sink::HintOracle})
        for (const char *kernel : {"kmeans", "intruder"})
            for (const htm::HtmKind kind :
                 {htm::HtmKind::P8, htm::HtmKind::P8S, htm::HtmKind::L1TM})
                cases.push_back({sink, kernel, kind});
    return cases;
}

class ObservationOnlyProperty : public ::testing::TestWithParam<SinkCase>
{
};

TEST_P(ObservationOnlyProperty, SinkLeavesResultsBitIdentical)
{
    const SinkCase &c = GetParam();
    workloads::Workload w =
        workloads::byName(c.kernel, workloads::Scale::Tiny);
    core::compileHints(w.module);

    core::SystemOptions opts;
    opts.htmKind = c.kind;
    opts.mechanism = core::Mechanism::Full;
    opts.collectRawStats = true;
    const sim::MachineConfig off = core::makeMachineConfig(opts);
    sim::MachineConfig on = off;
    switch (c.sink) {
      case Sink::Journal: on.journal = true; break;
      case Sink::Metrics: on.metrics = true; break;
      case Sink::TxSizes: on.collectTxSizes = true; break;
      case Sink::Sharing: on.profileSharing = true; break;
      case Sink::HintOracle: on.hintOracle = true; break;
    }

    const sim::RunResult a = sim::runMachine(off, w.module, w.threads);
    sim::RunResult b = sim::runMachine(on, w.module, w.threads);
    EXPECT_EQ(a.journal, nullptr);
    EXPECT_EQ(a.metrics, nullptr);
    const sim::RunResult blank;
    switch (c.sink) {
      case Sink::Journal:
        ASSERT_NE(b.journal, nullptr);
        EXPECT_GT(b.journal->pushed(), 0u);
        break;
      case Sink::Metrics:
        ASSERT_NE(b.metrics, nullptr);
        EXPECT_GT(b.metrics->trackedAtCommit.count, 0u);
        break;
      case Sink::TxSizes:
        EXPECT_GT(b.txSizeAll.count(), 0u);
        b.txSizeAll = blank.txSizeAll;
        b.txSizeNoStatic = blank.txSizeNoStatic;
        b.txSizeUnsafe = blank.txSizeUnsafe;
        break;
      case Sink::Sharing:
        EXPECT_GT(b.blockSharing.txReads, 0u);
        b.blockSharing = blank.blockSharing;
        b.pageSharing = blank.pageSharing;
        break;
      case Sink::HintOracle:
        // Every checked access is a skip; intruder's skips are all
        // dynamic, which the oracle counts but does not check.
        EXPECT_GT(b.oracleSafeSkips, 0u);
        EXPECT_GE(b.oracleSafeSkips, b.oracleSafeChecked);
        EXPECT_TRUE(b.oracleWitnesses.empty());
        b.oracleWitnesses = blank.oracleWitnesses;
        b.oracleSafeChecked = blank.oracleSafeChecked;
        b.oracleSafeSkips = blank.oracleSafeSkips;
        break;
    }
    EXPECT_EQ(bench::encodeRunResult(a), bench::encodeRunResult(b));
}

INSTANTIATE_TEST_SUITE_P(AllSinks, ObservationOnlyProperty,
                         ::testing::ValuesIn(allSinkCases()));

// Every kernel re-partitioned for the full 64-context machine must run
// end-to-end (NUMA tiers on, directory on) and still satisfy its basic
// outcome invariants. This is the scaling counterpart of the 8-thread
// DeterminismProperty sweep above.
class SixtyFourContextProperty
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SixtyFourContextProperty, RunsEndToEnd)
{
    workloads::Workload w =
        workloads::byName(GetParam() + "@64", workloads::Scale::Tiny);
    core::compileHints(w.module);

    core::SystemOptions opts;
    opts.mechanism = core::Mechanism::Full;
    opts.numCores = 64;
    opts.numaNodes = 4;
    const sim::RunResult r = core::simulate(opts, w.module, w.threads);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.committedTxs, 0u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SixtyFourContextProperty,
                         ::testing::ValuesIn(workloads::allNames()));

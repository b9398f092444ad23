/**
 * @file
 * Tests for the two-sided hint-soundness checker: the static race-lint
 * pass (compiler/race_lint.hh) and the dynamic HintOracle
 * (htm/hint_oracle.hh), cross-validated against each other.
 *
 * The mutation scenarios flip a deliberately-unsound `safe` bit after
 * hint compilation — one per corruption class (load/store crossed with
 * stack/heap/read-only provenance) — and assert which side of the
 * checker catches it. Two scenarios are asymmetric by construction: a
 * non-initializing store to a genuinely private object is invisible to
 * the oracle (no remote writer exists), and an out-of-bounds write that
 * lands in a statically-read-only global is invisible to the lint pass
 * (the points-to object model has no aliasing path); each is caught by
 * exactly the other side. The --lint gate that harnesses and hintm_run
 * apply at workload preparation is checked here too: it passes clean
 * workloads and stops a module with a corrupted hint.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "../bench/bench_util.hh"
#include "common/logging.hh"
#include "compiler/race_lint.hh"
#include "compiler/safety.hh"
#include "core/hintm.hh"
#include "tir/builder.hh"
#include "tir/verifier.hh"
#include "workloads/workloads.hh"

using namespace hintm;
using namespace hintm::compiler;
using tir::FunctionBuilder;
using tir::Module;
using tir::Opcode;
using tir::Reg;

namespace
{

struct Site
{
    int fn = -1;
    int block = -1;
    int instr = -1;
};

/** Flip the nth instruction of kind @p op in @p fn_name to safe. The
 * target must currently be unsafe (flipping a legitimately-safe access
 * would not be a corruption). */
Site
flipNth(Module &m, const std::string &fn_name, Opcode op, unsigned nth)
{
    const int fi = m.findFunction(fn_name);
    EXPECT_GE(fi, 0) << fn_name;
    unsigned seen = 0;
    auto &fn = m.functions[std::size_t(fi)];
    for (int b = 0; b < int(fn.blocks.size()); ++b) {
        auto &instrs = fn.blocks[std::size_t(b)].instrs;
        for (int i = 0; i < int(instrs.size()); ++i) {
            if (instrs[std::size_t(i)].op != op)
                continue;
            if (seen++ != nth)
                continue;
            EXPECT_FALSE(instrs[std::size_t(i)].safe)
                << fn_name << ":" << b << ":" << i
                << " is already safe; the scenario would not corrupt";
            instrs[std::size_t(i)].safe = true;
            return Site{fi, b, i};
        }
    }
    ADD_FAILURE() << "no " << nth << "th " << tir::opcodeName(op)
                  << " in " << fn_name;
    return Site{};
}

bool
hasDiagAt(const LintReport &rep, const Site &s, int obligation = 0)
{
    for (const auto &d : rep.diagnostics) {
        if (d.fn == s.fn && d.block == s.block && d.instr == s.instr &&
            (obligation == 0 || d.obligation == obligation))
            return true;
    }
    return false;
}

/** Simulate with the oracle armed (static hints only, so every checked
 * access is one the lint pass also reasons about). */
sim::RunResult
runOracle(const Module &m, unsigned threads, bool decode_cache = true)
{
    core::SystemOptions opts;
    opts.mechanism = core::Mechanism::StaticOnly;
    opts.hintOracle = true;
    sim::MachineConfig cfg = core::makeMachineConfig(opts);
    cfg.decodeCache = decode_cache;
    return sim::runMachine(cfg, m, threads);
}

/** The flagged safe access must be named in some oracle witness. */
bool
witnessNames(const sim::RunResult &r, const Module &m, const Site &s)
{
    std::ostringstream os;
    os << m.functions[std::size_t(s.fn)].name << ":" << s.block << ":"
       << s.instr;
    for (const auto &w : r.oracleWitnesses) {
        if (w.find(os.str()) != std::string::npos)
            return true;
    }
    return false;
}

// ---- scenario modules ----------------------------------------------

/** tid 1 reads a global array in TXs; every other thread writes it. */
Module
sharedReaderModule()
{
    Module m;
    m.globals.push_back({"data", 8 * 8, 0});
    m.globals.push_back({"sink", 8 * 8, 0});
    FunctionBuilder f(m, "worker", 1);
    const Reg tid = f.param(0);
    f.ifThenElse(
        f.cmpEqI(tid, 1),
        [&] {
            const Reg acc = f.freshVar();
            f.setI(acc, 0);
            f.forRangeI(0, 40, [&](Reg i) {
                f.txBegin();
                f.set(acc,
                      f.add(acc, f.load(f.gep(f.globalAddr("data"),
                                              f.modI(i, 8), 8))));
                f.txEnd();
            });
            f.store(f.gep(f.globalAddr("sink"), tid, 8), acc);
        },
        [&] {
            f.forRangeI(0, 40, [&](Reg i) {
                f.txBegin();
                f.store(f.gep(f.globalAddr("data"), f.modI(i, 8), 8), i);
                f.txEnd();
            });
        });
    f.retVoid();
    m.threadFunc = f.finish();
    return m;
}

/** Every thread stores to the same global words in TXs. */
Module
sharedWritersModule()
{
    Module m;
    m.globals.push_back({"data", 8 * 8, 0});
    FunctionBuilder f(m, "worker", 1);
    const Reg tid = f.param(0);
    f.forRangeI(0, 40, [&](Reg i) {
        f.txBegin();
        f.store(f.gep(f.globalAddr("data"), f.modI(i, 8), 8), tid);
        f.txEnd();
    });
    f.retVoid();
    m.threadFunc = f.finish();
    return m;
}

/**
 * Each of two threads publishes a 64-byte buffer (stack or heap) to a
 * global registry, then transactionally writes the *other* thread's
 * buffer while reading its own — textbook escaped-object sharing.
 * Buffer loads/stores are all correctly classified unsafe.
 */
Module
crossBufferModule(bool heap)
{
    Module m;
    m.globals.push_back({"pub", 8 * 2, 0});
    m.globals.push_back({"sink", 8 * 2, 0});
    FunctionBuilder f(m, "worker", 1);
    const Reg tid = f.param(0);
    const Reg buf = heap ? f.mallocI(64) : f.allocaBytes(64);
    f.store(f.gep(f.globalAddr("pub"), tid, 8), buf);
    f.barrier();
    const Reg other =
        f.load(f.gep(f.globalAddr("pub"), f.sub(f.constI(1), tid), 8));
    const Reg acc = f.freshVar();
    f.setI(acc, 0);
    f.forRangeI(0, 40, [&](Reg i) {
        f.txBegin();
        f.store(f.gep(other, f.modI(i, 8), 8), i);
        f.set(acc, f.add(acc, f.load(f.gep(buf, f.modI(i, 8), 8))));
        f.txEnd();
    });
    f.store(f.gep(f.globalAddr("sink"), tid, 8), acc);
    if (heap)
        f.freePtr(buf);
    f.retVoid();
    m.threadFunc = f.finish();
    return m;
}

/** Thread-private heap object whose first in-TX access is a load: its
 * store is correctly left unsafe by the initializing-store rule. */
Module
nonInitStoreModule()
{
    Module m;
    m.globals.push_back({"sink", 8, 0});
    FunctionBuilder f(m, "worker", 1);
    const Reg acc = f.freshVar();
    f.setI(acc, 0);
    f.forRangeI(0, 10, [&](Reg) {
        const Reg p = f.mallocI(64);
        f.txBegin();
        f.set(acc, f.add(acc, f.load(p, 0)));
        f.store(p, acc, 0);
        f.txEnd();
        f.freePtr(p);
    });
    f.store(f.globalAddr("sink"), acc);
    f.retVoid();
    m.threadFunc = f.finish();
    return m;
}

/** A leaf called with both a private and a shared pointer: replication
 * clones it; the original keeps the (racy) shared call sites. */
Module
replicatedLeafModule()
{
    Module m;
    m.globals.push_back({"g", 8, 0});
    m.globals.push_back({"sink", 8 * 2, 0});
    tir::declareFunction(m, "leaf", 1);
    {
        FunctionBuilder f(m, "leaf", 1);
        f.ret(f.load(f.param(0), 0));
        f.finish();
    }
    {
        FunctionBuilder f(m, "init", 0);
        const Reg shared = f.mallocI(64);
        f.store(f.globalAddr("g"), shared);
        f.retVoid();
        m.initFunc = f.finish();
    }
    FunctionBuilder f(m, "worker", 1);
    const Reg tid = f.param(0);
    const Reg priv = f.mallocI(64);
    const Reg shared = f.load(f.globalAddr("g"));
    const Reg acc = f.freshVar();
    f.setI(acc, 0);
    f.forRangeI(0, 20, [&](Reg i) {
        f.txBegin();
        f.store(f.gep(shared, f.modI(i, 8), 8), tid);
        const Reg a = f.call("leaf", {priv});
        const Reg b = f.call("leaf", {shared});
        f.set(acc, f.add(acc, f.add(a, b)));
        f.txEnd();
    });
    f.freePtr(priv);
    f.store(f.gep(f.globalAddr("sink"), tid, 8), acc);
    f.retVoid();
    m.threadFunc = f.finish();
    return m;
}

/**
 * tid 0 stores 64 bytes past the end of `src`, which lands exactly on
 * `victim` (globals are laid out block-aligned, 64 bytes apart). The
 * points-to object model attributes the store to `src`, so `victim`
 * looks read-only to the classifier AND to the lint pass — only the
 * oracle sees the runtime overlap.
 */
Module
oobWriteModule()
{
    Module m;
    m.globals.push_back({"src", 8, 0});
    m.globals.push_back({"victim", 8, 0});
    m.globals.push_back({"sink", 8 * 2, 0});
    FunctionBuilder f(m, "worker", 1);
    const Reg tid = f.param(0);
    f.ifThenElse(
        f.cmpEqI(tid, 0),
        [&] {
            f.forRangeI(0, 20, [&](Reg i) {
                f.txBegin();
                f.store(f.globalAddr("src"), i, 64); // lands on victim
                f.txEnd();
            });
        },
        [&] {
            const Reg acc = f.freshVar();
            f.setI(acc, 0);
            f.forRangeI(0, 20, [&](Reg) {
                f.txBegin();
                f.set(acc, f.add(acc, f.load(f.globalAddr("victim"))));
                f.txEnd();
            });
            f.store(f.gep(f.globalAddr("sink"), tid, 8), acc);
        });
    f.retVoid();
    m.threadFunc = f.finish();
    return m;
}

} // namespace

// ---- clean-module baseline ------------------------------------------

TEST(RaceLint, ScenarioModulesAreCleanBeforeCorruption)
{
    for (Module m : {sharedReaderModule(), sharedWritersModule(),
                     crossBufferModule(false), crossBufferModule(true),
                     nonInitStoreModule(), replicatedLeafModule()}) {
        ASSERT_FALSE(tir::verify(m).has_value());
        core::compileHints(m);
        const LintReport rep = lintRaces(m);
        EXPECT_TRUE(rep.clean()) << rep.render();
    }
}

TEST(RaceLint, RealWorkloadsLintCleanWithZeroWitnesses)
{
    for (const char *name : {"kmeans", "vacation"}) {
        workloads::Workload wl =
            workloads::byName(name, workloads::Scale::Tiny);
        core::compileHints(wl.module);
        const LintReport rep = lintRaces(wl.module);
        EXPECT_TRUE(rep.clean()) << name << "\n" << rep.render();

        const sim::RunResult r = runOracle(wl.module, wl.threads);
        EXPECT_TRUE(r.oracleWitnesses.empty())
            << name << ": " << r.oracleWitnesses.front();
    }
}

// ---- mutation scenarios ---------------------------------------------
// Corruption classes: {load, store} x {read-only/global, stack, heap}.

TEST(RaceLint, CorruptLoadOfWrittenGlobalCaughtByBoth)
{
    Module m = sharedReaderModule();
    core::compileHints(m);
    const Site s = flipNth(m, "worker", Opcode::Load, 0);

    const LintReport rep = lintRaces(m);
    EXPECT_TRUE(hasDiagAt(rep, s, 1)) << rep.render();

    const sim::RunResult r = runOracle(m, 3);
    ASSERT_FALSE(r.oracleWitnesses.empty());
    EXPECT_TRUE(witnessNames(r, m, s)) << r.oracleWitnesses.front();
}

TEST(RaceLint, CorruptStoreToSharedGlobalCaughtByBoth)
{
    Module m = sharedWritersModule();
    core::compileHints(m);
    const Site s = flipNth(m, "worker", Opcode::Store, 0);

    const LintReport rep = lintRaces(m);
    EXPECT_TRUE(hasDiagAt(rep, s, 1)) << rep.render();

    const sim::RunResult r = runOracle(m, 2);
    ASSERT_FALSE(r.oracleWitnesses.empty());
    EXPECT_TRUE(witnessNames(r, m, s)) << r.oracleWitnesses.front();
}

TEST(RaceLint, CorruptLoadOfEscapedStackBufferCaughtByBoth)
{
    Module m = crossBufferModule(false);
    core::compileHints(m);
    // Load 0 reads the registry; load 1 is the own-buffer read inside
    // the TX (the other thread writes those words).
    const Site s = flipNth(m, "worker", Opcode::Load, 1);

    const LintReport rep = lintRaces(m);
    EXPECT_TRUE(hasDiagAt(rep, s, 1)) << rep.render();

    const sim::RunResult r = runOracle(m, 2);
    ASSERT_FALSE(r.oracleWitnesses.empty());
    EXPECT_TRUE(witnessNames(r, m, s)) << r.oracleWitnesses.front();
}

TEST(RaceLint, CorruptStoreToEscapedStackBufferCaughtByStatic)
{
    Module m = crossBufferModule(false);
    core::compileHints(m);
    // Store 0 publishes the buffer; store 1 is the cross-thread write.
    const Site s = flipNth(m, "worker", Opcode::Store, 1);

    const LintReport rep = lintRaces(m);
    EXPECT_TRUE(hasDiagAt(rep, s, 1)) << rep.render();
}

TEST(RaceLint, CorruptLoadOfEscapedHeapBufferCaughtByBoth)
{
    Module m = crossBufferModule(true);
    core::compileHints(m);
    const Site s = flipNth(m, "worker", Opcode::Load, 1);

    const LintReport rep = lintRaces(m);
    EXPECT_TRUE(hasDiagAt(rep, s, 1)) << rep.render();

    const sim::RunResult r = runOracle(m, 2);
    ASSERT_FALSE(r.oracleWitnesses.empty());
    EXPECT_TRUE(witnessNames(r, m, s)) << r.oracleWitnesses.front();
}

TEST(RaceLint, CorruptStoreToEscapedHeapBufferCaughtByStatic)
{
    Module m = crossBufferModule(true);
    core::compileHints(m);
    const Site s = flipNth(m, "worker", Opcode::Store, 1);

    const LintReport rep = lintRaces(m);
    EXPECT_TRUE(hasDiagAt(rep, s, 1)) << rep.render();
}

TEST(RaceLint, CorruptNonInitializingStoreCaughtByStaticOnly)
{
    Module m = nonInitStoreModule();
    core::compileHints(m);
    // The object is genuinely thread-private, so obligation 1 holds and
    // the oracle (which only sees cross-thread writes) stays silent;
    // only the initializing-store dataflow catches the corruption.
    const Site s = flipNth(m, "worker", Opcode::Store, 0);

    const LintReport rep = lintRaces(m);
    EXPECT_TRUE(hasDiagAt(rep, s, 2)) << rep.render();

    const sim::RunResult r = runOracle(m, 2);
    EXPECT_TRUE(r.oracleWitnesses.empty())
        << r.oracleWitnesses.front();
    EXPECT_GT(r.oracleSafeChecked, 0u); // the private loads were checked
}

TEST(RaceLint, CorruptReplicatedLeafOriginalCaughtByBoth)
{
    Module m = replicatedLeafModule();
    const SafetyReport sr = core::compileHints(m);
    ASSERT_GE(sr.replicatedFunctions, 1u);
    // The original leaf keeps the shared call site after replication;
    // its load must stay unsafe. Corrupt it.
    const Site s = flipNth(m, "leaf", Opcode::Load, 0);

    const LintReport rep = lintRaces(m);
    EXPECT_TRUE(hasDiagAt(rep, s, 1)) << rep.render();

    const sim::RunResult r = runOracle(m, 2);
    ASSERT_FALSE(r.oracleWitnesses.empty());
    EXPECT_TRUE(witnessNames(r, m, s)) << r.oracleWitnesses.front();
}

TEST(RaceLint, OutOfBoundsWriteCaughtByOracleOnly)
{
    Module m = oobWriteModule();
    core::compileHints(m);
    // The victim load is marked safe by the classifier itself (the
    // global looks read-only), and the lint pass agrees — the static
    // object model cannot see the out-of-bounds aliasing.
    const LintReport rep = lintRaces(m);
    EXPECT_TRUE(rep.clean()) << rep.render();

    const sim::RunResult r = runOracle(m, 2);
    ASSERT_FALSE(r.oracleWitnesses.empty());
    // The witness names the offending writer in `worker` (the OOB
    // store), not just the victim access.
    EXPECT_NE(r.oracleWitnesses.front().find("overlaps a write"),
              std::string::npos)
        << r.oracleWitnesses.front();
}

// ---- obligation 3: replicated-variant consistency -------------------

TEST(RaceLint, DivergentFlaggedVariantHintRaisesObligation3)
{
    // Hand-craft a replication family: `helper` and a structural twin
    // `helper$safe1_0` whose load is (unsoundly) marked safe while both
    // receive a shared, parallel-written object. No classifier run —
    // the lint pass is judging foreign annotations.
    Module m;
    m.globals.push_back({"g", 8 * 8, 0});
    tir::declareFunction(m, "helper", 1);
    tir::declareFunction(m, "helper$safe1_0", 1);
    {
        FunctionBuilder f(m, "helper", 1);
        f.ret(f.load(f.param(0), 0));
        f.finish();
    }
    {
        FunctionBuilder f(m, "helper$safe1_0", 1);
        f.ret(f.load(f.param(0), 0));
        f.finish();
    }
    FunctionBuilder f(m, "worker", 1);
    const Reg tid = f.param(0);
    const Reg g = f.globalAddr("g");
    f.txBegin();
    f.store(f.gep(g, tid, 8), tid);
    const Reg a = f.call("helper", {g});
    const Reg b = f.call("helper$safe1_0", {g});
    f.store(f.gep(g, tid, 8), f.add(a, b));
    f.txEnd();
    f.retVoid();
    m.threadFunc = f.finish();
    ASSERT_FALSE(tir::verify(m).has_value());

    const int clone = m.findFunction("helper$safe1_0");
    ASSERT_GE(clone, 0);
    m.functions[std::size_t(clone)].blocks[0].instrs[0].safe = true;

    const LintReport rep = lintRaces(m);
    const Site s{clone, 0, 0};
    EXPECT_TRUE(hasDiagAt(rep, s, 1)) << rep.render();
    EXPECT_TRUE(hasDiagAt(rep, s, 3)) << rep.render();
}

// ---- the --lint gate -------------------------------------------------

TEST(LintGate, PassesCleanWorkloadsThroughPrepare)
{
    for (const char *name : {"kmeans", "labyrinth"}) {
        EXPECT_NO_THROW(
            bench::prepare(name, workloads::Scale::Tiny, 0, /*lint=*/true))
            << name;
    }
}

TEST(LintGate, FatalsOnACorruptedSafeHint)
{
    workloads::Workload wl;
    wl.name = "shared-reader";
    wl.module = sharedReaderModule();
    core::compileHints(wl.module);
    EXPECT_NO_THROW(bench::lintGate(wl));

    flipNth(wl.module, "worker", Opcode::Load, 0);
    EXPECT_THROW(bench::lintGate(wl), FatalError);
}

// ---- oracle invariants ----------------------------------------------

TEST(HintOracle, DecodedAndReferencePathsReportIdenticalWitnesses)
{
    // The decoded interpreter reports source positions through the
    // fused-op srcRefs table; the reference interpreter walks Instr
    // storage directly. Their witnesses must match exactly.
    Module m = sharedReaderModule();
    core::compileHints(m);
    flipNth(m, "worker", Opcode::Load, 0);

    const sim::RunResult dec = runOracle(m, 3, true);
    const sim::RunResult ref = runOracle(m, 3, false);
    ASSERT_FALSE(dec.oracleWitnesses.empty());
    EXPECT_EQ(dec.oracleWitnesses, ref.oracleWitnesses);
    EXPECT_EQ(dec.oracleSafeChecked, ref.oracleSafeChecked);
    EXPECT_EQ(dec.oracleSafeSkips, ref.oracleSafeSkips);
}

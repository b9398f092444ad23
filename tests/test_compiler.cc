/**
 * @file
 * Unit tests for HinTM's static classification: Andersen points-to
 * (copy/load/store/call/return propagation, escape via globals), capture
 * tracking on stack objects, Algorithm 1's thread-private heap
 * detection (including the free-in-region criterion), read-only-shared
 * analysis, the initializing-store rule, function replication, and
 * idempotence / ablation switches.
 */

#include <gtest/gtest.h>

#include "compiler/points_to.hh"
#include "compiler/race_lint.hh"
#include "compiler/safety.hh"
#include "tir/builder.hh"
#include "tir/verifier.hh"

using namespace hintm;
using namespace hintm::compiler;
using tir::FunctionBuilder;
using tir::Module;
using tir::Opcode;
using tir::Reg;

namespace
{

/** Collect the safety flags of all loads/stores in one function. */
struct Flags
{
    unsigned safeLoads = 0, loads = 0, safeStores = 0, stores = 0;
};

Flags
flagsOf(const Module &m, const std::string &fn_name)
{
    Flags fl;
    const int idx = m.findFunction(fn_name);
    EXPECT_GE(idx, 0) << fn_name;
    for (const auto &bb : m.functions[std::size_t(idx)].blocks) {
        for (const auto &ins : bb.instrs) {
            if (ins.op == Opcode::Load) {
                ++fl.loads;
                fl.safeLoads += ins.safe;
            } else if (ins.op == Opcode::Store) {
                ++fl.stores;
                fl.safeStores += ins.safe;
            }
        }
    }
    return fl;
}

} // namespace

TEST(PointsTo, TracksAllocationSitesThroughCopies)
{
    Module m;
    m.globals.push_back({"g", 8, 0});
    FunctionBuilder f(m, "worker", 1);
    const Reg a = f.mallocI(64);
    const Reg b = f.gep(a, -1, 0, 8); // derived pointer
    const Reg c = f.freshVar();
    f.set(c, b);
    f.store(c, f.constI(1));
    f.freePtr(a);
    f.retVoid();
    m.threadFunc = f.finish();
    ASSERT_FALSE(tir::verify(m).has_value());

    PointsTo pt(m);
    const int fn = m.threadFunc;
    // c must point to the malloc site only.
    const ObjSet &pts = pt.regPts(fn, c);
    ASSERT_EQ(pts.size(), 1u);
    EXPECT_EQ(pt.objects()[std::size_t(*pts.begin())].kind,
              ObjKind::Malloc);
}

TEST(PointsTo, EscapeViaGlobalStore)
{
    Module m;
    m.globals.push_back({"g", 8, 0});
    FunctionBuilder f(m, "worker", 1);
    const Reg a = f.mallocI(64);  // escapes
    const Reg b = f.mallocI(64);  // stays private
    f.store(f.globalAddr("g"), a);
    f.storeI(b, 0);
    f.freePtr(a);
    f.freePtr(b);
    f.retVoid();
    m.threadFunc = f.finish();

    PointsTo pt(m);
    const int fn = m.threadFunc;
    EXPECT_TRUE(pt.isEscaped(*pt.regPts(fn, a).begin()));
    EXPECT_FALSE(pt.isEscaped(*pt.regPts(fn, b).begin()));
}

TEST(PointsTo, EscapeIsTransitiveThroughHeap)
{
    Module m;
    m.globals.push_back({"g", 8, 0});
    FunctionBuilder f(m, "worker", 1);
    const Reg outer = f.mallocI(64);
    const Reg inner = f.mallocI(64);
    f.store(outer, inner);             // inner reachable from outer
    f.store(f.globalAddr("g"), outer); // outer escapes -> so does inner
    f.retVoid();
    m.threadFunc = f.finish();

    PointsTo pt(m);
    EXPECT_TRUE(pt.isEscaped(*pt.regPts(m.threadFunc, inner).begin()));
}

TEST(PointsTo, CallPropagatesArgsAndReturn)
{
    Module m;
    m.globals.push_back({"g", 8, 0});
    declareFunction(m, "id", 1);
    {
        FunctionBuilder f(m, "id", 1);
        f.ret(f.param(0));
        f.finish();
    }
    FunctionBuilder f(m, "worker", 1);
    const Reg a = f.mallocI(64);
    const Reg r = f.call("id", {a});
    f.storeI(r, 1);
    f.retVoid();
    m.threadFunc = f.finish();

    PointsTo pt(m);
    const ObjSet &pts = pt.regPts(m.threadFunc, r);
    ASSERT_EQ(pts.size(), 1u);
    EXPECT_EQ(pt.objects()[std::size_t(*pts.begin())].kind,
              ObjKind::Malloc);
    // Call graph captured.
    EXPECT_EQ(pt.callees(m.threadFunc).size(), 1u);
    EXPECT_EQ(pt.reachableFrom(m.threadFunc).size(), 2u);
}

TEST(Safety, StackObjectLoadsAndInitStoresSafe)
{
    Module m;
    m.globals.push_back({"g", 8, 0});
    FunctionBuilder f(m, "worker", 1);
    f.txBegin();
    const Reg s = f.allocaBytes(64);
    f.storeI(s, 7);                           // init store -> safe
    f.store(f.globalAddr("g"), f.load(s));    // load safe, global unsafe
    f.txEnd();
    f.retVoid();
    m.threadFunc = f.finish();

    const SafetyReport rep = annotateSafety(m);
    EXPECT_EQ(rep.safeStackObjects, 1u);
    const Flags fl = flagsOf(m, "worker");
    EXPECT_EQ(fl.safeLoads, 1u);
    EXPECT_EQ(fl.safeStores, 1u);
    EXPECT_EQ(fl.stores, 2u); // the global store stays unsafe
}

TEST(Safety, EscapedStackObjectRejected)
{
    Module m;
    m.globals.push_back({"g", 8, 0});
    FunctionBuilder f(m, "worker", 1);
    f.txBegin();
    const Reg s = f.allocaBytes(64);
    f.store(f.globalAddr("g"), s); // escapes
    f.storeI(s, 7);
    const Reg v = f.load(s);
    f.store(s, v, 8);
    f.txEnd();
    f.retVoid();
    m.threadFunc = f.finish();

    annotateSafety(m);
    const Flags fl = flagsOf(m, "worker");
    EXPECT_EQ(fl.safeLoads, 0u);
    EXPECT_EQ(fl.safeStores, 0u);
}

TEST(Safety, Algorithm1RequiresFree)
{
    // Identical private mallocs, one freed in the region, one not.
    auto build = [](bool with_free) {
        Module m;
        m.globals.push_back({"g", 8, 0});
        FunctionBuilder f(m, "worker", 1);
        const Reg h = f.mallocI(256);
        f.txBegin();
        f.storeI(h, 1);
        const Reg v = f.load(h);
        f.store(f.globalAddr("g"), v);
        f.txEnd();
        if (with_free)
            f.freePtr(h);
        f.retVoid();
        m.threadFunc = f.finish();
        return m;
    };

    Module with = build(true);
    const SafetyReport r1 = annotateSafety(with);
    EXPECT_EQ(r1.safeHeapObjects, 1u);

    Module without = build(false);
    const SafetyReport r2 = annotateSafety(without);
    EXPECT_EQ(r2.safeHeapObjects, 0u);

    SafetyOptions relaxed;
    relaxed.requireFreeForHeapPrivate = false;
    Module without2 = build(false);
    const SafetyReport r3 = annotateSafety(without2, relaxed);
    EXPECT_EQ(r3.safeHeapObjects, 1u);
}

TEST(Safety, InitPhaseAllocationsNeverHeapPrivate)
{
    Module m;
    m.globals.push_back({"g", 8, 0});
    {
        FunctionBuilder f(m, "init", 0);
        const Reg h = f.mallocI(256);
        f.store(f.globalAddr("g"), h);
        f.retVoid();
        m.initFunc = f.finish();
    }
    FunctionBuilder f(m, "worker", 1);
    const Reg h = f.load(f.globalAddr("g"));
    f.txBegin();
    f.store(h, f.load(h));
    f.txEnd();
    f.retVoid();
    m.threadFunc = f.finish();

    const SafetyReport rep = annotateSafety(m);
    EXPECT_EQ(rep.safeHeapObjects, 0u);
    const Flags fl = flagsOf(m, "worker");
    EXPECT_EQ(fl.safeStores, 0u);
}

TEST(Safety, ReadOnlySharedLoadsSafe)
{
    Module m;
    m.globals.push_back({"g", 8, 0});
    {
        FunctionBuilder f(m, "init", 0);
        const Reg t = f.mallocI(1024);
        f.forRangeI(0, 128, [&](Reg i) {
            f.store(f.gep(t, i, 8), i);
        });
        f.store(f.globalAddr("g"), t);
        f.retVoid();
        m.initFunc = f.finish();
    }
    FunctionBuilder f(m, "worker", 1);
    const Reg t = f.load(f.globalAddr("g"));
    f.txBegin();
    const Reg v = f.load(f.gep(t, f.param(0), 8));
    (void)v;
    f.txEnd();
    f.retVoid();
    m.threadFunc = f.finish();

    const SafetyReport rep = annotateSafety(m);
    EXPECT_GE(rep.readOnlyObjects, 1u);
    const Flags fl = flagsOf(m, "worker");
    // Both the table load and the pointer load from `g` are safe (the
    // global pointer itself is never written in the parallel region).
    EXPECT_EQ(fl.safeLoads, fl.loads);
}

TEST(Safety, WriteAnywhereInParallelRegionKillsReadOnly)
{
    Module m;
    m.globals.push_back({"g", 8, 0});
    {
        FunctionBuilder f(m, "init", 0);
        f.store(f.globalAddr("g"), f.mallocI(1024));
        f.retVoid();
        m.initFunc = f.finish();
    }
    FunctionBuilder f(m, "worker", 1);
    const Reg t = f.load(f.globalAddr("g"));
    f.txBegin();
    const Reg v = f.load(t);
    f.store(t, v, 8); // a single write disqualifies the object
    f.txEnd();
    f.retVoid();
    m.threadFunc = f.finish();

    annotateSafety(m);
    const Flags fl = flagsOf(m, "worker");
    EXPECT_EQ(fl.safeStores, 0u);
    // The load of `t`'s cells is unsafe; only the pointer load from the
    // (unwritten) global remains safe.
    EXPECT_EQ(fl.safeLoads, 1u);
}

TEST(Safety, NonInitializingStoreRejected)
{
    // Private heap object read before written inside the TX: stores must
    // stay unsafe (an abort would expose the stale value).
    Module m;
    m.globals.push_back({"g", 8, 0});
    FunctionBuilder f(m, "worker", 1);
    const Reg h = f.mallocI(256);
    f.storeI(h, 1);
    f.txBegin();
    const Reg v = f.load(h);     // first access in region: a load
    f.store(h, f.addI(v, 1));    // not initializing
    f.store(f.globalAddr("g"), v);
    f.txEnd();
    f.freePtr(h);
    f.retVoid();
    m.threadFunc = f.finish();

    annotateSafety(m);
    const Flags fl = flagsOf(m, "worker");
    EXPECT_EQ(fl.safeStores, 0u);
    EXPECT_EQ(fl.safeLoads, 1u); // the private load is still safe
}

TEST(Safety, InitializingStoreAcceptedAcrossCallee)
{
    // The labyrinth pattern: a callee fills the private object before
    // any region load touches it.
    Module m;
    m.globals.push_back({"g", 8, 0});
    declareFunction(m, "fill", 1);
    {
        FunctionBuilder f(m, "fill", 1);
        f.forRangeI(0, 32, [&](Reg i) {
            f.store(f.gep(f.param(0), i, 8), i);
        });
        f.retVoid();
        f.finish();
    }
    FunctionBuilder f(m, "worker", 1);
    const Reg h = f.mallocI(256);
    f.txBegin();
    f.callVoid("fill", {h});
    const Reg acc = f.freshVar();
    f.setI(acc, 0);
    f.forRangeI(0, 32, [&](Reg i) {
        f.set(acc, f.add(acc, f.load(f.gep(h, i, 8))));
    });
    f.store(f.globalAddr("g"), acc);
    f.txEnd();
    f.freePtr(h);
    f.retVoid();
    m.threadFunc = f.finish();

    const SafetyReport rep = annotateSafety(m);
    EXPECT_EQ(rep.safeHeapObjects, 1u);
    const Flags fill = flagsOf(m, "fill");
    EXPECT_EQ(fill.safeStores, fill.stores);
}

TEST(Safety, RegistryPublicationDefeatsStaticAnalysis)
{
    // The pattern used by genome/intruder/yada/bayes workloads.
    Module m;
    m.globals.push_back({"registry", 64, 0});
    FunctionBuilder f(m, "worker", 1);
    const Reg buf = f.mallocI(4096);
    f.store(f.gep(f.globalAddr("registry"), f.param(0), 8), buf);
    f.txBegin();
    const Reg v = f.load(buf);
    f.store(buf, f.addI(v, 1), 8);
    f.txEnd();
    f.freePtr(buf);
    f.retVoid();
    m.threadFunc = f.finish();

    const SafetyReport rep = annotateSafety(m);
    EXPECT_EQ(rep.safeHeapObjects, 0u);
    EXPECT_EQ(rep.safeLoads, 0u);
    EXPECT_EQ(rep.safeStores, 0u);
}

TEST(Safety, FunctionReplicationSplitsMixedCallers)
{
    // One helper called with a private buffer from inside a TX and with
    // a shared buffer elsewhere: replication must recover safety for
    // the private call site.
    Module m;
    m.globals.push_back({"g", 8, 0});
    declareFunction(m, "sum8", 1);
    {
        FunctionBuilder f(m, "sum8", 1);
        const Reg acc = f.freshVar();
        f.setI(acc, 0);
        f.forRangeI(0, 8, [&](Reg i) {
            f.set(acc, f.add(acc, f.load(f.gep(f.param(0), i, 8))));
        });
        f.ret(acc);
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
    const Reg priv = f.mallocI(64);
    f.forRangeI(0, 8, [&](Reg i) { f.store(f.gep(priv, i, 8), i); });
    const Reg shared = f.load(f.globalAddr("g"));
    f.store(shared, f.param(0)); // written in parallel: not read-only
    const Reg a = f.call("sum8", {shared}); // unsafe caller
    f.txBegin();
    const Reg b = f.call("sum8", {priv});   // safe caller
    f.store(f.globalAddr("g"), f.add(a, b), 0);
    f.txEnd();
    f.freePtr(priv);
    f.retVoid();
    m.threadFunc = f.finish();

    SafetyOptions no_rep;
    no_rep.functionReplication = false;
    Module m1 = m;
    const SafetyReport r1 = annotateSafety(m1, no_rep);
    // Merged view: sum8's loads are polluted by the shared caller.
    EXPECT_EQ(flagsOf(m1, "sum8").safeLoads, 0u);

    const SafetyReport r2 = annotateSafety(m);
    EXPECT_GE(r2.replicatedFunctions, 1u);
    // The clone serving the private call site has safe loads.
    bool clone_found = false;
    for (const auto &fn : m.functions) {
        if (fn.name.find("sum8$safe") != std::string::npos) {
            clone_found = true;
            const Flags fl = flagsOf(m, fn.name);
            EXPECT_EQ(fl.safeLoads, fl.loads);
        }
    }
    EXPECT_TRUE(clone_found);
    EXPECT_GT(r2.safeLoads, r1.safeLoads);
}

TEST(Safety, IdempotentAcrossReruns)
{
    Module m;
    m.globals.push_back({"g", 8, 0});
    FunctionBuilder f(m, "worker", 1);
    const Reg s = f.allocaBytes(32);
    f.txBegin();
    f.storeI(s, 3);
    f.store(f.globalAddr("g"), f.load(s));
    f.txEnd();
    f.retVoid();
    m.threadFunc = f.finish();

    const SafetyReport r1 = annotateSafety(m);
    const SafetyReport r2 = annotateSafety(m);
    EXPECT_EQ(r1.safeLoads, r2.safeLoads);
    EXPECT_EQ(r1.safeStores, r2.safeStores);
}

TEST(Safety, AblationSwitchesDisableMechanisms)
{
    Module m;
    m.globals.push_back({"g", 8, 0});
    FunctionBuilder f(m, "worker", 1);
    const Reg s = f.allocaBytes(32);
    const Reg h = f.mallocI(64);
    f.txBegin();
    f.storeI(s, 1);
    f.storeI(h, 2);
    f.store(f.globalAddr("g"), f.add(f.load(s), f.load(h)));
    f.txEnd();
    f.freePtr(h);
    f.retVoid();
    m.threadFunc = f.finish();

    SafetyOptions none;
    none.stackAnalysis = false;
    none.heapAnalysis = false;
    none.readOnlyAnalysis = false;
    Module m1 = m;
    const SafetyReport r = annotateSafety(m1, none);
    EXPECT_EQ(r.safeLoads, 0u);
    EXPECT_EQ(r.safeStores, 0u);
    EXPECT_EQ(r.safeStackObjects + r.safeHeapObjects + r.readOnlyObjects,
              0u);
}

TEST(PointsTo, PlainAddSubKeepsProvenance)
{
    // Pointer arithmetic through Add/Sub (not Gep) must stay
    // conservative: provenance flows through both operands.
    Module m;
    m.globals.push_back({"g", 8, 0});
    FunctionBuilder f(m, "worker", 1);
    const Reg h = f.mallocI(64);
    const Reg p = f.addI(h, 8);   // derived via plain add
    const Reg q = f.subI(p, 8);
    f.store(q, f.constI(1));
    f.freePtr(h);
    f.retVoid();
    m.threadFunc = f.finish();

    PointsTo pt(m);
    const ObjSet &pts = pt.regPts(m.threadFunc, q);
    ASSERT_FALSE(pts.empty());
    EXPECT_EQ(pt.objects()[std::size_t(*pts.begin())].kind,
              ObjKind::Malloc);
}

TEST(Safety, MixedPointerTargetsStayUnsafe)
{
    // A load whose address may point to both a private and a shared
    // object must remain unsafe.
    Module m;
    m.globals.push_back({"g", 8, 0});
    FunctionBuilder f(m, "worker", 1);
    const Reg priv = f.mallocI(64);
    const Reg shared = f.load(f.globalAddr("g"));
    f.store(shared, f.constI(0)); // shared is written: not read-only
    const Reg sel = f.freshVar();
    f.ifThenElse(f.cmpEqI(f.param(0), 0),
                 [&] { f.set(sel, priv); },
                 [&] { f.set(sel, shared); });
    f.txBegin();
    const Reg v = f.load(sel);
    f.store(f.globalAddr("g"), v, 0);
    f.txEnd();
    f.freePtr(priv);
    f.retVoid();
    m.threadFunc = f.finish();

    annotateSafety(m);
    const Flags fl = flagsOf(m, "worker");
    // Only the pointer-load from `g` could even be considered; the
    // selected-pointer load must be unsafe.
    const int fn = m.findFunction("worker");
    PointsTo pt(m);
    for (const auto &bb : m.functions[std::size_t(fn)].blocks) {
        for (const auto &ins : bb.instrs) {
            if (ins.op == Opcode::Load &&
                pt.regPts(fn, ins.a).size() > 1) {
                EXPECT_FALSE(ins.safe);
            }
        }
    }
    (void)fl;
}

TEST(Safety, SafetyReportSummaryIsReadable)
{
    SafetyReport rep;
    rep.totalLoads = 10;
    rep.safeLoads = 4;
    rep.replicatedFunctions = 1;
    const std::string s = rep.summary();
    EXPECT_NE(s.find("4/10"), std::string::npos);
    EXPECT_NE(s.find("clones 1"), std::string::npos);
}

namespace
{

/**
 * A forwarding chain worker -> l1 -> l2 -> l3(leaf load), entered once
 * with a thread-private buffer (inside a TX) and once with a shared
 * one. Recovering safety for the private entry requires one replication
 * round per layer: l1 splits first, which makes l2's callers mixed,
 * which makes l3's callers mixed.
 */
Module
deepChainModule()
{
    Module m;
    m.globals.push_back({"g", 8, 0});
    declareFunction(m, "l1", 1);
    declareFunction(m, "l2", 1);
    declareFunction(m, "l3", 1);
    {
        FunctionBuilder f(m, "l3", 1);
        const Reg acc = f.freshVar();
        f.setI(acc, 0);
        f.forRangeI(0, 8, [&](Reg i) {
            f.set(acc, f.add(acc, f.load(f.gep(f.param(0), i, 8))));
        });
        f.ret(acc);
        f.finish();
    }
    {
        FunctionBuilder f(m, "l2", 1);
        f.ret(f.call("l3", {f.param(0)}));
        f.finish();
    }
    {
        FunctionBuilder f(m, "l1", 1);
        f.ret(f.call("l2", {f.param(0)}));
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
    const Reg priv = f.mallocI(64);
    f.forRangeI(0, 8, [&](Reg i) { f.store(f.gep(priv, i, 8), i); });
    const Reg shared = f.load(f.globalAddr("g"));
    f.store(shared, f.param(0)); // written in parallel: not read-only
    const Reg a = f.call("l1", {shared});
    f.txBegin();
    const Reg b = f.call("l1", {priv});
    f.store(f.globalAddr("g"), f.add(a, b), 0);
    f.txEnd();
    f.freePtr(priv);
    f.retVoid();
    m.threadFunc = f.finish();
    return m;
}

} // namespace

TEST(Safety, ReplicationPropagatesThroughDeepCallChains)
{
    Module m = deepChainModule();
    ASSERT_FALSE(tir::verify(m).has_value());
    const SafetyReport rep = annotateSafety(m);

    // One clone per layer: the safe context reaches the leaf only after
    // every intermediate forwarder has been split.
    EXPECT_GE(rep.replicatedFunctions, 3u);
    bool leaf_clone = false;
    for (const auto &fn : m.functions) {
        if (fn.name.find("l3$safe") == std::string::npos)
            continue;
        leaf_clone = true;
        const Flags fl = flagsOf(m, fn.name);
        EXPECT_EQ(fl.safeLoads, fl.loads) << fn.name;
    }
    EXPECT_TRUE(leaf_clone);
    // The original leaf still serves the shared chain: all unsafe.
    EXPECT_EQ(flagsOf(m, "l3").safeLoads, 0u);
    // The re-derived obligations accept the whole annotation.
    EXPECT_TRUE(lintRaces(m).clean()) << lintRaces(m).render();
}

TEST(Safety, ReplicationBudgetExhaustionStaysConservative)
{
    // With the round budget cut below the chain depth the split never
    // reaches the leaf: hints must stay conservative (leaf unsafe, no
    // safety invented), never unsound.
    Module full_m = deepChainModule();
    const SafetyReport full = annotateSafety(full_m);

    Module m = deepChainModule();
    SafetyOptions starved;
    starved.replicationRounds = 1;
    const SafetyReport rep = annotateSafety(m, starved);

    EXPECT_LT(rep.replicatedFunctions, full.replicatedFunctions);
    EXPECT_LE(rep.safeLoads, full.safeLoads);
    // The leaf was never split, so the merged view keeps it unsafe.
    EXPECT_EQ(flagsOf(m, "l3").safeLoads, 0u);
    for (const auto &fn : m.functions) {
        if (fn.name.find("l3$safe") != std::string::npos)
            ADD_FAILURE() << "leaf was cloned despite a 1-round budget";
    }
    // Conservative is still sound: the lint pass stays clean.
    EXPECT_TRUE(lintRaces(m).clean()) << lintRaces(m).render();
}

/**
 * @file
 * Property-based tests: randomized sweeps asserting system invariants
 * rather than example-specific values.
 *
 *  - MESI single-writer invariant over random access traces;
 *  - page-FSM monotonicity (safety never resurrects) over random
 *    multi-thread access sequences;
 *  - translation oracle: Vm::translate matches a reference model of
 *    the TLB, the page FSM and their costs over random streams;
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

#include <algorithm>
#include <list>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/result_store.hh"
#include "common/rng.hh"
#include "core/hintm.hh"
#include "htm/signature.hh"
#include "mem/mem_system.hh"
#include "tir/builder.hh"
#include "vm/page_table.hh"
#include "vm/vm.hh"
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

/**
 * Translation oracle: vm::Vm::translate against a reference model of
 * §IV-B written here without any of the Vm's data structures. The model
 * keeps each context's TLB as a most-recent-first list of page numbers
 * and reads every safety bit from its own copy of the Fig. 2 state
 * machine, so none of its TLB entries can hold a stale classification.
 * A stale safety bit in a real TLB entry, a wrong LRU victim, a missed
 * or extra shootdown, or a wrongly charged cost shows up as a differing
 * TranslateResult, counter or final page state. Both sides see the same
 * random stream of Notary-style annotations and of accesses, with one
 * software thread per context as the machine runs them.
 *
 * The grid: machines of 1 (no remote TLB), 2, 3, 8 (the paper's) and
 * 64 contexts (the top bit of slaveMask); TLBs of 1 entry (every fill
 * evicts), 2, 8 and the default 64; the conventional, HinTM and
 * HinTM + preserve policies; per-context working sets that fit the TLB
 * (only shootdowns force refills) or spill it four times over; random
 * or cyclic page order (a cyclic sweep of a spilling set never hits
 * under LRU); and with or without annotations before and during the
 * stream.
 */
enum class VmPolicy
{
    Conventional,
    HinTM,
    Preserve,
};

struct OracleCase
{
    unsigned contexts;
    unsigned tlbEntries;
    VmPolicy policy;
    bool spills;
    bool sweep;
    bool annotated;
};

void
PrintTo(const OracleCase &c, std::ostream *os)
{
    static const char *const policies[] = {"conventional", "HinTM",
                                           "preserve"};
    *os << c.contexts << "ctx:" << c.tlbEntries << "tlb:"
        << policies[unsigned(c.policy)] << ':'
        << (c.spills ? "spills" : "fits") << ':'
        << (c.sweep ? "sweep" : "random");
    if (c.annotated)
        *os << ":annotated";
}

std::vector<OracleCase>
allOracleCases()
{
    std::vector<OracleCase> cases;
    for (const unsigned contexts : {1u, 2u, 3u, 8u, 64u})
        for (const unsigned tlb : {1u, 2u, 8u, 64u})
            for (const VmPolicy policy : {VmPolicy::Conventional,
                                          VmPolicy::HinTM, VmPolicy::Preserve})
                for (const bool spills : {false, true})
                    for (const bool sweep : {false, true})
                        for (const bool annotated : {false, true})
                            cases.push_back({contexts, tlb, policy, spills,
                                             sweep, annotated});
    return cases;
}

namespace
{

/** The reference model of translate described above. */
class TranslateModel
{
  public:
    struct Page
    {
        vm::PageState state = vm::PageState::Untouched;
        ThreadId owner = invalidThreadId;
    };

    TranslateModel(const vm::VmConfig &cfg, unsigned contexts)
        : cfg_(cfg), tlbs_(contexts)
    {
    }

    vm::TranslateResult
    translate(unsigned ctx, ThreadId tid, Addr addr, AccessType type)
    {
        using vm::PageState;
        vm::TranslateResult res;
        res.pageNum = addr / pageBytes;
        const bool write = type == AccessType::Write;

        std::list<Addr> &tlb = tlbs_[ctx];
        const auto it = std::find(tlb.begin(), tlb.end(), res.pageNum);
        if (it != tlb.end()) {
            tlb.splice(tlb.begin(), tlb, it);
            ++hits;
        } else {
            ++misses;
            res.cost += cfg_.pageWalkCycles;
            tlb.push_front(res.pageNum);
            if (tlb.size() > cfg_.tlbEntries)
                tlb.pop_back();
        }

        if (!cfg_.dynamicClassification) {
            // No sharing FSM: only an annotation makes a read safe.
            const auto p = pages.find(res.pageNum);
            if (!write && p != pages.end() &&
                p->second.state == PageState::Annotated) {
                res.safeRead = true;
                res.revocable = false;
            }
            return res;
        }

        Page &p = pages[res.pageNum];
        bool fault = false;
        switch (p.state) {
          case PageState::Untouched:
            p.owner = tid;
            p.state = write ? PageState::PrivateRw : PageState::PrivateRo;
            break;
          case PageState::PrivateRo:
            if (tid == p.owner) {
                fault = write;
                if (write)
                    p.state = PageState::PrivateRw;
            } else {
                p.state = write ? PageState::SharedRw : PageState::SharedRo;
                res.becameUnsafe = write;
            }
            break;
          case PageState::PrivateRw:
            if (tid == p.owner)
                break;
            if (!write && cfg_.preserveReadOnly) {
                p.state = PageState::SharedRo;
                fault = true;
            } else {
                p.state = PageState::SharedRw;
                res.becameUnsafe = true;
            }
            break;
          case PageState::SharedRo:
            if (write) {
                p.state = PageState::SharedRw;
                res.becameUnsafe = true;
            }
            break;
          case PageState::SharedRw:
          case PageState::Annotated:
            break;
        }

        if (fault) {
            ++faults;
            res.cost += cfg_.minorFaultCycles;
        }
        if (res.becameUnsafe) {
            ++unsafeTransitions;
            res.cost += cfg_.shootdownInitiatorCycles;
            for (unsigned c = 0; c < tlbs_.size(); ++c) {
                std::list<Addr> &remote = tlbs_[c];
                const auto r =
                    std::find(remote.begin(), remote.end(), res.pageNum);
                if (c != ctx && r != remote.end()) {
                    remote.erase(r);
                    ++slaves;
                    res.slaveMask |= std::uint64_t(1) << c;
                }
            }
        }
        // Every state a touched page can be in but shared-rw is safe.
        res.safeRead = !write && p.state != PageState::SharedRw;
        res.revocable = p.state != PageState::Annotated;
        return res;
    }

    void
    annotate(Addr base, std::uint64_t len)
    {
        for (Addr page = base / pageBytes; page <= (base + len - 1) / pageBytes;
             ++page)
            pages[page].state = vm::PageState::Annotated;
    }

    /** Every page the FSM or an annotation has seen. */
    std::map<Addr, Page> pages;
    std::uint64_t hits = 0, misses = 0, faults = 0;
    std::uint64_t unsafeTransitions = 0, slaves = 0;

  private:
    const vm::VmConfig cfg_;
    /** Per context: cached page numbers, most recently used first. */
    std::vector<std::list<Addr>> tlbs_;
};

bool
sameResult(const vm::TranslateResult &a, const vm::TranslateResult &b)
{
    return a.safeRead == b.safeRead && a.revocable == b.revocable &&
           a.cost == b.cost && a.becameUnsafe == b.becameUnsafe &&
           a.slaveMask == b.slaveMask && a.pageNum == b.pageNum;
}

std::string
show(const vm::TranslateResult &r)
{
    std::ostringstream os;
    os << "page " << r.pageNum << " cost " << r.cost
       << (r.safeRead ? " safe" : " unsafe")
       << (r.revocable ? " revocable" : " irrevocable")
       << (r.becameUnsafe ? " becameUnsafe" : "") << " slaves 0x"
       << std::hex << r.slaveMask;
    return os.str();
}

} // namespace

class TranslationOracle : public ::testing::TestWithParam<OracleCase>
{
};

TEST_P(TranslationOracle, TranslateMatchesReferenceModel)
{
    const OracleCase &c = GetParam();
    vm::VmConfig cfg;
    cfg.dynamicClassification = c.policy != VmPolicy::Conventional;
    cfg.preserveReadOnly = c.policy == VmPolicy::Preserve;
    cfg.tlbEntries = c.tlbEntries;
    vm::Vm real(cfg);
    for (unsigned i = 0; i < c.contexts; ++i)
        ASSERT_EQ(real.addContext(), int(i));
    TranslateModel model(cfg, c.contexts);

    // Each context's working set: a pool of pages every context shares,
    // then private pages of its own. Even pages of either pool are
    // written now and then; odd ones are only ever read.
    const unsigned shared = c.spills ? 2 * c.tlbEntries
                                     : (c.tlbEntries + 1) / 2;
    const unsigned priv = c.spills ? 2 * c.tlbEntries : c.tlbEntries / 2;
    const unsigned set = shared + priv;
    const Addr base = 0x100;
    const auto page_addr = [&](unsigned ctx, unsigned j) {
        const Addr page = j < shared ? base + j
                                     : base + shared + ctx * priv + j - shared;
        return page * pageBytes;
    };
    const auto annotate = [&](Addr addr, std::uint64_t len) {
        real.annotateRange(addr, len);
        model.annotate(addr, len);
    };

    // A shared page that would otherwise go unsafe is annotated before
    // the stream; halfway through, an unaligned range covering the last
    // shared page and the page after it (context 0's first private page
    // when contexts have any).
    if (c.annotated)
        annotate(page_addr(0, 0), pageBytes);

    Rng rng(c.contexts * 1000003u + c.tlbEntries * 1009u +
            unsigned(c.policy) * 101u + c.spills * 8u + c.sweep * 4u +
            c.annotated * 2u + 1u);
    std::vector<unsigned> cursor(c.contexts);
    for (unsigned i = 0; i < c.contexts; ++i)
        cursor[i] = i % set;
    const unsigned steps = c.contexts * std::max(4 * set, 256u);
    for (unsigned step = 0; step < steps; ++step) {
        if (c.annotated && step == steps / 2)
            annotate(page_addr(0, shared - 1) + pageBytes / 2, pageBytes);
        const unsigned ctx = unsigned(rng.below(c.contexts));
        // The machine runs one software thread per context; the ids
        // differ from the context numbers.
        const ThreadId tid = ThreadId(c.contexts - 1 - ctx);
        const unsigned j =
            c.sweep ? cursor[ctx]++ % set : unsigned(rng.below(set));
        const bool writable = (j < shared ? j : j - shared) % 2 == 0;
        const AccessType type = writable && rng.below(4) == 0
                                    ? AccessType::Write
                                    : AccessType::Read;
        const Addr addr = page_addr(ctx, j) + rng.below(pageBytes / 8) * 8;
        const vm::TranslateResult got =
            real.translate(int(ctx), tid, addr, type);
        const vm::TranslateResult want = model.translate(ctx, tid, addr, type);
        ASSERT_TRUE(sameResult(got, want))
            << "step " << step << ": ctx " << ctx
            << (type == AccessType::Write ? " writes " : " reads ") << "0x"
            << std::hex << addr << "\n  translate: " << show(got)
            << "\n  model:     " << show(want);
    }

    stats::StatGroup &st = real.statGroup();
    EXPECT_EQ(st.counter("tlb_hits").value(), model.hits);
    EXPECT_EQ(st.counter("tlb_misses").value(), model.misses);
    EXPECT_EQ(st.counter("minor_faults").value(), model.faults);
    EXPECT_EQ(st.counter("unsafe_transitions").value(),
              model.unsafeTransitions);
    EXPECT_EQ(st.counter("shootdown_slaves").value(), model.slaves);

    const vm::PageTable &pt = real.pageTable();
    EXPECT_EQ(pt.totalPages(), model.pages.size());
    for (const auto &[page, p] : model.pages) {
        EXPECT_EQ(pt.stateOf(page * pageBytes), p.state) << "page " << page;
        EXPECT_EQ(pt.ownerOf(page * pageBytes), p.owner) << "page " << page;
    }

    // LRU on its own: a cyclic sweep over four times the TLB's reach
    // evicts every page before it comes round again.
    if (c.sweep && c.spills)
        EXPECT_EQ(st.counter("tlb_hits").value(), 0u);
    else
        EXPECT_GT(st.counter("tlb_hits").value(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Grid, TranslationOracle,
                         ::testing::ValuesIn(allOracleCases()));

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
 * (MemConfig::directory), the Instr-walking interpreter
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
    static const char *const paths[] = {"Broadcast", "Interpreter",
                                        "SchedScan"};
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
    for (const RefPath path :
         {RefPath::Broadcast, RefPath::Interpreter, RefPath::SchedScan})
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
    ASSERT_TRUE(fast.mem.directory && fast.decodeCache && fast.schedIndex);
    sim::MachineConfig ref = fast;
    switch (c.path) {
      case RefPath::Broadcast: ref.mem.directory = false; break;
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

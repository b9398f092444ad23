/**
 * @file
 * Virtual-memory facade for HinTM's dynamic classification: combines the
 * thread-level page table (Fig. 2 state machine), per-context TLBs with
 * safety bits, and the published cost model for minor faults and TLB
 * shootdowns (§V: 6600-cycle initiator, 1450-cycle slaves, 1450-cycle
 * minor fault).
 *
 * A per-context translation/classification cache (translateFast) memoizes
 * the fused TLB-hit + safety derivation per page so the simulator's inner
 * loop does one direct-mapped probe instead of a hash lookup plus FSM
 * logic per access. It is invalidated through the TLB's evict observer on
 * every event that could change a page's classification, and it refreshes
 * the underlying TLB entry's LRU stamp on each hit, so results (timing,
 * stats, classifications) are bit-identical to the uncached path.
 */

#ifndef HINTM_VM_VM_HH
#define HINTM_VM_VM_HH

#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"

namespace hintm
{
namespace vm
{

/** Configuration of the VM subsystem. */
struct VmConfig
{
    /** Master switch: false models a conventional system (no safety
     * tracking, no HinTM-induced faults). */
    bool dynamicClassification = true;
    /** The "HinTM + preserve" read-only-preserving policy (§VI-B). */
    bool preserveReadOnly = false;

    unsigned tlbEntries = 64;
    Cycle pageWalkCycles = 30;
    Cycle minorFaultCycles = 1450;
    Cycle shootdownInitiatorCycles = 6600;
    Cycle shootdownSlaveCycles = 1450;

    /** Enable the per-context translation/classification memo
     * (translateFast). Off = reference path for cross-checking. */
    bool translationCache = true;
};

/** Result of translating (and safety-classifying) one access. */
struct TranslateResult
{
    /** The access may be treated as dynamically safe (reads only). */
    bool safeRead = false;
    /** Safety comes from the sharing FSM and can be revoked by a page
     * transition (false for irrevocable programmer annotations). */
    bool revocable = true;
    /** Cycles charged to the accessing context (walk/fault/shootdown). */
    Cycle cost = 0;
    /** Page moved to shared-rw: active TXs that read it as safe must
     * abort, and remote TLBs were shot down. */
    bool becameUnsafe = false;
    /** Per-context stall cycles for shootdown slaves (index = context). */
    std::vector<std::pair<int, Cycle>> slaveCosts;
    /** Page number of the access. */
    Addr pageNum = 0;
};

/**
 * The VM subsystem. One instance per simulated machine; contexts are
 * registered up front (one per hardware thread).
 */
class Vm
{
  public:
    explicit Vm(const VmConfig &cfg);

    /** Register a hardware context; @return its id (dense from 0). */
    int addContext();

    /**
     * Translate an access by software thread @p tid running on hardware
     * context @p ctx. Updates page/TLB state and returns the safety
     * classification plus all modeled costs.
     */
    TranslateResult translate(int ctx, ThreadId tid, Addr addr,
                              AccessType type);

    /**
     * Memoized fast path: resolve a TLB-hit, non-transitioning access
     * from the per-context classification cache. @return true when
     * @p res was filled (bit-identical to what translate() would
     * produce, including stat/LRU effects); false means the caller must
     * take translate().
     */
    bool
    translateFast(int ctx, Addr addr, AccessType type,
                  TranslateResult &res)
    {
        if (!fastEnabled_)
            return false;
        const Addr page = pageNumber(addr);
        ClassEntry &e = classCaches_[ctx][page & (classSlots - 1)];
        if (e.page != page)
            return false;
        const bool is_write = type == AccessType::Write;
        if (is_write && !e.writeOk)
            return false; // write would transition the page: slow path
        ++*cTlbHits_;
        tlbs_[ctx]->touch(e.tlbEntry);
        res.pageNum = page;
        res.safeRead = !is_write && e.readSafe;
        res.revocable = is_write ? e.writeRevocable : e.readRevocable;
        return true;
    }

    /**
     * Apply a Notary-style annotation: mark the pages covering
     * [base, base+len) permanently safe and refresh every TLB's cached
     * state so no stale classification survives.
     */
    void annotateRange(Addr base, std::uint64_t len);

    const PageTable &pageTable() const { return *pt_; }
    PageTable &pageTable() { return *pt_; }
    const VmConfig &config() const { return cfg_; }

    stats::StatGroup &statGroup() { return stats_; }

  private:
    static constexpr unsigned classSlots = 256;

    /** One memoized (context, page) classification. Direct-mapped. */
    struct ClassEntry
    {
        Addr page = ~Addr(0);
        Tlb::Entry *tlbEntry = nullptr;
        bool readSafe = false;
        bool readRevocable = true;
        bool writeOk = false;
        bool writeRevocable = true;
    };

    /** Memoize @p state's derived classification for (ctx, page). */
    void fillClassEntry(int ctx, Addr page, PageState state,
                        Tlb::Entry *te);

    VmConfig cfg_;
    std::unique_ptr<PageTable> pt_;
    std::vector<std::unique_ptr<Tlb>> tlbs_;
    std::vector<std::vector<ClassEntry>> classCaches_;
    bool fastEnabled_;
    stats::StatGroup stats_{"vm"};

    // Hot counters, resolved once instead of by-name per access.
    stats::Counter *cTlbHits_;
    stats::Counter *cTlbMisses_;
    stats::Counter *cMinorFaults_;
    stats::Counter *cUnsafeTransitions_;
    stats::Counter *cShootdownSlaves_;
};

} // namespace vm
} // namespace hintm

#endif // HINTM_VM_VM_HH

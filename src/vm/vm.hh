/**
 * @file
 * Virtual-memory facade for HinTM's dynamic classification: combines the
 * thread-level page table (Fig. 2 state machine), per-context TLBs with
 * safety bits, and the published cost model for minor faults and TLB
 * shootdowns (§V: 6600-cycle initiator, 1450-cycle slaves, 1450-cycle
 * minor fault).
 *
 * translate() answers a TLB hit whose cached state the access cannot
 * change from the safety bits the entry holds (§IV-B); a miss or a
 * state-changing write walks the page table and runs the FSM.
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
    /** Contexts whose TLB entry was shot down (bit = context); each
     * stalls VmConfig::shootdownSlaveCycles. */
    std::uint64_t slaveMask = 0;
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

    /** Register a hardware context (at most 64); @return its id (dense
     * from 0). */
    int addContext();

    /**
     * Translate an access by software thread @p tid running on hardware
     * context @p ctx. Updates page/TLB state and returns the safety
     * classification plus all modeled costs.
     */
    TranslateResult translate(int ctx, ThreadId tid, Addr addr,
                              AccessType type);

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
    VmConfig cfg_;
    std::unique_ptr<PageTable> pt_;
    std::vector<std::unique_ptr<Tlb>> tlbs_;
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

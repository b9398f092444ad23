/**
 * @file
 * The per-hardware-context HTM controller. Implements eager,
 * coherence-based conflict detection for four baseline configurations
 * (§V): P8 (64-entry dedicated buffer), P8S (P8 + read signature), L1TM
 * (tracking in the L1 data cache) and InfCap (unbounded). HinTM's safety
 * hints arrive as a per-access flag: safe accesses skip all tracking.
 */

#ifndef HINTM_HTM_CONTROLLER_HH
#define HINTM_HTM_CONTROLLER_HH

#include <functional>
#include <string>

#include "common/flat_set.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "htm/abort.hh"
#include "htm/signature.hh"
#include "htm/tx_buffer.hh"
#include "mem/snoop_listener.hh"

namespace hintm
{
namespace mem
{
class Directory;
class MemorySystem;
}

namespace htm
{

class HintOracle;

/** Baseline HTM hardware organization. */
enum class HtmKind : std::uint8_t
{
    P8,     ///< dedicated 64-entry fully-associative TX buffer (POWER8)
    P8S,    ///< P8 plus a read signature for readset overflow
    L1TM,   ///< transactional state tracked in the L1 data cache
    InfCap, ///< unbounded tracking (capacity-ideal upper bound)
};

const char *htmKindName(HtmKind k);

/** Parse the lower-case CLI spelling of a kind ("p8", "p8s", "l1tm",
 * "infcap"): false, leaving @p out untouched, for any other string. */
bool htmKindByName(const std::string &name, HtmKind &out);

/** Who loses an eager conflict between two hardware TXs. */
enum class ConflictPolicy : std::uint8_t
{
    /** The TX receiving the conflicting coherence message aborts
     * (POWER8-style; the default everywhere in the paper). */
    AttackerWins,
    /** The requesting TX aborts itself before disturbing the holder
     * (Blue Gene/Q-flavored requester-fails). Non-transactional
     * requesters still win. */
    RequesterLoses,
};

const char *conflictPolicyName(ConflictPolicy p);

/** HTM hardware parameters. */
struct HtmConfig
{
    HtmKind kind = HtmKind::P8;
    unsigned bufferEntries = 64;
    unsigned signatureBits = 1024;
    unsigned signatureHashes = 2;
    Cycle beginCycles = 5;
    Cycle commitCycles = 10;
    /** Architectural-restore cost charged on every abort. */
    Cycle abortHandlerCycles = 50;
    /** Pre-abort handler [51]: a capacity overflow raises
     * capacityPending() instead of aborting, giving the runtime a
     * chance to convert the TX into a lock-protected critical section
     * without losing its work. */
    bool preAbortHandler = false;
    /** Conflict-loser selection (ablation axis; paper = AttackerWins). */
    ConflictPolicy conflictPolicy = ConflictPolicy::AttackerWins;
};

/** System-wide HTM statistics, shared by all controllers. */
struct HtmStats
{
    std::uint64_t begins = 0;
    std::uint64_t commits = 0;
    std::uint64_t aborts[numAbortReasons] = {};
    /** TX cycles thrown away per abort reason. */
    std::uint64_t cyclesLost[numAbortReasons] = {};
    /** Tracked (unsafe) blocks at commit time. */
    stats::Distribution trackedAtCommit{1, 4096};
    /** Read signature spills (P8S). */
    std::uint64_t signatureSpills = 0;
    /** Capacity overflows converted into critical sections (pre-abort
     * handler) instead of aborting. */
    std::uint64_t preAbortConversions = 0;

    std::uint64_t
    totalAborts() const
    {
        std::uint64_t n = 0;
        for (auto a : aborts)
            n += a;
        return n;
    }
};

/**
 * One controller per hardware thread context. The sim layer drives
 * begin/track/commit; the memory system drives the SnoopListener side.
 */
class HtmController : public mem::SnoopListener
{
  public:
    HtmController(const HtmConfig &cfg, mem::ContextId self,
                  HtmStats *sys_stats);

    /**
     * Hook invoked exactly once when an abort fires, before any other
     * context's access completes: must functionally undo the TX's stores.
     */
    void setUndoHook(std::function<void()> hook) { undoHook_ = hook; }

    /**
     * Attach the dynamic hint oracle (may be null). The controller only
     * reports safe-skip events to it; all shadow tracking happens on the
     * oracle's MemorySystem observer side.
     */
    void setHintOracle(HintOracle *oracle) { oracle_ = oracle; }

    /**
     * Attach the coherence directory (null = broadcast mode).
     * The controller then registers every precisely-tracked block (and
     * its signature liveness) with the directory, letting the memory
     * system deliver bus events only to contexts that can conflict.
     */
    void attachDirectory(mem::Directory *dir) { dir_ = dir; }

    /**
     * L1TM: keep this context's tracking bits in the lines of its L1
     * in @p mem, as the paper's L1TM does, so tracked lines are sticky.
     * The controller sets a line's bit when it newly tracks a resident
     * block, clears its bits when the TX ends, and answers
     * tracksBlock() when the L1 fills a line. A no-op for other kinds.
     */
    void attachL1(mem::MemorySystem *mem);

    /** Enter transactional mode. */
    void beginTx(Cycle now);

    /**
     * Record one transactional access. Safe accesses (@p safe) skip
     * tracking entirely. May trigger a capacity abort; check
     * abortPending() afterwards — when pending, the access must not be
     * performed architecturally.
     * @return the TxBuffer NewlyRead/NewlyWritten bits this access
     * newly tracked (zero when it was safe-skipped, untracked, or
     * overflowed). Lets observers count distinct footprint growth
     * without shadowing the read/write sets.
     */
    std::uint8_t trackAccess(Addr addr, AccessType type, bool safe);

    /** Remember that this TX read @p page_num under a dynamic-safe hint. */
    void noteSafePageRead(Addr page_num);

    /** Commit: publish (drop tracking) and account statistics. */
    void commitTx(Cycle now);

    /**
     * Thread-side acknowledgement of a pending abort: accounts lost
     * cycles, clears tracking state, leaves TX mode.
     * @return the abort reason (for the retry policy).
     */
    AbortReason acknowledgeAbort(Cycle now);

    /** A page this TX may have read as safe turned unsafe. */
    void onPageBecameUnsafe(Addr page_num);

    /** External abort request (e.g. fallback-lock acquisition).
     * @p offender optionally names the context responsible (journal
     * attribution; -1 = unknown). */
    void requestAbort(AbortReason r, std::int32_t offender = -1)
    {
        triggerAbort(r, 0, false, offender);
    }

    /** Pre-abort handler: a capacity overflow awaits a runtime decision
     * (only raised when config().preAbortHandler). */
    bool capacityPending() const { return capacityPending_; }

    /**
     * Pre-abort conversion: the runtime acquired the fallback lock, so
     * this TX continues as a critical section. Tracking state is
     * dropped without any rollback; the TX is no longer hardware-
     * monitored. The overflowing access may then be (re-)performed.
     */
    void convertToCriticalSection();

    /** Pre-abort conversion impossible (lock held): abort normally. */
    void declineConversion();

    // SnoopListener interface.
    void onRemoteAccess(Addr block_addr, AccessType type,
                        mem::ContextId requester) override;
    void onEviction(Addr block_addr, bool dirty) override;
    bool tracksBlock(Addr block_addr) const override;

    bool inTx() const { return inTx_; }
    bool abortPending() const { return abortPending_; }
    AbortReason pendingReason() const { return pendingReason_; }

    // Abort attribution (journal observability). Captured at the point
    // the abort is signalled; valid from then until the next abort.
    /** Offending block-aligned address (page base for page-mode);
     * meaningful only when lastAbortAddrValid(). */
    Addr lastAbortAddr() const { return lastAbortAddr_; }
    bool lastAbortAddrValid() const { return lastAbortAddrValid_; }
    /** Context whose access killed the TX (-1 = none/unknown). */
    std::int32_t lastAbortCtx() const { return lastAbortCtx_; }

    /** Distinct tracked (unsafe) blocks in the current TX. */
    std::size_t trackedBlocks() const;

    /** Readset blocks (precise buffer reads + signature spills). */
    std::size_t readSetBlocks() const;
    /** Writeset blocks. */
    std::size_t writeSetBlocks() const;

    /** True when @p block_addr is in the precise readset. */
    bool readsBlock(Addr block_addr) const;
    /** True when @p block_addr is in the precise writeset. */
    bool writesBlock(Addr block_addr) const;

    /** Visit every tracked block: buffer entries, then spilled reads.
     * A P8S block spilled as a read and later re-buffered by a write
     * is visited twice; on L1TM/P8 (no spills) each block is visited
     * exactly once. Observational (metrics capacity model). */
    template <typename Fn>
    void
    forEachTrackedBlock(Fn &&fn) const
    {
        for (const auto &kv : buffer_.entries())
            fn(kv.first);
        overflowReads_.forEach(fn);
    }

    /** Would a remote access of @p type to @p block_addr conflict with
     * this TX's tracked state? (Requester-loses pre-flight check; does
     * not count signature aliasing — a requester cannot see those.) */
    bool conflictsWith(Addr block_addr, AccessType type) const;

    const HtmConfig &config() const { return cfg_; }

  private:
    void triggerAbort(AbortReason r, Addr offending_addr,
                      bool addr_valid, std::int32_t offender);
    void clearTxState();

    HtmConfig cfg_;
    mem::ContextId self_;
    HtmStats *stats_;
    std::function<void()> undoHook_;
    HintOracle *oracle_ = nullptr;
    mem::Directory *dir_ = nullptr;
    /** L1TM: the memory system whose L1 lines carry this TX's bits. */
    mem::MemorySystem *l1_ = nullptr;

    bool inTx_ = false;
    bool abortPending_ = false;
    bool capacityPending_ = false;
    AbortReason pendingReason_ = AbortReason::None;
    Cycle txStart_ = 0;
    Addr lastAbortAddr_ = 0;
    bool lastAbortAddrValid_ = false;
    std::int32_t lastAbortCtx_ = -1;
    /** Block that raised a pending pre-abort capacity overflow. */
    Addr capacityPendingBlock_ = 0;

    /** Precise tracking structure. For P8/P8S this is the dedicated
     * buffer (bounded); for L1TM/InfCap an unbounded shadow of the
     * tracked state. */
    TxBuffer buffer_;
    /** P8S: readset blocks spilled past the buffer, summarized in the
     * signature; kept precisely here to tell false from true conflicts. */
    AddrSet overflowReads_;
    Signature signature_;
    /** Pages read under a dynamic safety hint during this TX. */
    AddrSet safePages_;
};

} // namespace htm
} // namespace hintm

#endif // HINTM_HTM_CONTROLLER_HH

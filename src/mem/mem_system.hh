/**
 * @file
 * The memory hierarchy facade: per-core private L1 data caches kept
 * coherent by MESI, backed by a shared non-inclusive L2 and a
 * flat-latency memory (Table II organization).
 *
 * Coherence runs in one of two modes:
 *
 *  - Directory (default): a mem::Directory records each block's sharer
 *    L1s. Bus probes visit only the L1s that really hold the block, and
 *    listener delivery is additionally filtered by the directory's
 *    per-block transactional-tracker masks, so the per-access cost is
 *    O(sharers + trackers) independent of the core count.
 *
 *  - Broadcast (MemConfig::directory = false): the reference path
 *    probes every L1 and delivers every listener event, O(cores) per
 *    access. Bit-identical results; kept only as the oracle the
 *    equivalence tests compare the directory against.
 *
 * Every per-context and per-L1 mask is 64 bits wide, so contexts and
 * the L1s they use are numbered below 64 in both modes (the machine
 * rejects bigger thread counts up front).
 *
 * Independently of the mode, a two-tier NUMA latency model charges
 * remote-home bus transactions extra cycles when MemConfig::numaNodes
 * is above one (L1s are grouped into contiguous nodes; a block's home
 * node is its block number modulo the node count).
 */

#ifndef HINTM_MEM_MEM_SYSTEM_HH
#define HINTM_MEM_MEM_SYSTEM_HH

#include <memory>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/cache_array.hh"
#include "mem/directory.hh"
#include "mem/snoop_listener.hh"

namespace hintm
{

class MetricsRegistry; // common/metrics.hh

namespace mem
{

/** Timing and shape parameters of the hierarchy (paper Table II defaults). */
struct MemConfig
{
    std::uint64_t l1SizeBytes = 32 * 1024;
    unsigned l1Assoc = 8;
    Cycle l1Latency = 3;

    std::uint64_t l2SizeBytes = 8 * 1024 * 1024;
    unsigned l2Assoc = 16;
    Cycle l2Latency = 12;

    Cycle memLatency = 100;
    /** Extra cycles for a bus upgrade (invalidate-only) transaction. */
    Cycle upgradeLatency = 8;

    /** Coherence directory + tracker-filtered listener delivery.
     * Off = reference broadcast path (bit-identical results, O(cores)
     * per access), selected by the equivalence tests. */
    bool directory = true;

    /** NUMA-ish latency tiers: L1s are split into this many contiguous
     * nodes and bus transactions whose home directory node differs from
     * the requester's pay numaRemoteLatency extra. 1 = flat (paper). */
    unsigned numaNodes = 1;
    /** Extra cycles for a remote-home bus transaction. */
    Cycle numaRemoteLatency = 24;
};

/** Outcome of one memory access, consumed by the core timing model. */
struct AccessResult
{
    Cycle latency = 0;
    bool l1Hit = false;
    bool l2Hit = false;
};

/**
 * Optional tap on every access entering the hierarchy (the hint
 * oracle's shadow tracker). Purely observational: implementations must
 * not touch caches or timing.
 */
class AccessObserver
{
  public:
    virtual ~AccessObserver() = default;
    virtual void onAccess(ContextId ctx, Addr addr, AccessType type) = 0;
};

/**
 * The full memory system. Hardware thread contexts are registered up front
 * with the L1 they share (SMT siblings share one L1); each access then
 * flows L1 -> coherence -> L2 -> memory with MESI state maintenance,
 * delivering SnoopListener events along the way.
 */
class MemorySystem
{
  public:
    MemorySystem(const MemConfig &cfg, unsigned num_l1s);

    /**
     * Register a hardware context using L1 @p l1_id (both below 64).
     * @return the new context's id
     */
    ContextId addContext(unsigned l1_id);

    /**
     * Attach the HTM-side observer for a context (may be null). A fresh
     * listener starts *unfiltered*: it receives every event, as a plain
     * observer expects. Transactional controllers opt into tracker
     * filtering via setListenerTxFiltered().
     */
    void setListener(ContextId ctx, SnoopListener *listener);

    /**
     * Opt @p ctx's listener into directory tracker-filtered delivery:
     * remote accesses (bus or same-L1 sibling) and evictions reach it
     * only when the directory records the context as tracking the
     * block, plus, for writes, while it is signature-active. Only
     * valid for listeners whose event handling is a no-op on untracked
     * blocks — i.e. HTM controllers, which register every tracked block
     * with the directory. Plain observers must stay unfiltered.
     */
    void setListenerTxFiltered(ContextId ctx, bool filtered);

    /**
     * L1TM: keep @p ctx's transactional tracking bits in the lines of
     * its L1 (CacheLine::txMask, bit = the context's slot on that L1).
     * From now on every fill of that L1 asks the context's listener
     * whether its TX tracks the block (SnoopListener::tracksBlock) and
     * seeds the new line's bit from the answer; the controller sets and
     * clears the bit of a resident line through setLineTracked(). Lines
     * with any bit set are evicted only when their whole set is pinned.
     * Fatal when the L1 holds more contexts than a mask has bits.
     */
    void pinTrackedLines(ContextId ctx);

    /** Set or clear @p ctx's TX bit on the line holding @p addr's block
     * in its L1; a no-op when the block is not resident. LRU state is
     * untouched. */
    void setLineTracked(ContextId ctx, Addr addr, bool tracked);

    /**
     * Install an observer invoked at the entry of every access(), before
     * any cache state changes (may be null to detach). Observation only:
     * the access proceeds identically with or without it.
     */
    void setAccessObserver(AccessObserver *obs) { observer_ = obs; }

    /**
     * Attach the capacity-pressure metrics registry (may be null to
     * detach). When set, every bus transaction samples the peer-sharer
     * histogram and the requester-node x home-node traffic matrix.
     * Observation only: accesses proceed identically either way.
     */
    void setMetricsSink(MetricsRegistry *metrics);

    /** Geometry shared by every L1 (the machine's hint-saved verdict
     * needs set/assoc arithmetic). */
    const CacheGeometry &l1Geometry() const { return l1s_[0]->geometry(); }

    /** Scan the valid lines of the L1 set @p addr maps to in @p ctx's
     * L1 (the metrics layer's overflowing-set occupancy breakdown). */
    template <typename Fn>
    void
    forEachValidInL1Set(ContextId ctx, Addr addr, Fn &&fn) const
    {
        l1s_[contexts_[ctx].l1]->forEachValidInSet(
            blockAlign(addr), std::forward<Fn>(fn));
    }

    /**
     * Perform one access and return its latency. Remote-context listeners
     * are notified before the call returns, so any conflict abort (and its
     * functional rollback) is complete when the requester's value is read.
     */
    AccessResult access(ContextId ctx, Addr addr, AccessType type);

    /** Probe a context's L1 for a block (testing aid). */
    const CacheLine *probeL1(ContextId ctx, Addr addr) const;

    /** True when the directory + tracker-filtered delivery are in
     * effect. */
    bool directoryActive() const { return cfg_.directory; }

    /** The directory, or null in broadcast mode. Controllers use it to
     * register transactional trackers; the controlled loop reads its
     * sharer masks to prune independent decisions. */
    Directory *directory() { return cfg_.directory ? &dir_ : nullptr; }

    /** Directory sharer mask of a block (testing aid; 0 when the
     * directory is inactive). */
    std::uint64_t sharerMaskOf(Addr addr) const;

    /** NUMA node of an L1 (always 0 in flat configurations). */
    unsigned nodeOfL1(unsigned l1_id) const { return l1Node_[l1_id]; }

    /** NUMA home node of an address's block. */
    unsigned
    homeNodeOf(Addr addr) const
    {
        return numaNodes_ <= 1
                   ? 0
                   : unsigned(blockNumber(addr) % numaNodes_);
    }

    stats::StatGroup &statGroup() { return stats_; }
    const MemConfig &config() const { return cfg_; }

  private:
    struct Context
    {
        unsigned l1;
        /** Position among the contexts sharing the L1 (its TX bit). */
        unsigned slot;
        SnoopListener *listener = nullptr;
    };

    /** TX bits for a line of @p block filled into L1 @p l1: one
     * tracksBlock() query per pinning context on that L1. */
    TxMask
    trackedSeed(unsigned l1, Addr block) const
    {
        TxMask seed = 0;
        for (const ContextId c : pinners_[l1]) {
            if (contexts_[c].listener->tracksBlock(block))
                seed |= TxMask(1) << contexts_[c].slot;
        }
        return seed;
    }

    /** Snoop peer L1s for a bus transaction; returns true if any peer had
     * a valid copy (decides Exclusive vs Shared fill). */
    bool snoopPeers(unsigned requester_l1, Addr block, BusOp op);

    /** Contexts that may act on a remote @p type access to @p block:
     * unfiltered listeners, the block's trackers and, for writes,
     * signature-active contexts (directory mode only). */
    std::uint64_t
    deliveryMask(Addr block, AccessType type) const
    {
        std::uint64_t m = fullDeliveryMask_ | dir_.txTrackers(block);
        if (type == AccessType::Write)
            m |= dir_.sigActiveMask();
        return m;
    }

    /** Deliver onRemoteAccess to every context except the requester. */
    void notifyBus(ContextId requester, Addr block, AccessType type);

    /** Deliver onRemoteAccess to same-L1 siblings only (L1-hit case). */
    void notifySiblings(ContextId requester, Addr block, AccessType type);

    /** Deliver an eviction to every context sharing the L1. */
    void notifyEviction(unsigned l1, Addr block, bool dirty);

    /** L2 lookup/fill; returns the resulting latency beyond the L1. */
    Cycle accessL2(Addr block, bool fill_dirty);

    /** One snoop operation against a single peer L1's copy of @p block.
     * @return true when the peer held a valid copy. */
    bool snoopOne(unsigned l1, Addr block, BusOp op);

    /** Metrics tap at each bus transaction: peer-sharer count (probed
     * before the snoop mutates peer state, identically in both
     * coherence modes) and the NUMA traffic matrix cell. */
    void sampleBusMetrics(unsigned requester_l1, Addr block);

    /** Extra cycles when @p l1_id's bus transaction targets a block
     * whose home directory node is remote (0 in flat configurations). */
    Cycle
    numaPenalty(unsigned l1_id, Addr block)
    {
        if (numaNodes_ <= 1)
            return 0;
        if (l1Node_[l1_id] == homeNodeOf(block))
            return 0;
        ++*cNumaRemote_;
        return cfg_.numaRemoteLatency;
    }

    MemConfig cfg_;
    std::vector<std::unique_ptr<CacheArray>> l1s_;
    /** Per L1: the contexts whose TX bits its lines carry (L1TM). */
    std::vector<std::vector<ContextId>> pinners_;
    std::unique_ptr<CacheArray> l2_;
    std::vector<Context> contexts_;
    stats::StatGroup stats_{"mem"};

    Directory dir_;
    AccessObserver *observer_ = nullptr;
    MetricsRegistry *metrics_ = nullptr;
    /** Contexts whose listeners must see every bus event (not opted
     * into tracker filtering). */
    std::uint64_t fullDeliveryMask_ = 0;
    std::vector<std::uint64_t> l1CtxMask_;
    /** NUMA node of each L1 (contiguous grouping). */
    std::vector<unsigned> l1Node_;
    unsigned numaNodes_ = 1;

    // Hot counters, resolved once instead of by-name per access.
    stats::Counter *cReads_;
    stats::Counter *cWrites_;
    stats::Counter *cL1Hits_;
    stats::Counter *cL1Misses_;
    stats::Counter *cL1Evictions_;
    stats::Counter *cUpgrades_;
    stats::Counter *cInvalidations_;
    stats::Counter *cWritebacks_;
    stats::Counter *cL2Hits_;
    stats::Counter *cL2Misses_;
    stats::Counter *cNumaRemote_;
};

} // namespace mem
} // namespace hintm

#endif // HINTM_MEM_MEM_SYSTEM_HH

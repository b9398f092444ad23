#include "mem_system.hh"

#include <bit>

#include "common/logging.hh"
#include "common/metrics.hh"

namespace hintm
{
namespace mem
{

MemorySystem::MemorySystem(const MemConfig &cfg, unsigned num_l1s)
    : cfg_(cfg)
{
    HINTM_ASSERT(num_l1s >= 1, "need at least one L1");
    const CacheGeometry l1_geom(cfg.l1SizeBytes, cfg.l1Assoc);
    for (unsigned i = 0; i < num_l1s; ++i)
        l1s_.push_back(std::make_unique<CacheArray>(l1_geom));
    pinners_.resize(num_l1s);
    l2_ = std::make_unique<CacheArray>(
        CacheGeometry(cfg.l2SizeBytes, cfg.l2Assoc));

    l1CtxMask_.assign(num_l1s, 0);

    // Contiguous NUMA grouping: L1s [0, n/k), [n/k, 2n/k), ... share a
    // node. Identical in both coherence modes; 1 node = flat machine.
    numaNodes_ = cfg.numaNodes ? cfg.numaNodes : 1;
    if (numaNodes_ > num_l1s)
        numaNodes_ = num_l1s;
    l1Node_.resize(num_l1s);
    for (unsigned i = 0; i < num_l1s; ++i)
        l1Node_[i] = unsigned(std::uint64_t(i) * numaNodes_ / num_l1s);

    cReads_ = &stats_.counter("reads");
    cWrites_ = &stats_.counter("writes");
    cL1Hits_ = &stats_.counter("l1_hits");
    cL1Misses_ = &stats_.counter("l1_misses");
    cL1Evictions_ = &stats_.counter("l1_evictions");
    cUpgrades_ = &stats_.counter("upgrades");
    cInvalidations_ = &stats_.counter("invalidations");
    cWritebacks_ = &stats_.counter("writebacks");
    cL2Hits_ = &stats_.counter("l2_hits");
    cL2Misses_ = &stats_.counter("l2_misses");
    cNumaRemote_ = &stats_.counter("numa_remote");
}

ContextId
MemorySystem::addContext(unsigned l1_id)
{
    HINTM_ASSERT(l1_id < l1s_.size() && l1_id < 64, "bad L1 id ", l1_id);
    HINTM_ASSERT(contexts_.size() < 64, "more than 64 contexts");
    unsigned slot = 0;
    for (const Context &c : contexts_)
        slot += c.l1 == l1_id;
    contexts_.push_back(Context{l1_id, slot, nullptr});
    const ContextId id = ContextId(contexts_.size() - 1);
    l1CtxMask_[l1_id] |= std::uint64_t(1) << unsigned(id);
    return id;
}

void
MemorySystem::setListener(ContextId ctx, SnoopListener *listener)
{
    contexts_.at(ctx).listener = listener;
    // A plain observer expects every event; transactional controllers
    // opt into tracker filtering themselves once hooked up.
    setListenerTxFiltered(ctx, listener == nullptr);
}

void
MemorySystem::setListenerTxFiltered(ContextId ctx, bool filtered)
{
    HINTM_ASSERT(ctx >= 0 && ctx < ContextId(contexts_.size()),
                 "bad context ", ctx);
    const std::uint64_t bit = std::uint64_t(1) << unsigned(ctx);
    if (filtered)
        fullDeliveryMask_ &= ~bit;
    else
        fullDeliveryMask_ |= bit;
}

void
MemorySystem::setMetricsSink(MetricsRegistry *metrics)
{
    metrics_ = metrics;
    if (metrics_)
        metrics_->initNuma(numaNodes_);
}

void
MemorySystem::sampleBusMetrics(unsigned requester_l1, Addr block)
{
    // Node-crossing traffic only exists with multiple NUMA nodes; the
    // 1x1 matrix is never rendered, so skip its upkeep entirely.
    if (numaNodes_ > 1)
        ++metrics_->numaTraffic(l1Node_[requester_l1], homeNodeOf(block));
    // The sharer census probes every peer L1, so it is decimated:
    // every sharerSampleEvery-th bus transaction. Peer copies are
    // probed directly (not through the directory, whose sharer bits
    // can be stale) so the histogram is identical in directory and
    // broadcast modes.
    if (metrics_->busEvents++ % MetricsRegistry::sharerSampleEvery != 0)
        return;
    unsigned sharers = 0;
    for (unsigned i = 0; i < l1s_.size(); ++i)
        if (i != requester_l1 && l1s_[i]->probe(block))
            ++sharers;
    metrics_->sharersAtBus.add(sharers);
}

void
MemorySystem::pinTrackedLines(ContextId ctx)
{
    const Context &c = contexts_.at(ctx);
    HINTM_ASSERT(c.listener, "context ", ctx, " pins without a listener");
    if (c.slot >= txMaskBits) {
        HINTM_FATAL("L1 ", c.l1, " holds more than ", txMaskBits,
                    " contexts; tracking in the L1 supports at most ",
                    txMaskBits, " per L1");
    }
    pinners_[c.l1].push_back(ctx);
}

void
MemorySystem::setLineTracked(ContextId ctx, Addr addr, bool tracked)
{
    const Context &c = contexts_[ctx];
    if (CacheLine *line = l1s_[c.l1]->probe(blockAlign(addr))) {
        const TxMask bit = TxMask(1) << c.slot;
        line->txMask = tracked ? line->txMask | bit : line->txMask & ~bit;
    }
}

const CacheLine *
MemorySystem::probeL1(ContextId ctx, Addr addr) const
{
    return l1s_[contexts_.at(ctx).l1]->probe(blockAlign(addr));
}

std::uint64_t
MemorySystem::sharerMaskOf(Addr addr) const
{
    return cfg_.directory ? dir_.sharers(blockAlign(addr)) : 0;
}

bool
MemorySystem::snoopOne(unsigned l1, Addr block, BusOp op)
{
    CacheLine *line = l1s_[l1]->lookup(block);
    if (!line)
        return false;
    switch (op) {
      case BusOp::Read:
        // Owner supplies data and downgrades; dirty data reaches L2.
        if (line->state == CoherState::Modified) {
            ++*cWritebacks_;
            l2_->insert(block, CoherState::Modified);
        }
        line->state = CoherState::Shared;
        break;
      case BusOp::ReadExcl:
      case BusOp::Upgrade:
        if (line->state == CoherState::Modified) {
            ++*cWritebacks_;
            l2_->insert(block, CoherState::Modified);
        }
        line->state = CoherState::Invalid;
        ++*cInvalidations_;
        if (cfg_.directory)
            dir_.removeSharer(block, l1);
        break;
    }
    return true;
}

bool
MemorySystem::snoopPeers(unsigned requester_l1, Addr block, BusOp op)
{
    bool peer_had_copy = false;
    if (cfg_.directory) {
        std::uint64_t m = dir_.sharers(block) &
                          ~(std::uint64_t(1) << requester_l1);
        while (m) {
            const unsigned i = unsigned(std::countr_zero(m));
            m &= m - 1;
            if (snoopOne(i, block, op))
                peer_had_copy = true;
            else
                dir_.removeSharer(block, i); // heal a stale bit
        }
        return peer_had_copy;
    }
    for (unsigned i = 0; i < l1s_.size(); ++i) {
        if (i == requester_l1)
            continue;
        if (snoopOne(i, block, op))
            peer_had_copy = true;
    }
    return peer_had_copy;
}

void
MemorySystem::notifyBus(ContextId requester, Addr block, AccessType type)
{
    // Same-L1 siblings are covered by notifySiblings() on every access;
    // the bus only reaches the other cores.
    const unsigned l1 = contexts_[requester].l1;
    if (cfg_.directory) {
        // Only contexts that can possibly act on the event: unfiltered
        // (plain) listeners, contexts whose TX tracks the block
        // precisely, and — for writes — contexts carrying a read
        // signature that may alias any block. Tracker-filtered HTM
        // listeners treat every other event as a no-op, so skipping
        // them is behavior-preserving.
        std::uint64_t m = ~l1CtxMask_[l1] & deliveryMask(block, type);
        while (m) {
            const ContextId c = ContextId(std::countr_zero(m));
            m &= m - 1;
            if (contexts_[c].listener)
                contexts_[c].listener->onRemoteAccess(block, type,
                                                      requester);
        }
        return;
    }
    for (ContextId c = 0; c < ContextId(contexts_.size()); ++c) {
        if (c == requester || contexts_[c].l1 == l1)
            continue;
        if (contexts_[c].listener)
            contexts_[c].listener->onRemoteAccess(block, type, requester);
    }
}

void
MemorySystem::notifySiblings(ContextId requester, Addr block,
                             AccessType type)
{
    const unsigned l1 = contexts_[requester].l1;
    if (cfg_.directory) {
        // The same rule as notifyBus(); most machines have no SMT
        // siblings, so the directory is consulted only when some exist.
        std::uint64_t m =
            l1CtxMask_[l1] & ~(std::uint64_t(1) << unsigned(requester));
        if (m)
            m &= deliveryMask(block, type);
        while (m) {
            const ContextId c = ContextId(std::countr_zero(m));
            m &= m - 1;
            if (contexts_[c].listener)
                contexts_[c].listener->onRemoteAccess(block, type,
                                                      requester);
        }
        return;
    }
    for (ContextId c = 0; c < ContextId(contexts_.size()); ++c) {
        if (c == requester || contexts_[c].l1 != l1)
            continue;
        if (contexts_[c].listener)
            contexts_[c].listener->onRemoteAccess(block, type, requester);
    }
}

void
MemorySystem::notifyEviction(unsigned l1, Addr block, bool dirty)
{
    if (cfg_.directory) {
        // Only a context tracking the block can lose state to its
        // eviction.
        std::uint64_t m = l1CtxMask_[l1] &
                          (fullDeliveryMask_ | dir_.txTrackers(block));
        while (m) {
            const ContextId c = ContextId(std::countr_zero(m));
            m &= m - 1;
            if (contexts_[c].listener)
                contexts_[c].listener->onEviction(block, dirty);
        }
        return;
    }
    for (ContextId c = 0; c < ContextId(contexts_.size()); ++c) {
        if (contexts_[c].l1 != l1)
            continue;
        if (contexts_[c].listener)
            contexts_[c].listener->onEviction(block, dirty);
    }
}

Cycle
MemorySystem::accessL2(Addr block, bool fill_dirty)
{
    Cycle lat = cfg_.l2Latency;
    CacheLine *line = l2_->lookup(block);
    if (line) {
        ++*cL2Hits_;
    } else {
        ++*cL2Misses_;
        lat += cfg_.memLatency;
        l2_->insert(block,
                    fill_dirty ? CoherState::Modified : CoherState::Shared);
    }
    return lat;
}

AccessResult
MemorySystem::access(ContextId ctx, Addr addr, AccessType type)
{
    HINTM_ASSERT(ctx >= 0 && ctx < ContextId(contexts_.size()),
                 "bad context ", ctx);
    if (observer_)
        observer_->onAccess(ctx, addr, type);
    const Addr block = blockAlign(addr);
    const unsigned l1_id = contexts_[ctx].l1;
    CacheArray &l1 = *l1s_[l1_id];

    AccessResult res;
    ++*(type == AccessType::Read ? cReads_ : cWrites_);

    // SMT siblings sharing this L1 observe every access, hit or miss,
    // mirroring per-thread transactional CAMs snooping local traffic.
    notifySiblings(ctx, block, type);

    CacheLine *line = l1.lookup(block);
    if (line) {
        res.l1Hit = true;
        ++*cL1Hits_;
        if (type == AccessType::Read ||
            line->state == CoherState::Modified ||
            line->state == CoherState::Exclusive) {
            // Silent hit; writes to E upgrade silently to M.
            if (type == AccessType::Write)
                line->state = CoherState::Modified;
            res.latency = cfg_.l1Latency;
            return res;
        }
        // Write hit on Shared: bus upgrade.
        ++*cUpgrades_;
        if (metrics_)
            sampleBusMetrics(l1_id, block);
        snoopPeers(l1_id, block, BusOp::Upgrade);
        notifyBus(ctx, block, type);
        line->state = CoherState::Modified;
        res.latency =
            cfg_.l1Latency + cfg_.upgradeLatency + numaPenalty(l1_id, block);
        return res;
    }

    // L1 miss: place a bus transaction.
    ++*cL1Misses_;
    if (metrics_)
        sampleBusMetrics(l1_id, block);
    const BusOp op =
        type == AccessType::Read ? BusOp::Read : BusOp::ReadExcl;
    const bool peer_had_copy = snoopPeers(l1_id, block, op);
    notifyBus(ctx, block, type);

    const Cycle l2_lat = accessL2(block, /*fill_dirty=*/false);
    res.l2Hit = l2_lat <= cfg_.l2Latency;
    res.latency = cfg_.l1Latency + l2_lat + numaPenalty(l1_id, block);

    CoherState fill;
    if (type == AccessType::Write)
        fill = CoherState::Modified;
    else
        fill = peer_had_copy ? CoherState::Shared : CoherState::Exclusive;

    const Eviction ev = l1.insert(block, fill, trackedSeed(l1_id, block));
    if (cfg_.directory)
        dir_.recordFill(block, l1_id);
    if (ev.happened) {
        ++*cL1Evictions_;
        if (cfg_.directory)
            dir_.removeSharer(ev.blockAddr, l1_id);
        if (ev.dirty) {
            ++*cWritebacks_;
            l2_->insert(ev.blockAddr, CoherState::Modified);
        }
        notifyEviction(l1_id, ev.blockAddr, ev.dirty);
    }
    return res;
}

} // namespace mem
} // namespace hintm

#include "controller.hh"

#include <cctype>
#include <limits>

#include "common/logging.hh"
#include "htm/hint_oracle.hh"
#include "mem/directory.hh"
#include "mem/mem_system.hh"

namespace hintm
{
namespace htm
{

const char *
abortReasonName(AbortReason r)
{
    switch (r) {
      case AbortReason::None: return "none";
      case AbortReason::Conflict: return "conflict";
      case AbortReason::FalseConflict: return "false-conflict";
      case AbortReason::Capacity: return "capacity";
      case AbortReason::PageMode: return "page-mode";
      case AbortReason::FallbackLock: return "fallback-lock";
    }
    return "?";
}

const char *
conflictPolicyName(ConflictPolicy p)
{
    switch (p) {
      case ConflictPolicy::AttackerWins: return "attacker-wins";
      case ConflictPolicy::RequesterLoses: return "requester-loses";
    }
    return "?";
}

const char *
htmKindName(HtmKind k)
{
    switch (k) {
      case HtmKind::P8: return "P8";
      case HtmKind::P8S: return "P8S";
      case HtmKind::L1TM: return "L1TM";
      case HtmKind::InfCap: return "InfCap";
    }
    return "?";
}

bool
htmKindByName(const std::string &name, HtmKind &out)
{
    for (HtmKind k :
         {HtmKind::P8, HtmKind::P8S, HtmKind::L1TM, HtmKind::InfCap}) {
        std::string lower = htmKindName(k);
        for (char &c : lower)
            c = char(std::tolower(static_cast<unsigned char>(c)));
        if (name == lower) {
            out = k;
            return true;
        }
    }
    return false;
}

namespace
{

/** Buffer capacity by kind: bounded only for the dedicated-buffer HTMs. */
unsigned
effectiveBufferEntries(const HtmConfig &cfg)
{
    switch (cfg.kind) {
      case HtmKind::P8:
      case HtmKind::P8S:
        return cfg.bufferEntries;
      case HtmKind::L1TM:
      case HtmKind::InfCap:
        return std::numeric_limits<unsigned>::max();
    }
    return cfg.bufferEntries;
}

} // namespace

HtmController::HtmController(const HtmConfig &cfg, mem::ContextId self,
                             HtmStats *sys_stats)
    : cfg_(cfg), self_(self), stats_(sys_stats),
      buffer_(effectiveBufferEntries(cfg)),
      signature_(cfg.signatureBits, cfg.signatureHashes)
{
    HINTM_ASSERT(sys_stats != nullptr, "controller needs a stats sink");
}

void
HtmController::attachL1(mem::MemorySystem *mem)
{
    if (cfg_.kind != HtmKind::L1TM)
        return;
    l1_ = mem;
    mem->pinTrackedLines(self_);
}

void
HtmController::beginTx(Cycle now)
{
    HINTM_ASSERT(!inTx_, "nested TX begin on context ", self_);
    HINTM_ASSERT(!abortPending_, "begin with unacknowledged abort");
    inTx_ = true;
    txStart_ = now;
    ++stats_->begins;
}

std::uint8_t
HtmController::trackAccess(Addr addr, AccessType type, bool safe)
{
    if (!inTx_ || abortPending_)
        return TrackFailed;
    if (safe) {
        // The whole point of HinTM: safe accesses consume no tracking
        // resources and may spill from caches freely.
        if (oracle_)
            oracle_->onSafeSkip();
        return TrackFailed;
    }
    const Addr block = blockAlign(addr);

    const std::size_t entries = buffer_.size();
    if (const std::uint8_t tr = buffer_.track(block, type)) {
        if (buffer_.size() != entries) {
            // A block already in the buffer is registered already.
            if (dir_)
                dir_->txTrack(block, unsigned(self_));
            // A newly tracked block may not be resident yet (handleMem
            // tracks before its access): then the fill seeds its bit.
            if (l1_)
                l1_->setLineTracked(self_, block, true);
        }
        return tr & (NewlyRead | NewlyWritten);
    }

    // Buffer exhausted.
    if (cfg_.kind == HtmKind::P8S) {
        if (type == AccessType::Read) {
            // Reads spill into the signature instead of aborting.
            signature_.insert(block);
            const bool is_new = overflowReads_.insert(block);
            if (dir_) {
                if (is_new)
                    dir_->txTrack(block, unsigned(self_));
                dir_->setSigActive(unsigned(self_), true);
            }
            ++stats_->signatureSpills;
            return is_new ? std::uint8_t(NewlyRead)
                          : std::uint8_t(TrackFailed);
        }
        // Writes need real buffering: displace a read-only entry into
        // the signature to make room. Only a full buffer of written
        // blocks is a true (writeset) capacity overflow.
        const Addr victim = buffer_.findReadOnlyVictim();
        if (victim != ~Addr(0)) {
            // The victim moves to overflowReads_, so its directory
            // tracker registration stays valid.
            buffer_.erase(victim);
            signature_.insert(victim);
            overflowReads_.insert(victim);
            ++stats_->signatureSpills;
            const std::uint8_t tr = buffer_.track(block, type);
            HINTM_ASSERT(tr, "buffer still full after displacement");
            if (dir_) {
                dir_->txTrack(block, unsigned(self_));
                dir_->setSigActive(unsigned(self_), true);
            }
            return tr & (NewlyRead | NewlyWritten);
        }
    }
    if (cfg_.preAbortHandler) {
        // Defer: the runtime decides between conversion and abort.
        capacityPending_ = true;
        capacityPendingBlock_ = block;
        return TrackFailed;
    }
    triggerAbort(AbortReason::Capacity, block, true, -1);
    return TrackFailed;
}

void
HtmController::noteSafePageRead(Addr page_num)
{
    if (inTx_ && !abortPending_)
        safePages_.insert(page_num);
}

void
HtmController::commitTx(Cycle now)
{
    (void)now;
    HINTM_ASSERT(inTx_, "commit outside TX on context ", self_);
    HINTM_ASSERT(!abortPending_, "commit with pending abort");
    ++stats_->commits;
    stats_->trackedAtCommit.sample(trackedBlocks());
    clearTxState();
}

AbortReason
HtmController::acknowledgeAbort(Cycle now)
{
    HINTM_ASSERT(abortPending_, "acknowledging without pending abort");
    const AbortReason r = pendingReason_;
    ++stats_->aborts[unsigned(r)];
    stats_->cyclesLost[unsigned(r)] +=
        (now - txStart_) + cfg_.abortHandlerCycles;
    clearTxState();
    return r;
}

void
HtmController::convertToCriticalSection()
{
    HINTM_ASSERT(capacityPending_, "no pending capacity overflow");
    HINTM_ASSERT(inTx_ && !abortPending_, "conversion in bad state");
    ++stats_->preAbortConversions;
    // The TX's effects so far stand (the lock serializes everyone
    // else); hardware monitoring simply stops.
    clearTxState();
}

void
HtmController::declineConversion()
{
    HINTM_ASSERT(capacityPending_, "no pending capacity overflow");
    capacityPending_ = false;
    triggerAbort(AbortReason::Capacity, capacityPendingBlock_, true, -1);
}

void
HtmController::onPageBecameUnsafe(Addr page_num)
{
    if (!inTx_ || abortPending_)
        return;
    if (safePages_.contains(page_num)) {
        // Untracked (safe) reads to this page can no longer be trusted:
        // conservatively abort (§III-B).
        triggerAbort(AbortReason::PageMode, page_num * pageBytes, true,
                     -1);
    }
}

void
HtmController::onRemoteAccess(Addr block_addr, AccessType type,
                              mem::ContextId requester)
{
    if (!inTx_ || abortPending_)
        return;

    const TxBufferEntry *e = buffer_.find(block_addr);
    const bool in_read =
        (e && e->read) || overflowReads_.contains(block_addr);
    const bool in_write = e && e->written;

    if (type == AccessType::Write) {
        if (in_read || in_write) {
            triggerAbort(AbortReason::Conflict, block_addr, true,
                         std::int32_t(requester));
        } else if (cfg_.kind == HtmKind::P8S &&
                   signature_.test(block_addr)) {
            // Aliased hit in the summarizing bitvector only.
            triggerAbort(AbortReason::FalseConflict, block_addr, true,
                         std::int32_t(requester));
        }
    } else {
        if (in_write)
            triggerAbort(AbortReason::Conflict, block_addr, true,
                         std::int32_t(requester));
    }
}

void
HtmController::onEviction(Addr block_addr, bool dirty)
{
    (void)dirty;
    if (!inTx_ || abortPending_ || cfg_.kind != HtmKind::L1TM)
        return;
    // L1TM keeps transactional state in L1 lines: displacing a tracked
    // line (capacity or set conflict, including SMT-sibling pressure)
    // loses it, so the TX must abort.
    if (buffer_.find(block_addr))
        triggerAbort(AbortReason::Capacity, block_addr, true, -1);
}

bool
HtmController::tracksBlock(Addr block_addr) const
{
    // readsBlock() || writesBlock() with one buffer probe: every entry
    // has a direction bit set. True through a pending abort, until the
    // context acknowledges it: the buffer still holds the block.
    return inTx_ && (buffer_.find(block_addr) ||
                     overflowReads_.contains(block_addr));
}

std::size_t
HtmController::trackedBlocks() const
{
    return buffer_.size() + overflowReads_.size();
}

std::size_t
HtmController::readSetBlocks() const
{
    std::size_t n = overflowReads_.size();
    for (const auto &kv : buffer_.entries()) {
        if (kv.second.read)
            ++n;
    }
    return n;
}

std::size_t
HtmController::writeSetBlocks() const
{
    std::size_t n = 0;
    for (const auto &kv : buffer_.entries()) {
        if (kv.second.written)
            ++n;
    }
    return n;
}

bool
HtmController::readsBlock(Addr block_addr) const
{
    const TxBufferEntry *e = buffer_.find(block_addr);
    return (e && e->read) || overflowReads_.contains(block_addr);
}

bool
HtmController::writesBlock(Addr block_addr) const
{
    const TxBufferEntry *e = buffer_.find(block_addr);
    return e && e->written;
}

bool
HtmController::conflictsWith(Addr block_addr, AccessType type) const
{
    if (!inTx_ || abortPending_)
        return false;
    if (type == AccessType::Write)
        return readsBlock(block_addr) || writesBlock(block_addr);
    return writesBlock(block_addr);
}

void
HtmController::triggerAbort(AbortReason r, Addr offending_addr,
                            bool addr_valid, std::int32_t offender)
{
    if (!inTx_ || abortPending_)
        return;
    abortPending_ = true;
    pendingReason_ = r;
    lastAbortAddr_ = offending_addr;
    lastAbortAddrValid_ = addr_valid;
    lastAbortCtx_ = offender;
    // Restore memory values immediately so that the access which killed
    // this TX observes pre-transactional data.
    if (undoHook_)
        undoHook_();
}

void
HtmController::clearTxState()
{
    if (dir_ || l1_) {
        for (const auto &kv : buffer_.entries()) {
            if (dir_)
                dir_->txUntrack(kv.first, unsigned(self_));
            if (l1_)
                l1_->setLineTracked(self_, kv.first, false);
        }
    }
    if (dir_) {
        overflowReads_.forEach(
            [&](Addr b) { dir_->txUntrack(b, unsigned(self_)); });
        dir_->setSigActive(unsigned(self_), false);
    }
    inTx_ = false;
    abortPending_ = false;
    capacityPending_ = false;
    pendingReason_ = AbortReason::None;
    buffer_.clear();
    overflowReads_.clear();
    signature_.clear();
    safePages_.clear();
}

} // namespace htm
} // namespace hintm

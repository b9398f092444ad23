#include "tx_observers.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "common/trace.hh"
#include "mem/geometry.hh"

namespace hintm
{
namespace sim
{

static_assert(htm::numAbortReasons <= TxJournal::maxReasons,
              "journal reason array too small for the abort taxonomy");

TxObservers::TxObservers(const MachineConfig &cfg,
                         const tir::Module &module, mem::MemorySystem &mem,
                         unsigned num_ctxs)
    : mem_(mem),
      htmKind_(cfg.htm.kind),
      bufferEntries_(cfg.htm.bufferEntries),
      collectTxSizes_(cfg.collectTxSizes),
      profileSharing_(cfg.profileSharing)
{
    ctxs_.resize(num_ctxs);
    if (!cfg.journal && !cfg.metrics)
        return;
    std::vector<std::string> functions;
    functions.reserve(module.functions.size());
    for (const tir::Function &f : module.functions)
        functions.push_back(f.name);
    const SiteNames names(std::move(functions));
    if (cfg.journal)
        journal_.emplace(cfg.journalCapacity, names);
    if (cfg.metrics) {
        metrics_.emplace(names);
        mem_.setMetricsSink(&*metrics_);
    }
}

void
TxObservers::txBegin(unsigned c, Cycle now, const tir::Step &st,
                     unsigned retries, bool hardware)
{
    Ctx &x = ctxs_[c];
    trace::event(trace::Category::Tx, now, "ctx ", c,
                 hardware ? " begins hardware TX"
                          : " acquires the fallback lock");
    if (journal_) {
        x.rec = TxRecord{};
        x.rec.begin = now;
        x.rec.ctx = c;
        x.rec.fn = st.fn;
        x.rec.block = st.srcBlock;
        x.rec.instr = st.srcInstr;
        x.rec.retry = std::uint16_t(std::min(retries, 0xFFFFu));
        x.rec.outcome =
            hardware ? TxOutcome::Commit : TxOutcome::FallbackCommit;
        x.recOpen = true;
    }
    if (hardware && metrics_)
        metrics_->beginTx(x.mtx, now, st.fn, st.srcBlock, st.srcInstr);
}

void
TxObservers::abort(unsigned c, Cycle now, const htm::HtmController &h,
                   unsigned retries)
{
    Ctx &x = ctxs_[c];
    const htm::AbortReason reason = h.pendingReason();
    if (journal_ && x.recOpen) {
        x.rec.outcome = TxOutcome::Abort;
        x.rec.reason = std::uint8_t(reason);
        x.rec.readBlocks = std::uint32_t(h.readSetBlocks());
        x.rec.writeBlocks = std::uint32_t(h.writeSetBlocks());
        x.rec.offendingAddr = h.lastAbortAddr();
        x.rec.offendingValid = h.lastAbortAddrValid();
        x.rec.offendingCtx = h.lastAbortCtx();
        pushRecord(x, now);
    }
    if (metrics_ && x.mtx.open) {
        MetricsRegistry &m = *metrics_;
        if (reason == htm::AbortReason::Capacity) {
            // Occupancy breakdown of the overflowing cache set. Only
            // aborts that name an offending address have a set to scan
            // (L1TM set conflicts always do; buffer-full aborts on
            // P8/P8S name the overflowing access).
            if (h.lastAbortAddrValid()) {
                m.recordOverflowScan();
                mem_.forEachValidInL1Set(
                    mem::ContextId(c), h.lastAbortAddr(),
                    [&](Addr blk, const mem::CacheLine &) {
                        m.recordOverflowLine(
                            h.tracksBlock(blk),
                            x.mtx.skips.contains(blk));
                    });
            }
            m.closeCapacityAbort(x.mtx, h.trackedBlocks());
        } else {
            m.closeOther(x.mtx);
        }
    }
    trace::event(trace::Category::Tx, now, "ctx ", c, " abort (",
                 htm::abortReasonName(reason), "), retry ", retries + 1);
    clearFootprints(x);
}

void
TxObservers::convert(unsigned c, Cycle now, const htm::HtmController &h)
{
    Ctx &x = ctxs_[c];
    trace::event(trace::Category::Tx, now, "ctx ", c,
                 " converts overflowing TX to a critical section");
    if (journal_ && x.recOpen) {
        // Footprint at the moment tracking stops.
        x.rec.readBlocks = std::uint32_t(h.readSetBlocks());
        x.rec.writeBlocks = std::uint32_t(h.writeSetBlocks());
        x.rec.outcome = TxOutcome::ConvertedCommit;
    }
}

void
TxObservers::commit(unsigned c, Cycle now, const htm::HtmController &h,
                    int lock_holder)
{
    Ctx &x = ctxs_[c];
    if (journal_ && x.recOpen) {
        x.rec.readBlocks = std::uint32_t(h.readSetBlocks());
        x.rec.writeBlocks = std::uint32_t(h.writeSetBlocks());
        pushRecord(x, now);
    }
    if (lock_holder >= 0 && lock_holder != int(c)) {
        trace::event(trace::Category::Tx, now, "ctx ", c,
                     " commits while ctx ", lock_holder,
                     " holds the fallback lock");
    }
    trace::event(trace::Category::Tx, now, "ctx ", c, " commits (",
                 h.trackedBlocks(), " tracked blocks)");
    if (metrics_ && x.mtx.open)
        metrics_->closeCommit(x.mtx, hintSaved(x, h));
    if (collectTxSizes_) {
        txSizeAll_.sample(x.fpAll.size());
        txSizeNoStatic_.sample(x.fpNoStatic.size());
        txSizeUnsafe_.sample(x.fpUnsafe.size());
    }
    clearFootprints(x);
}

void
TxObservers::lockRelease(unsigned c, Cycle now)
{
    Ctx &x = ctxs_[c];
    // Converted footprints were captured at conversion; pure fallback
    // runs track nothing.
    if (journal_ && x.recOpen)
        pushRecord(x, now);
    if (metrics_) {
        MetricsRegistry &m = *metrics_;
        m.fallbackSeries.addSpan(lockAcquiredAt_, now);
        ++m.fallbackAcquisitions;
        // A converted TX commits under the lock, not the HTM: fold its
        // hint accounting without a commit verdict.
        if (x.mtx.open)
            m.closeOther(x.mtx);
    }
    trace::event(trace::Category::Tx, now, "ctx ", c,
                 " releases the fallback lock");
    clearFootprints(x);
}

void
TxObservers::finish(RunResult &r)
{
    if (collectTxSizes_) {
        r.txSizeAll = txSizeAll_;
        r.txSizeNoStatic = txSizeNoStatic_;
        r.txSizeUnsafe = txSizeUnsafe_;
    }
    if (profileSharing_) {
        r.blockSharing = profiler_.blockSummary();
        r.pageSharing = profiler_.pageSummary();
    }
    if (journal_) {
        const TxJournal &j = *journal_;
        trace::event(trace::Category::Journal, r.cycles,
                     "TX journal flush: ", j.pushed(),
                     " attempts recorded, ", j.dropped(),
                     " dropped (ring capacity ", j.capacity(), ")");
        r.journal = std::make_shared<const TxJournal>(std::move(*journal_));
    }
    if (metrics_) {
        r.metrics =
            std::make_shared<const MetricsRegistry>(std::move(*metrics_));
    }
}

/**
 * Capacity-model verdict at commit time: did this TX's tracked
 * footprint fit the transactional structures only because safe hints
 * kept the skipped blocks out? Counts only skipped blocks the TX never
 * also tracked (a block read safely and written unsafely occupies a
 * slot regardless).
 *
 * P8/P8S: the tracked set fit the TX buffer, but tracked + skipped
 * would not have. (For P8S this is conservative: spilled reads live in
 * the signature, so a buffer-centric model may over-claim.)
 * L1TM: the tracked set fit every L1 set's associativity, but some set
 * would have overflowed with the skipped blocks included.
 * InfCap: never (nothing to overflow).
 */
bool
TxObservers::hintSaved(const Ctx &x, const htm::HtmController &h) const
{
    if (htmKind_ == htm::HtmKind::InfCap)
        return false;
    const TxMetricsCtx &m = x.mtx;
    if (m.skips.empty())
        return false;
    // Tracked membership is queried from the controller's own
    // read/write sets — the metrics layer keeps no shadow copy of the
    // footprint. Called before commitTx, so the TX is live and
    // tracksBlock() reads its sets.
    if (htmKind_ != htm::HtmKind::L1TM) {
        const std::uint64_t cap = bufferEntries_;
        std::uint64_t extra = 0;
        m.skips.forEach([&](Addr b) {
            if (!h.tracksBlock(b))
                ++extra;
        });
        const std::uint64_t used = h.trackedBlocks();
        return extra > 0 && used <= cap && used + extra > cap;
    }
    // L1TM: group tracked and (un-tracked) skipped blocks by L1 set.
    const mem::CacheGeometry &g = mem_.l1Geometry();
    std::map<std::uint64_t, std::pair<unsigned, unsigned>> sets;
    h.forEachTrackedBlock([&](Addr b) { ++sets[g.indexOf(b)].first; });
    m.skips.forEach([&](Addr b) {
        if (!h.tracksBlock(b))
            ++sets[g.indexOf(b)].second;
    });
    bool tracked_fits = true, combined_overflows = false;
    for (const auto &[set, counts] : sets) {
        if (counts.first > g.assoc())
            tracked_fits = false;
        if (counts.first + counts.second > g.assoc())
            combined_overflows = true;
    }
    return tracked_fits && combined_overflows;
}

void
TxObservers::pushRecord(Ctx &x, Cycle now)
{
    x.rec.end = now;
    journal_->push(x.rec);
    x.recOpen = false;
}

void
TxObservers::clearFootprints(Ctx &x)
{
    x.fpAll.clear();
    x.fpNoStatic.clear();
    x.fpUnsafe.clear();
}

} // namespace sim
} // namespace hintm

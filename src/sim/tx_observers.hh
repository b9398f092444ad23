/**
 * @file
 * The observers of the TX lifecycle. A sink records what the machine
 * does without changing it; this unit owns every sink the machine
 * feeds, together with its per-context state:
 *
 *  - the TX journal (one record per TX attempt);
 *  - the capacity-pressure metrics registry;
 *  - the Fig. 6 committed-TX footprint sets and CDFs;
 *  - the Fig. 1 sharing profiler;
 *  - the `tx` and `journal` trace lines.
 *
 * The machine calls it once per lifecycle event and never reads it
 * back, so results are bit-identical with any sink on or off
 * (test-locked in tests/test_properties.cc). Each sink is switched by
 * its own MachineConfig field.
 */

#ifndef HINTM_SIM_TX_OBSERVERS_HH
#define HINTM_SIM_TX_OBSERVERS_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/flat_set.hh"
#include "common/journal.hh"
#include "common/metrics.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "htm/controller.hh"
#include "mem/mem_system.hh"
#include "sim/machine.hh"
#include "sim/profiler.hh"
#include "tir/interp.hh"

namespace hintm
{
namespace sim
{

class TxObservers
{
  public:
    /** Observation of one context's in-flight TX attempt. */
    struct Ctx
    {
        /** Fig. 6 footprints in blocks: every access, all but the
         * statically hinted ones, and the unsafe ones only.
         * Open-addressing sets: one insert per tracked access makes
         * these hot. */
        AddrSet fpAll, fpNoStatic, fpUnsafe;
        /** Journal record of the attempt; its outcome is the one the
         * attempt ends with unless it aborts. */
        TxRecord rec;
        bool recOpen = false;
        /** Capacity-metrics measurement of the attempt. */
        TxMetricsCtx mtx;
    };

    /** @p mem must outlive the unit; the metrics sink is attached to
     * it here. */
    TxObservers(const MachineConfig &cfg, const tir::Module &module,
                mem::MemorySystem &mem, unsigned num_ctxs);

    TxObservers(const TxObservers &) = delete;
    TxObservers &operator=(const TxObservers &) = delete;

    /** A TX attempt starts on @p c: a hardware TX (after beginTx,
     * before the lock-subscription read, whose tracking is not
     * measured) or a fallback run (after the lock is taken). */
    void txBegin(unsigned c, Cycle now, const tir::Step &st,
                 unsigned retries, bool hardware);

    /**
     * An access of @p c's hardware TX passed tracking: @p newly holds
     * the controller's newly-tracked bits, @p converted that this very
     * access converted the TX into a critical section. Inline: this
     * runs once per transactional access.
     */
    void
    txAccess(unsigned c, Addr addr, Cycle now, SafeHint hint,
             std::uint8_t newly, bool converted)
    {
        Ctx &x = ctxs_[c];
        if (metrics_ && x.mtx.open && !converted) {
            if (hint != SafeHint::None)
                metrics_->onSafeSkip(x.mtx, blockAlign(addr), hint);
            else if (newly)
                metrics_->onTrackedGrowth(x.mtx, newly & htm::NewlyRead,
                                          newly & htm::NewlyWritten, now);
        }
        if (collectTxSizes_) {
            const Addr blk = blockNumber(addr);
            x.fpAll.insert(blk);
            if (hint != SafeHint::Static)
                x.fpNoStatic.insert(blk);
            if (hint == SafeHint::None)
                x.fpUnsafe.insert(blk);
        }
    }

    /** An access by @p tid completed architecturally. */
    void
    accessDone(ThreadId tid, Addr addr, AccessType type, bool in_tx)
    {
        if (profileSharing_)
            profiler_.record(tid, addr, type, in_tx);
    }

    /** @p c's hardware TX aborts. Called before acknowledgeAbort clears
     * the controller, whose footprint and attribution it reads. */
    void abort(unsigned c, Cycle now, const htm::HtmController &h,
               unsigned retries);

    /** The fallback lock was taken at @p now. */
    void lockAcquired(Cycle now) { lockAcquiredAt_ = now; }

    /** The pre-abort handler converts @p c's overflowing TX into a
     * critical section. Called before convertToCriticalSection. */
    void convert(unsigned c, Cycle now, const htm::HtmController &h);

    /** @p c's hardware TX commits while @p lock_holder holds the
     * fallback lock (-1: nobody). Called before commitTx. */
    void commit(unsigned c, Cycle now, const htm::HtmController &h,
                int lock_holder);

    /** @p c releases the fallback lock, ending its fallback or
     * converted run. */
    void lockRelease(unsigned c, Cycle now);

    /** Hand the recorded results to @p r (r.cycles must be final). The
     * journal and the registry move into @p r. */
    void finish(RunResult &r);

  private:
    /** Did the committing TX fit its capacity only because safe hints
     * kept the skipped blocks out? */
    bool hintSaved(const Ctx &x, const htm::HtmController &h) const;

    /** Close @p x's journal record at @p now and push it. */
    void pushRecord(Ctx &x, Cycle now);
    void clearFootprints(Ctx &x);

    mem::MemorySystem &mem_;
    const htm::HtmKind htmKind_;
    const unsigned bufferEntries_;
    const bool collectTxSizes_;
    const bool profileSharing_;
    /** What the sinks record; a sink that is switched off leaves its
     * part empty. */
    std::vector<Ctx> ctxs_;
    std::optional<TxJournal> journal_;
    std::optional<MetricsRegistry> metrics_;
    stats::Distribution txSizeAll_{1, 513};
    stats::Distribution txSizeNoStatic_{1, 513};
    stats::Distribution txSizeUnsafe_{1, 513};
    SharingProfiler profiler_;
    /** Cycle the fallback lock was last taken (metrics' lock-hold
     * span; only one context holds the lock at a time). */
    Cycle lockAcquiredAt_ = 0;
};

} // namespace sim
} // namespace hintm

#endif // HINTM_SIM_TX_OBSERVERS_HH

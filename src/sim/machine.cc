#include "machine.hh"

#include <algorithm>
#include <bit>
#include <sstream>
#include <limits>
#include <memory>
#include <vector>

#include "common/flat_set.hh"
#include "common/logging.hh"
#include "common/trace.hh"
#include "htm/hint_oracle.hh"
#include "mem/directory.hh"
#include "sim/lock_waiters.hh"
#include "sim/sched_index.hh"
#include "sim/schedule.hh"
#include "sim/tx_observers.hh"
#include "tir/interp.hh"
#include "tir/verifier.hh"

namespace hintm
{
namespace sim
{

namespace
{

/** The software fallback lock lives below the globals region. */
constexpr Addr fallbackLockAddr = 0xF000;
/** Spin re-check interval while the fallback lock is held. */
constexpr Cycle fallbackSpinCycles = LockWaiters::period;
/** Linear backoff per retry after a transient abort. */
constexpr Cycle backoffCycles = 64;

constexpr Cycle farFuture = std::numeric_limits<Cycle>::max();

/** Per-hardware-context state: scheduling, retry and fallback-lock
 * state, plus the context's interpreter and HTM controller. */
struct ContextState
{
    Cycle readyAt = 0;
    Cycle finishedAt = 0;
    bool done = false;
    bool atBarrier = false;
    unsigned retries = 0;
    bool mustFallback = false;
    bool inFallback = false;
    std::unique_ptr<tir::ThreadInterp> interp;
    std::unique_ptr<htm::HtmController> htm;
    /** Descheduled by the ScheduleController: off the pick set until
     * another context is preempted in its place or nothing else is
     * runnable. Never true without a controller. */
    bool preempted = false;
    /** Block footprints feeding the explorer's independence filter
     * (controller runs only): the in-flight hardware TX's blocks and
     * the previous attempt's, so a TxBegin decision can be judged by
     * what the context is about to touch. */
    AddrSet ctlFpCur, ctlFpLast;
};

class Machine
{
  public:
    Machine(const MachineConfig &cfg, const tir::Module &module,
            unsigned num_threads)
        : cfg_(cfg),
          prog_(module, num_threads, cfg.seed, cfg.decodeCache),
          mem_(std::make_unique<mem::MemorySystem>(cfg.mem, cfg.numCores)),
          vm_(std::make_unique<vm::Vm>(cfg.vm)),
          observers_(cfg, module, *mem_, num_threads),
          ctrl_(cfg.scheduleController)
    {
        checkThreadCount(cfg, num_threads);
        if (auto err = tir::verify(module))
            HINTM_FATAL("module fails verification: ", *err);
        HINTM_ASSERT(module.threadFunc >= 0, "module has no threadFunc");
        if (cfg.dynamicHints) {
            HINTM_ASSERT(cfg.vm.dynamicClassification,
                         "dynamicHints requires vm.dynamicClassification");
        }
        prog_.validateSafeStores = cfg.validateSafeStores;
        trace::enableFromEnvironment();

        if (cfg.hintOracle) {
            oracle_ = std::make_unique<htm::HintOracle>();
            mem_->setAccessObserver(oracle_.get());
            // Free clears shadow state: reuse of a heap address is
            // ordered through the allocator, not a race.
            prog_.allocator().onRelease =
                [o = oracle_.get()](Addr p, std::uint64_t bytes) {
                    o->onFree(p, bytes);
                };
        }

        runInitPhase(module);
        for (unsigned t = 0; t < num_threads; ++t) {
            const int mem_ctx = mem_->addContext(t % cfg.numCores);
            const int vm_ctx = vm_->addContext();
            HINTM_ASSERT(mem_ctx == int(t) && vm_ctx == int(t),
                         "context id skew");
            ContextState cs;
            cs.interp = std::make_unique<tir::ThreadInterp>(
                prog_, ThreadId(t), module.threadFunc,
                std::vector<std::int64_t>{std::int64_t(t)});
            cs.htm = std::make_unique<htm::HtmController>(
                cfg.htm, mem::ContextId(t), &res_.htm);
            tir::ThreadInterp *ip = cs.interp.get();
            cs.htm->setUndoHook([ip] { ip->undoStores(); });
            cs.htm->setHintOracle(oracle_.get());
            mem_->setListener(mem::ContextId(t), cs.htm.get());
            // L1TM keeps the TX's tracking bits in its L1's lines, so
            // tracked lines are sticky (other kinds ignore this).
            cs.htm->attachL1(mem_.get());
            ctxs_.push_back(std::move(cs));
        }
        if (mem::Directory *dir = mem_->directory()) {
            // Directory mode: controllers register their tracked blocks
            // so bus events reach only contexts that can act on them.
            for (unsigned t = 0; t < num_threads; ++t) {
                ctxs_[t].htm->attachDirectory(dir);
                mem_->setListenerTxFiltered(mem::ContextId(t), true);
            }
        }
        // A controlled run always picks through the index: schedIndex =
        // false selects the reference scan for controller-free runs only.
        useSchedIndex_ = cfg.schedIndex || ctrl_;
        if (useSchedIndex_) {
            rebuildSchedIndex();
            waiters_.reset(unsigned(ctxs_.size()));
        }
    }

    /**
     * One scheduler iteration: pick the earliest-ready live context and
     * step it. @return false when every context is done.
     */
    bool
    stepOnce()
    {
        const unsigned n = unsigned(ctxs_.size());
        int best = -1;
        Cycle best_t = farFuture;
        unsigned live = 0;
        // Rotate the scan starting point round-robin. The wrap is a
        // compare, not a modulo — this loop runs once per context
        // per simulated step. Scan order (and so tie-breaking on
        // equal readyAt) is unchanged.
        unsigned c = rr_;
        for (unsigned i = 0; i < n; ++i) {
            const ContextState &cs = ctxs_[c];
            if (!cs.done) {
                ++live;
                if (!cs.atBarrier && cs.readyAt < best_t) {
                    best_t = cs.readyAt;
                    best = int(c);
                }
            }
            if (++c == n)
                c = 0;
        }
        if (live == 0)
            return false;
        if (best < 0)
            deadlockPanic();
        now_ = std::max(now_, best_t);
        step(unsigned(best), now_);
        rr_ = unsigned(best) + 1 == n ? 0 : unsigned(best) + 1;
        return true;
    }

    /**
     * Drive the machine until every context is done or at least
     * @p commit_target TXs have committed — exactly equivalent to
     * `while (committedTxs() < target && stepOnce()) {}`. The indexed
     * path picks through the event-driven index and keeps stepping the
     * picked context while it provably remains the unique earliest
     * (its readyAt strictly below every other eligible context's lower
     * bound and no cross-context mutation observed), touching the index
     * once per batch instead of once per step. It also parks
     * fallback-lock waiters after their first re-check and settles the
     * later ones lazily (sim/lock_waiters.hh): while the lock is held a
     * batch runs through them, and on a free lock a group wakes into
     * the index once it falls due.
     */
    void
    runLoop(std::uint64_t commit_target)
    {
        if (ctrl_) {
            runControlled(commit_target);
            return;
        }
        if (!useSchedIndex_) {
            while (res_.committedTxs < commit_target && stepOnce()) {
            }
            return;
        }
        const unsigned n = unsigned(ctxs_.size());
        while (res_.committedTxs < commit_target && sched_.anyLive()) {
            const bool held = lockHolder_ >= 0;
            if (!waiters_.empty()) {
                const Cycle t = sched_.peekKey();
                if (held) {
                    // Waiters due before the next real pick re-check
                    // first.
                    if (t == farFuture)
                        deadlockPanic();
                    waiters_.recheckBefore(t, rr_);
                } else {
                    // The lock is free: the earliest group wakes once no
                    // real pick comes before it, to find the lock free.
                    const Cycle e = waiters_.earliest();
                    if (e <= t)
                        wakeWaiters(e);
                }
            }
            const SchedIndex::Pick p = sched_.pick(rr_);
            if (p.winner < 0)
                deadlockPanic();
            const unsigned w = unsigned(p.winner);
            Cycle bound = p.bound;
            // While the lock stays held the batch runs through parked
            // re-checks; on a free lock it stops before the earliest
            // group, every one of which falls due after this pick.
            const bool through = held && !waiters_.empty();
            if (through) {
                waiters_.splitAt(p.key, rr_, w);
            } else if (!waiters_.empty()) {
                const Cycle e = waiters_.earliest();
                HINTM_ASSERT(e > p.key, "lock waiter parked on a free lock");
                bound = std::min(bound, e);
            }
            ContextState &cs = ctxs_[w];
            now_ = std::max(now_, p.key);
            schedDirty_ = false;
            spun_ = false;
            step(w, now_);
            rr_ = w + 1 == n ? 0 : w + 1;
            while (!schedDirty_ && !spun_ && !cs.done && !cs.atBarrier &&
                   cs.readyAt < bound &&
                   res_.committedTxs < commit_target) {
                now_ = std::max(now_, cs.readyAt);
                if (through)
                    waiters_.stepAt(now_, rr_, w);
                step(w, now_);
            }
            // Close the batch: republish w's scheduler state (pick()
            // took it out of the tie bucket).
            if (cs.done)
                sched_.retire(w);
            else if (cs.atBarrier)
                sched_.block(w, cs.readyAt);
            else if (spun_)
                parkWaiter(w);
            else
                sched_.setReady(w, cs.readyAt);
        }
    }

    /**
     * Controller-driven scheduler loop: one pick per step (no batching
     * — a preemption decision may follow any step), tie-breaks through
     * ScheduleController::chooseTie, and a decision point offered after
     * every transactional event. With the default tie-break and no
     * preemptions this produces exactly the reference step sequence
     * (test-locked against the controller-free paths).
     */
    void
    runControlled(std::uint64_t commit_target)
    {
        const unsigned n = unsigned(ctxs_.size());
        while (res_.committedTxs < commit_target && sched_.anyLive()) {
            const SchedIndex::Pick p =
                sched_.pick(rr_, [this](std::uint64_t mask, unsigned r) {
                    return ctrl_->chooseTie(mask, r);
                });
            if (p.winner < 0) {
                // Everything else is blocked: hand the machine back to
                // the preempted context.
                if (releasePreempted())
                    continue;
                deadlockPanic();
            }
            const unsigned w = unsigned(p.winner);
            ContextState &cs = ctxs_[w];
            now_ = std::max(now_, p.key);
            pendingEv_ = -1;
            step(w, now_);
            rr_ = w + 1 == n ? 0 : w + 1;
            if (cs.done)
                sched_.retire(w);
            else if (cs.atBarrier || cs.preempted)
                sched_.block(w, cs.readyAt);
            else
                sched_.setReady(w, cs.readyAt);
            if (pendingEv_ >= 0)
                decisionPoint(w, SchedEvent(pendingEv_));
        }
    }

    /** Deschedule @p c until another context is preempted in its place
     * or nothing else is runnable (at most one context is preempted at
     * a time). */
    void
    preemptContext(unsigned c)
    {
        bool changed = releasePreemptedFlags();
        ContextState &cs = ctxs_[c];
        if (!cs.done && !cs.atBarrier && !cs.preempted) {
            cs.preempted = true;
            changed = true;
        }
        if (changed)
            rebuildSchedIndex();
    }

    RunResult
    run()
    {
        runLoop(std::numeric_limits<std::uint64_t>::max());
        return finishRun();
    }

    RunResult
    finishRun()
    {
        HINTM_ASSERT(!finalized_, "machine finalized twice");
        finalized_ = true;
        for (const ContextState &cs : ctxs_) {
            res_.cycles = std::max(res_.cycles, cs.finishedAt);
            res_.instructions += cs.interp->instrCount();
        }
        res_.safePages = vm_->pageTable().countPages(true);
        res_.totalPages = vm_->pageTable().totalPages();
        res_.pageModeOverheadCycles =
            shootdownCycles_ +
            res_.htm.cyclesLost[unsigned(htm::AbortReason::PageMode)];
        observers_.finish(res_);
        if (oracle_) {
            res_.oracleSafeChecked = oracle_->safeAccessesChecked();
            res_.oracleSafeSkips = oracle_->safeSkips();
            for (const htm::HintOracle::Witness &w : oracle_->witnesses())
                res_.oracleWitnesses.push_back(
                    htm::HintOracle::describe(w, prog_.module()));
        }
        if (cfg_.collectRawStats) {
            std::ostringstream os;
            mem_->statGroup().dump(os);
            vm_->statGroup().dump(os);
            res_.rawStats = os.str();
        }
        for (const tir::Global &g : prog_.module().globals) {
            std::vector<std::int64_t> words;
            for (Addr off = 0; off < g.sizeBytes; off += 8)
                words.push_back(prog_.space().read(g.addr + off));
            res_.finalGlobals.emplace(g.name, std::move(words));
        }
        return res_;
    }

    std::uint64_t committedTxs() const { return res_.committedTxs; }

    bool
    finished() const
    {
        for (const ContextState &cs : ctxs_) {
            if (!cs.done)
                return false;
        }
        return true;
    }

  private:
    /** Non-memory instructions retire at a CPI of 1. */
    static Cycle
    simpleCost(const tir::Step &st)
    {
        return st.simpleInstrs;
    }

    /** Execute the init function functionally (no simulated time). */
    void
    runInitPhase(const tir::Module &module)
    {
        if (module.initFunc < 0)
            return;
        tir::ThreadInterp init(prog_, prog_.initTid(), module.initFunc,
                               {});
        while (true) {
            const tir::Step st = init.next();
            switch (st.kind) {
              case tir::StepKind::Mem:
                init.completeMem();
                break;
              case tir::StepKind::TxBegin:
                init.enterTx(false);
                break;
              case tir::StepKind::TxEnd:
                init.completeTxEnd();
                break;
              case tir::StepKind::Barrier:
                HINTM_FATAL("barrier in init function");
              case tir::StepKind::Annotate:
                vm_->annotateRange(st.addr, st.annotateLen);
                init.passAnnotate();
                break;
              case tir::StepKind::Done:
                return;
              case tir::StepKind::Simple:
                break;
            }
        }
    }

    void
    step(unsigned c, Cycle now)
    {
        ContextState &cs = ctxs_[c];
        if (cs.htm->abortPending()) {
            handleAbort(c, now);
            return;
        }
        const tir::Step st = cs.interp->next();
        switch (st.kind) {
          case tir::StepKind::Done:
            cs.done = true;
            cs.finishedAt = now + simpleCost(st);
            cs.readyAt = cs.finishedAt;
            maybeReleaseBarrier(now);
            break;
          case tir::StepKind::Mem:
            handleMem(c, now, st);
            break;
          case tir::StepKind::TxBegin:
            handleTxBegin(c, now, st);
            break;
          case tir::StepKind::TxEnd:
            handleTxEnd(c, now, st);
            break;
          case tir::StepKind::Barrier:
            cs.atBarrier = true;
            cs.readyAt = now + simpleCost(st);
            maybeReleaseBarrier(now);
            break;
          case tir::StepKind::Annotate:
            // Notary-style page annotation: an madvise-like call.
            vm_->annotateRange(st.addr, st.annotateLen);
            cs.interp->passAnnotate();
            cs.readyAt = now + simpleCost(st) + 1;
            break;
          case tir::StepKind::Simple:
            cs.readyAt = now + simpleCost(st);
            break;
        }
    }

    void
    handleAbort(unsigned c, Cycle now)
    {
        ContextState &cs = ctxs_[c];
        observers_.abort(c, now, *cs.htm, cs.retries);
        const htm::AbortReason reason = cs.htm->acknowledgeAbort(now);
        noteEvent(SchedEvent::TxAbort);
        if (ctrl_) {
            cs.ctlFpLast = cs.ctlFpCur;
            cs.ctlFpCur.clear();
        }
        cs.interp->rollbackToTxBegin();
        if (!htm::abortIsTransient(reason)) {
            // Capacity aborts recur deterministically: fall back now.
            cs.mustFallback = true;
        } else {
            ++cs.retries;
            if (cs.retries > cfg_.maxRetries)
                cs.mustFallback = true;
        }
        cs.readyAt = now + cfg_.htm.abortHandlerCycles +
                     Cycle(cs.retries) * backoffCycles;
    }

    /**
     * Take the software fallback lock for @p c, entering a fallback run
     * or converting an overflowing TX. Every running hardware TX
     * subscribed to the lock word, so all of them abort before the
     * acquisition is published; the seeded lazy-subscription bug has
     * no subscribers to kill. @return the lock-word write latency.
     */
    Cycle
    acquireFallbackLock(unsigned c, Cycle now)
    {
        lockHolder_ = int(c);
        observers_.lockAcquired(now);
        if (!cfg_.unsafeLazySubscription) {
            for (unsigned o = 0; o < ctxs_.size(); ++o) {
                if (o != c && ctxs_[o].htm->inTx())
                    ctxs_[o].htm->requestAbort(
                        htm::AbortReason::FallbackLock, std::int32_t(c));
            }
        }
        noteEvent(SchedEvent::LockAcquire);
        return mem_
            ->access(mem::ContextId(c), fallbackLockAddr, AccessType::Write)
            .latency;
    }

    void
    handleTxBegin(unsigned c, Cycle now, const tir::Step &st)
    {
        ContextState &cs = ctxs_[c];
        Cycle cost = simpleCost(st);

        if (lockHolder_ >= 0) {
            // Someone is in the software fallback: wait for release.
            cs.readyAt = now + cost + fallbackSpinCycles;
            spun_ = true;
            noteEvent(SchedEvent::LockSpin);
            return;
        }

        if (cs.mustFallback) {
            ++res_.fallbackRuns;
            cost += acquireFallbackLock(c, now) + cfg_.htm.beginCycles;
            cs.interp->enterTx(/*htm_mode=*/false);
            cs.inFallback = true;
            observers_.txBegin(c, now, st, cs.retries, /*hardware=*/false);
        } else {
            cs.htm->beginTx(now);
            observers_.txBegin(c, now, st, cs.retries, /*hardware=*/true);
            // Lock subscription: the lock word joins the readset so a
            // fallback acquisition conflicts this TX out. The seeded
            // bug skips it — the Dice-et-al. lazy-subscription hazard
            // the explorer exists to expose.
            if (!cfg_.unsafeLazySubscription) {
                const auto ar = mem_->access(mem::ContextId(c),
                                             fallbackLockAddr,
                                             AccessType::Read);
                cs.htm->trackAccess(fallbackLockAddr, AccessType::Read,
                                    /*safe=*/false);
                cost += ar.latency;
            }
            cost += cfg_.htm.beginCycles;
            cs.interp->enterTx(/*htm_mode=*/true);
            noteEvent(SchedEvent::TxBegin);
        }
        cs.readyAt = now + cost;
    }

    void
    handleTxEnd(unsigned c, Cycle now, const tir::Step &st)
    {
        ContextState &cs = ctxs_[c];
        Cycle cost = simpleCost(st) + cfg_.htm.commitCycles;

        if (cs.inFallback) {
            HINTM_ASSERT(lockHolder_ == int(c), "lock bookkeeping broken");
            observers_.lockRelease(c, now);
            lockHolder_ = -1;
            // Waiters stay parked until they fall due. Ending the batch
            // lets a group due at this very cycle see the lock free
            // before the releaser steps on.
            if (!waiters_.empty())
                schedDirty_ = true;
            const auto ar =
                mem_->access(mem::ContextId(c), fallbackLockAddr,
                             AccessType::Write);
            cost += ar.latency;
            cs.inFallback = false;
            cs.mustFallback = false;
            noteEvent(SchedEvent::LockRelease);
        } else {
            // Mutual-exclusion breach: a hardware TX completing while
            // the fallback lock is held read a snapshot the critical
            // section may be mutating. Impossible with eager
            // subscription (the acquisition aborts every TX); the
            // seeded lazy-subscription bug makes it reachable.
            if (lockHolder_ >= 0 && lockHolder_ != int(c))
                ++res_.subscriptionViolations;
            observers_.commit(c, now, *cs.htm, lockHolder_);
            cs.htm->commitTx(now);
            noteEvent(SchedEvent::TxCommit);
            if (ctrl_) {
                cs.ctlFpLast = cs.ctlFpCur;
                cs.ctlFpCur.clear();
            }
        }
        cs.interp->completeTxEnd();
        cs.retries = 0;
        ++res_.committedTxs;
        cs.readyAt = now + cost;
    }

    void
    handleMem(unsigned c, Cycle now, const tir::Step &st)
    {
        ContextState &cs = ctxs_[c];
        Cycle cost = simpleCost(st);
        const bool suspended = cs.interp->suspended();
        const bool in_htm_tx =
            cs.interp->inTx() && cs.interp->htmMode() && !suspended;
        const bool in_any_tx = cs.interp->inTx() && !suspended;
        if (cs.interp->inTx() && suspended)
            ++res_.txAccessesSuspended;

        // 1. Address translation + dynamic classification.
        const vm::TranslateResult tr = vm_->translate(
            int(c), cs.interp->tid(), st.addr, st.accessType);
        cost += tr.cost;
        if (tr.becameUnsafe) {
            trace::event(trace::Category::Vm, now, "page ", tr.pageNum,
                         " became unsafe (ctx ", c, " write), ",
                         std::popcount(tr.slaveMask), " shootdown slaves");
            shootdownCycles_ += cfg_.vm.shootdownInitiatorCycles;
            const Cycle slave = cfg_.vm.shootdownSlaveCycles;
            for (std::uint64_t m = tr.slaveMask; m; m &= m - 1) {
                const unsigned v = unsigned(std::countr_zero(m));
                ContextState &vs = ctxs_[v];
                // A parked waiter's exact readyAt is its group's cycle.
                const bool parked = !waiters_.empty() && waiters_.parked(v);
                if (parked)
                    vs.readyAt = waiters_.dueAt(v);
                vs.readyAt = std::max(vs.readyAt, now) + slave;
                shootdownCycles_ += slave;
                if (parked)
                    waiters_.repark(v, vs.readyAt);
                else if (useSchedIndex_)
                    sched_.setReady(v, vs.readyAt);
                schedDirty_ = true;
            }
            for (ContextState &other : ctxs_)
                other.htm->onPageBecameUnsafe(tr.pageNum);
        }
        if (cs.htm->abortPending()) {
            // The transition aborted our own TX: squash this access.
            cs.readyAt = now + cost;
            return;
        }

        // 2. Resolve the safety hint. Statically-hinted instructions
        // bypass the dynamic mechanism (§IV-B); dynamic hints only ever
        // cover reads. Programmer annotations are irrevocable hints,
        // honored under annotationHints or whenever the dynamic
        // mechanism is active.
        const bool is_read = st.accessType == AccessType::Read;
        const bool static_safe = cfg_.staticHints && st.staticSafe;
        const bool annot_safe =
            (cfg_.annotationHints || cfg_.dynamicHints) && !static_safe &&
            is_read && tr.safeRead && !tr.revocable;
        const bool dyn_safe = cfg_.dynamicHints && !static_safe &&
                              is_read && tr.safeRead && tr.revocable;
        const bool safe = static_safe || dyn_safe || annot_safe;

        // 3. HTM tracking (or hint-driven skip).
        if (in_htm_tx &&
            cfg_.htm.conflictPolicy ==
                htm::ConflictPolicy::RequesterLoses &&
            !safe) {
            // Requester-loses pre-flight: abort ourselves rather than
            // disturb a TX already holding the block.
            const Addr block = blockAlign(st.addr);
            for (unsigned o = 0; o < ctxs_.size(); ++o) {
                if (o != c &&
                    ctxs_[o].htm->conflictsWith(block, st.accessType)) {
                    cs.htm->requestAbort(htm::AbortReason::Conflict);
                    cs.readyAt = now + cost;
                    return;
                }
            }
        }
        if (in_htm_tx) {
            const std::uint8_t newly =
                cs.htm->trackAccess(st.addr, st.accessType, safe);
            if (dyn_safe)
                cs.htm->noteSafePageRead(tr.pageNum);
            if (cs.htm->capacityPending()) {
                // Pre-abort handler: convert the overflowing TX into a
                // critical section when the fallback lock is free,
                // preserving the work done so far; else abort normally.
                if (lockHolder_ < 0) {
                    cost += acquireFallbackLock(c, now);
                    observers_.convert(c, now, *cs.htm);
                    cs.htm->convertToCriticalSection();
                    cs.interp->convertToFallback();
                    cs.inFallback = true;
                    // Fall through: the access proceeds untracked.
                } else {
                    cs.htm->declineConversion();
                    cs.readyAt = now + cost;
                    return;
                }
            }
            if (cs.htm->abortPending()) {
                cs.readyAt = now + cost; // capacity: squash
                return;
            }
            observers_.txAccess(c, st.addr, now,
                                static_safe  ? SafeHint::Static
                                : dyn_safe   ? SafeHint::Dynamic
                                : annot_safe ? SafeHint::Annotation
                                             : SafeHint::None,
                                newly, cs.inFallback);
            if (is_read) {
                if (static_safe)
                    ++res_.txReadsStaticSafe;
                else if (dyn_safe)
                    ++res_.txReadsDynSafe;
                else if (annot_safe)
                    ++res_.txReadsAnnotated;
                else
                    ++res_.txReadsUnsafe;
            } else {
                if (static_safe)
                    ++res_.txWritesStaticSafe;
                else
                    ++res_.txWritesUnsafe;
            }
            if (ctrl_ && !cs.inFallback)
                cs.ctlFpCur.insert(blockAlign(st.addr));
        } else if (in_any_tx) {
            // Fallback-mode TX: everything is effectively unsafe.
            if (st.accessType == AccessType::Read)
                ++res_.txReadsUnsafe;
            else
                ++res_.txWritesUnsafe;
        }

        // 4. Timing + coherence (may abort other contexts; their undo
        // hooks run before we read). Under L1TM this access can also
        // abort *us*: filling the L1 may evict one of our own tracked
        // lines (set-conflict capacity abort). Squash in that case.
        // Stamp the oracle here and only here: every earlier exit is a
        // squashed access that never reaches the hierarchy. A context
        // that just converted to a critical section proceeds untracked,
        // so its access is no longer a hint-driven skip.
        if (oracle_) {
            oracle_->stamp(c, st.fn, st.srcBlock, st.srcInstr,
                           static_safe && in_htm_tx && !cs.inFallback);
        }
        const auto ar =
            mem_->access(mem::ContextId(c), st.addr, st.accessType);
        cost += ar.latency;
        if (cs.htm->abortPending()) {
            cs.readyAt = now + cost;
            return;
        }

        // 5. Architectural effect.
        cs.interp->completeMem();

        observers_.accessDone(cs.interp->tid(), st.addr, st.accessType,
                              in_any_tx);
        cs.readyAt = now + cost;
    }

    void
    maybeReleaseBarrier(Cycle now)
    {
        unsigned live = 0, waiting = 0;
        for (const ContextState &cs : ctxs_) {
            if (cs.done)
                continue;
            ++live;
            if (cs.atBarrier)
                ++waiting;
        }
        if (live == 0 || waiting < live)
            return;
        trace::event(trace::Category::Sched, now, "barrier releases ",
                     waiting, " contexts");
        noteEvent(SchedEvent::Barrier);
        for (unsigned c = 0; c < ctxs_.size(); ++c) {
            ContextState &cs = ctxs_[c];
            if (cs.done || !cs.atBarrier)
                continue;
            cs.interp->passBarrier();
            cs.atBarrier = false;
            cs.readyAt = std::max(cs.readyAt, now) + 1;
            if (useSchedIndex_) {
                sched_.unblock(c, cs.readyAt);
                schedDirty_ = true;
            }
        }
        if (oracle_)
            oracle_->onBarrier();
    }

    /** Park @p c, whose step just re-checked the held fallback lock,
     * until its group falls due on a free lock. */
    void
    parkWaiter(unsigned c)
    {
        ContextState &cs = ctxs_[c];
        HINTM_ASSERT(lockHolder_ >= 0 && !cs.htm->inTx() &&
                         !cs.htm->abortPending(),
                     "parked a context that is not waiting on the lock");
        sched_.block(c, cs.readyAt);
        waiters_.park(c, cs.readyAt, now_);
    }

    /** The parked group due at @p t re-enters the index there, to see
     * the free lock in the reference rotation order. */
    void
    wakeWaiters(Cycle t)
    {
        waiters_.wake(t, [this, t](unsigned c) {
            ctxs_[c].readyAt = t;
            sched_.unblock(c, t);
        });
    }

    /** Mark a transactional event on the stepping context; the
     * controlled loop turns it into a decision point once the step has
     * fully completed. No-op without a controller. */
    void
    noteEvent(SchedEvent e)
    {
        if (ctrl_)
            pendingEv_ = int(e);
    }

    /** Clear preemption flags without touching the index; true if any
     * context was released. Released contexts keep their stale readyAt
     * (they were ready all along). */
    bool
    releasePreemptedFlags()
    {
        bool any = false;
        for (ContextState &cs : ctxs_) {
            if (cs.preempted) {
                cs.preempted = false;
                any = true;
            }
        }
        return any;
    }

    bool
    releasePreempted()
    {
        const bool any = releasePreemptedFlags();
        // Preemption changes are rare (bounded per run), so re-derive
        // the index from context state rather than unblocking each
        // released context.
        if (any)
            rebuildSchedIndex();
        return any;
    }

    /** Offer the completed event on @p c to the controller. Runs at a
     * quiescent boundary: the step is done and the index republished. */
    void
    decisionPoint(unsigned c, SchedEvent ev)
    {
        const ContextState &cs = ctxs_[c];
        if (cs.done)
            return; // a Done step released a barrier: nothing to preempt
        bool other_runnable = false;
        for (unsigned o = 0; o < ctxs_.size(); ++o) {
            if (o != c && !ctxs_[o].done && !ctxs_[o].atBarrier) {
                other_runnable = true;
                break;
            }
        }
        if (!other_runnable)
            return; // preempting the only runnable context decides nothing
        // A spinner waiting on a preempted lock holder would spin
        // forever (spinning counts as runnable, so the nothing-else-
        // runnable release never fires): model the OS eventually
        // rescheduling the holder.
        if (ev == SchedEvent::LockSpin && lockHolder_ >= 0 &&
            ctxs_[unsigned(lockHolder_)].preempted)
            releasePreempted();
        SchedDecision d;
        d.event = ev;
        d.ctx = c;
        d.cycle = now_;
        d.dependent = decisionDependent(c, ev);
        if (ctrl_->onDecision(d))
            preemptContext(c);
    }

    /**
     * Independence filter for DPOR-style pruning: false only when the
     * event's context provably cannot interact with any peer — no lock
     * traffic, and every block its current and previous TX footprints
     * touch is cached in no other L1 (a controlled run has the
     * directory: checkThreadCount). Conservative on missing
     * information: an empty footprint (first attempt, untracked
     * fallback) stays dependent, and so does every event on a machine
     * with more threads than cores, whose SMT siblings share an L1 the
     * sharer masks cannot see into.
     */
    bool
    decisionDependent(unsigned c, SchedEvent ev) const
    {
        switch (ev) {
          case SchedEvent::LockAcquire:
          case SchedEvent::LockRelease:
          case SchedEvent::Barrier:
            return true;
          case SchedEvent::TxBegin:
            // A transaction's future footprint is unknowable at begin;
            // the last-TX proxy below would misclassify a TX about to
            // touch shared state, so begins are never pruned.
            return true;
          case SchedEvent::LockSpin:
            return false; // the spinner re-arrives here until release
          default:
            break;
        }
        if (lockHolder_ >= 0 || ctxs_.size() > cfg_.numCores)
            return true;
        const ContextState &cs = ctxs_[c];
        if (cs.ctlFpCur.empty() && cs.ctlFpLast.empty())
            return true;
        // One context per L1 here: context c runs on L1 c.
        bool dep = false;
        const mem::Directory &dir = *mem_->directory();
        const std::uint64_t others = ~(std::uint64_t(1) << c);
        const auto overlaps = [&](Addr blk) {
            if (dir.sharers(blk) & others)
                dep = true;
        };
        cs.ctlFpCur.forEach(overlaps);
        cs.ctlFpLast.forEach(overlaps);
        return dep;
    }

    /** (Re)derive the scheduler index from context state: at
     * construction and after a preemption change. */
    void
    rebuildSchedIndex()
    {
        sched_.reset(unsigned(ctxs_.size()));
        for (unsigned c = 0; c < ctxs_.size(); ++c) {
            sched_.sync(c, ctxs_[c].done,
                        ctxs_[c].atBarrier || ctxs_[c].preempted,
                        ctxs_[c].readyAt);
        }
        schedDirty_ = false;
    }

    /** The scheduler found live contexts but nothing runnable — a
     * simulator bug. Dump every context's scheduler-visible state
     * before going down. */
    [[noreturn]] void
    deadlockPanic() const
    {
        std::ostringstream os;
        os << "deadlock: all live contexts blocked (now=" << now_
           << " rr=" << rr_ << " fallbackLockHolder=" << lockHolder_
           << ")";
        for (unsigned c = 0; c < ctxs_.size(); ++c) {
            const ContextState &cs = ctxs_[c];
            const bool parked = !waiters_.empty() && waiters_.parked(c);
            os << "\n  ctx " << c << ": readyAt="
               << (parked ? waiters_.dueAt(c) : cs.readyAt)
               << " parked=" << parked
               << " done=" << cs.done << " atBarrier=" << cs.atBarrier
               << " inTx=" << cs.htm->inTx()
               << " abortPending=" << cs.htm->abortPending()
               << " retries=" << cs.retries
               << " mustFallback=" << cs.mustFallback
               << " inFallback=" << cs.inFallback
               << " preempted=" << cs.preempted;
        }
        // Replay recipe: the seed pins the reference interleaving; a
        // controller's decision trace pins any explored one.
        os << "\n  schedule: seed=" << cfg_.seed << " "
           << (ctrl_ ? ctrl_->describe()
                     : std::string("default (no controller)"));
        HINTM_PANIC(os.str());
    }

    MachineConfig cfg_;
    tir::Program prog_;
    std::unique_ptr<mem::MemorySystem> mem_;
    std::unique_ptr<vm::Vm> vm_;
    /** Every observation sink; declared after mem_, whose metrics
     * sink it attaches. */
    TxObservers observers_;
    std::unique_ptr<htm::HintOracle> oracle_;
    std::vector<ContextState> ctxs_;
    int lockHolder_ = -1;
    std::uint64_t shootdownCycles_ = 0;
    RunResult res_;
    /** Scheduler clock + round-robin cursor (members so a SimRun can
     * stop at a commit target and resume). */
    Cycle now_ = 0;
    unsigned rr_ = 0;
    /** Event-driven ready-context index (cfg.schedIndex or a
     * controller). */
    SchedIndex sched_;
    bool useSchedIndex_ = false;
    /** Fallback-lock waiters parked by the indexed run loop. They stay
     * parked when the loop returns at a commit target: only the
     * indexed loop runs this machine, and its next call resumes them. */
    LockWaiters waiters_;
    /** Set whenever a step mutates another context's scheduler state
     * (shootdown readyAt bump, barrier release, a lock release with
     * waiters parked): the current batch's uniqueness proof no longer
     * holds, so the loop returns to the index for the next pick. An
     * abort signalled into another context is not such a mutation: the
     * victim handles it when next picked, at its unchanged readyAt. */
    bool schedDirty_ = false;
    /** The last step re-checked a held fallback lock (the run loop
     * parks the context). */
    bool spun_ = false;
    bool finalized_ = false;
    /** Scheduler nondeterminism hook (null = reference behavior). */
    ScheduleController *ctrl_ = nullptr;
    /** Event the in-flight step produced, as int(SchedEvent); -1 when
     * none. Only maintained under a controller. */
    int pendingEv_ = -1;
};

} // namespace

void
checkThreadCount(const MachineConfig &cfg, unsigned num_threads)
{
    const unsigned contexts = cfg.numCores * cfg.smtPerCore;
    if (num_threads < 1 || num_threads > contexts)
        HINTM_FATAL("thread count ", num_threads,
                    " does not fit the machine's ", contexts,
                    " hardware contexts");
    if (num_threads > SchedIndex::maxContexts)
        HINTM_FATAL("thread count ", num_threads,
                    " exceeds the simulator's limit of ",
                    SchedIndex::maxContexts, " threads");
    if (cfg.scheduleController && !cfg.mem.directory)
        HINTM_FATAL("a schedule controller needs the coherence directory");
}

RunResult
runMachine(const MachineConfig &cfg, const tir::Module &module,
           unsigned num_threads)
{
    Machine m(cfg, module, num_threads);
    return m.run();
}

struct SimRun::Impl
{
    Impl(const MachineConfig &cfg, const tir::Module &module,
         unsigned num_threads)
        : machine(cfg, module, num_threads)
    {
    }

    Machine machine;
};

SimRun::SimRun(const MachineConfig &cfg, const tir::Module &module,
               unsigned num_threads)
    : impl_(std::make_unique<Impl>(cfg, module, num_threads))
{
}

SimRun::~SimRun() = default;

void
SimRun::runUntilCommits(std::uint64_t target)
{
    impl_->machine.runLoop(target);
}

bool
SimRun::finished() const
{
    return impl_->machine.finished();
}

std::uint64_t
SimRun::committedTxs() const
{
    return impl_->machine.committedTxs();
}

RunResult
SimRun::finish()
{
    return impl_->machine.run();
}

} // namespace sim
} // namespace hintm

/**
 * @file
 * Controllable scheduler nondeterminism. The machine's scheduler makes
 * two kinds of decisions this API exposes:
 *
 *  - tie-breaks: which eligible context to step when several share the
 *    minimal readyAt (the reference rule rotates round-robin from the
 *    rr cursor), and
 *
 *  - preemption points: after every transactional event (TX begin /
 *    commit / abort, fallback-lock acquire / release / spin, barrier
 *    release) the controller may deschedule the context that produced
 *    the event. A preempted context stays off the pick set until
 *    another context is preempted in its place or nothing else is
 *    runnable — a bounded-preemption move in the Landslide /
 *    iterative-context-bounding sense.
 *
 * A null controller (the default MachineConfig) leaves every hot path
 * untouched; DefaultScheduleController is test-locked bit-identical to
 * it. PlanScheduleController replays a sorted list of decision indices
 * to preempt — the compact on-disk schedule encoding — and records the
 * decision trace it saw, which is all the explorer needs to reproduce
 * any interleaving deterministically.
 */

#ifndef HINTM_SIM_SCHEDULE_HH
#define HINTM_SIM_SCHEDULE_HH

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace hintm
{
namespace sim
{

/** Transactional event classes that form preemption points. */
enum class SchedEvent : std::uint8_t
{
    TxBegin,
    TxCommit,
    TxAbort,
    LockAcquire,
    LockRelease,
    /** Spin re-check against a held fallback lock. Controlled runs
     * only: without a controller the machine parks lock waiters instead
     * of stepping each re-check (sim/lock_waiters.hh). Reported for
     * trace completeness; never worth branching on (the spinner
     * re-arrives at the same decision until the lock frees). */
    LockSpin,
    Barrier,
};

const char *schedEventName(SchedEvent e);

/** One preemption point, as the machine presents it to a controller. */
struct SchedDecision
{
    SchedEvent event = SchedEvent::TxBegin;
    /** Context that produced the event (the preemption candidate). */
    unsigned ctx = 0;
    Cycle cycle = 0;
    /** Verdict of the independence filter: false means every block this
     * context's TX touches is private to it right now (directory sharer
     * masks / remote read-write sets all disjoint), so reordering it
     * against its peers cannot change the outcome and a DPOR-style
     * explorer may skip branching here. */
    bool dependent = true;
};

/** The reference tie-break: first set bit of @p mask at or after
 * @p rr, wrapping — identical to the rotating scan's strict-< order. */
inline unsigned
defaultTieBreak(std::uint64_t mask, unsigned rr)
{
    const std::uint64_t hi = mask & ~((std::uint64_t(1) << rr) - 1);
    return unsigned(std::countr_zero(hi ? hi : mask));
}

/**
 * Scheduler decision hook. The machine consults it once per
 * equal-readyAt tie and once per transactional event; both callbacks
 * run at a quiescent boundary (the event's step has fully completed and
 * the scheduler state is republished).
 */
class ScheduleController
{
  public:
    virtual ~ScheduleController() = default;

    /** Pick a context among the set bits of @p mask (all tied at the
     * minimal readyAt). Must return a set bit. */
    virtual unsigned
    chooseTie(std::uint64_t mask, unsigned rr)
    {
        return defaultTieBreak(mask, rr);
    }

    /** A preemption point. Return true to deschedule @p d.ctx. Only
     * called when at least one other context is live and not blocked,
     * so a preemption can never wedge the machine on its own. */
    virtual bool
    onDecision(const SchedDecision &d)
    {
        (void)d;
        return false;
    }

    /** One-line schedule provenance for crash/panic dumps: everything
     * needed to replay the interleaving that got here. */
    virtual std::string describe() const;
};

/** Explicit stand-in for "no controller"; behaviorally identical to a
 * null MachineConfig::scheduleController (test-locked). */
class DefaultScheduleController : public ScheduleController
{
};

/**
 * Replays a schedule plan — a sorted list of decision indices at which
 * to preempt — and records the decision trace. Decision indices count
 * onDecision() callbacks from 0 along the trace; because every decision
 * upstream of index i is replayed identically, (plan, seed, config)
 * pins the whole interleaving.
 */
class PlanScheduleController : public ScheduleController
{
  public:
    /** Indexed trace entry (the index the decision got). */
    struct Seen
    {
        SchedDecision d;
        std::uint32_t index = 0;
    };

    /** Arm the controller for one run from its first decision:
     * preempt at @p preempt_at (ascending). */
    void
    reset(std::vector<std::uint32_t> preempt_at)
    {
        plan_ = std::move(preempt_at);
        next_ = 0;
        cursor_ = 0;
        trace_.clear();
    }

    bool
    onDecision(const SchedDecision &d) override
    {
        const std::uint32_t index = next_++;
        trace_.push_back({d, index});
        if (hook)
            hook(d, index);
        if (cursor_ < plan_.size() && plan_[cursor_] == index) {
            ++cursor_;
            return true;
        }
        return false;
    }

    std::string describe() const override;

    const std::vector<std::uint32_t> &plan() const { return plan_; }
    const std::vector<Seen> &trace() const { return trace_; }
    /** Index the next decision will get. */
    std::uint32_t nextIndex() const { return next_; }

    /** Explorer tap, invoked on every decision before the plan verdict
     * (branch-candidate collection). */
    std::function<void(const SchedDecision &, std::uint32_t)> hook;

  private:
    std::vector<std::uint32_t> plan_;
    std::vector<Seen> trace_;
    std::uint32_t next_ = 0;
    std::size_t cursor_ = 0;
};

/**
 * On-disk schedule: enough to rebuild the exact interleaving with
 * PlanScheduleController on a machine built from the same workload,
 * config and seed (recorded here for cross-checking only).
 */
struct ScheduleFile
{
    std::string workload;
    std::string config;
    std::uint64_t seed = 1;
    /** Decision count of the recorded trace (provenance). */
    std::uint32_t decisions = 0;
    std::vector<std::uint32_t> preemptAt;
};

/** Write @p s to @p path; false on I/O failure. */
bool writeScheduleFile(const std::string &path, const ScheduleFile &s);

/** Parse @p path into @p out; false on I/O or format errors. */
bool readScheduleFile(const std::string &path, ScheduleFile &out);

} // namespace sim
} // namespace hintm

#endif // HINTM_SIM_SCHEDULE_HH

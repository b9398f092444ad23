/**
 * @file
 * Fallback-lock waiters parked outside the scheduler index. While the
 * global fallback lock is held, a context whose TxBegin found it taken
 * re-checks it every period. Every re-check after the first is a
 * zero-cost step that changes only three things: the waiter's own
 * readyAt (+period), the scheduler clock and the round-robin cursor
 * rr. The indexed machine loop therefore parks each waiter here after
 * its first re-check and replays only the cursor:
 *
 *  - Waiters due at one cycle form a *phase group* (a context mask).
 *    Groups are kept sorted by cycle and merge when they meet, because
 *    waiters due at one cycle tie in one rotation.
 *
 *  - A group due before the next real pick's key re-checks in
 *    rotation order from rr, so rr ends one past the last member that
 *    sweep reaches (the highest member below rr, else the highest
 *    member), and the group moves one period on.
 *
 *  - A group due exactly at a real pick's key splits at the real winner
 *    w: members the sweep from rr reaches before w re-check first and
 *    move one period on; the rest stay due and re-check after w.
 *
 * A waiter's exact readyAt is its group's cycle; the machine's own copy
 * is stale until the waiter is unparked (lock release, or the loop
 * handing the machine back). The structure is transient: it is empty
 * whenever the machine is not inside its indexed run loop.
 */

#ifndef HINTM_SIM_LOCK_WAITERS_HH
#define HINTM_SIM_LOCK_WAITERS_HH

#include <array>
#include <bit>
#include <cstdint>
#include <limits>

#include "common/logging.hh"
#include "common/types.hh"

namespace hintm
{
namespace sim
{

class LockWaiters
{
  public:
    /** Re-checks are @p period cycles apart (must be positive). */
    explicit LockWaiters(Cycle period) : period_(period)
    {
        HINTM_ASSERT(period > 0, "lock re-check period must be positive");
    }

    /** Drop every waiter; @p n is the machine's context count (the
     * round-robin cursor wraps there, at most 64). */
    void
    reset(unsigned n)
    {
        HINTM_ASSERT(n <= capacity, "lock waiters support at most 64 contexts");
        n_ = n;
        head_ = 0;
        count_ = 0;
        members_ = 0;
    }

    bool empty() const { return members_ == 0; }
    bool parked(unsigned c) const { return members_ >> c & 1; }

    /** Cycle of the earliest group; max when nothing is parked. */
    Cycle
    earliest() const
    {
        return count_ ? at(0).cycle : std::numeric_limits<Cycle>::max();
    }

    /** Parked context @p c's next re-check cycle (its exact readyAt). */
    Cycle
    dueAt(unsigned c) const
    {
        return at(find(c)).cycle;
    }

    /** Park @p c with its next re-check at @p t. */
    void
    park(unsigned c, Cycle t)
    {
        const std::uint64_t bit = std::uint64_t(1) << c;
        HINTM_ASSERT(!(members_ & bit), "context parked twice");
        members_ |= bit;
        insert(t, bit);
    }

    /** Move parked context @p c's next re-check to @p t. */
    void
    repark(unsigned c, Cycle t)
    {
        const std::uint64_t bit = std::uint64_t(1) << c;
        const unsigned i = find(c);
        if ((at(i).members &= ~bit) == 0)
            erase(i);
        insert(t, bit);
    }

    /** Replay every re-check due strictly before @p t, in cycle order,
     * on the round-robin cursor @p rr. */
    void
    recheckBefore(Cycle t, unsigned &rr)
    {
        while (count_ && at(0).cycle < t) {
            const Group g = at(0);
            popFront();
            const std::uint64_t below =
                g.members & ((std::uint64_t(1) << rr) - 1);
            const unsigned last =
                63u - unsigned(std::countl_zero(below ? below : g.members));
            rr = last + 1 == n_ ? 0 : last + 1;
            insert(g.cycle + period_, g.members);
        }
    }

    /** The real winner @p w was picked at key @p t from cursor @p rr:
     * the group due at @p t re-checks the members the rotation reaches
     * before w. The cursor needs no update, since w's own step moves it
     * past them. */
    void
    splitAt(Cycle t, unsigned rr, unsigned w)
    {
        if (count_ == 0 || at(0).cycle != t)
            return;
        const std::uint64_t from = ~((std::uint64_t(1) << rr) - 1);
        const std::uint64_t to = (std::uint64_t(1) << w) - 1;
        const std::uint64_t ahead =
            at(0).members & (rr <= w ? from & to : from | to);
        if (ahead == 0)
            return;
        if ((at(0).members &= ~ahead) == 0)
            popFront();
        insert(t + period_, ahead);
    }

    /** Unpark everyone: @p f(context, readyAt) for each waiter. */
    template <typename F>
    void
    drain(F &&f)
    {
        for (unsigned i = 0; i < count_; ++i) {
            const Group &g = at(i);
            for (std::uint64_t m = g.members; m; m &= m - 1)
                f(unsigned(std::countr_zero(m)), g.cycle);
        }
        reset(n_);
    }

  private:
    /** One group per parked context at most. */
    static constexpr unsigned capacity = 64;

    struct Group
    {
        Cycle cycle;
        std::uint64_t members;
    };

    Group &at(unsigned i) { return ring_[(head_ + i) % capacity]; }
    const Group &at(unsigned i) const
    {
        return ring_[(head_ + i) % capacity];
    }

    unsigned
    find(unsigned c) const
    {
        HINTM_ASSERT(parked(c), "context ", c, " is not parked");
        unsigned i = 0;
        while (!(at(i).members >> c & 1))
            ++i;
        return i;
    }

    void
    popFront()
    {
        head_ = (head_ + 1) % capacity;
        --count_;
    }

    void
    erase(unsigned i)
    {
        for (; i + 1 < count_; ++i)
            at(i) = at(i + 1);
        --count_;
    }

    /** Add @p mask at cycle @p t, merging with a group already there.
     * Searches from the back: a group that just re-checked is almost
     * always the latest. */
    void
    insert(Cycle t, std::uint64_t mask)
    {
        unsigned i = count_;
        while (i > 0 && at(i - 1).cycle > t)
            --i;
        if (i > 0 && at(i - 1).cycle == t) {
            at(i - 1).members |= mask;
            return;
        }
        for (unsigned j = count_; j > i; --j)
            at(j) = at(j - 1);
        at(i) = {t, mask};
        ++count_;
    }

    Cycle period_;
    unsigned n_ = 0;
    /** Ring of groups sorted by cycle: at(0) is the earliest. */
    std::array<Group, capacity> ring_{};
    unsigned head_ = 0;
    unsigned count_ = 0;
    /** Union of every group's members. */
    std::uint64_t members_ = 0;
};

} // namespace sim
} // namespace hintm

#endif // HINTM_SIM_LOCK_WAITERS_HH

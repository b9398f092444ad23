/**
 * @file
 * sim::LockWaiters against a brute-force model. The model keeps each
 * parked waiter's readyAt and steps re-checks one at a time by the
 * reference scan's rule: the earliest readyAt goes first, a tie goes to
 * the first waiter at or after the round-robin cursor, and a re-check
 * moves the cursor one past its waiter and the waiter's readyAt one
 * period on. A seeded driver plays random park / repark / settle /
 * pick / tie-step / wake sequences on both, in the order the machine's
 * run loop issues them (lock held or free, time moving forward), and
 * compares the cursor after every replay, every split, every waiter's
 * readyAt after every operation, and the woken waiters.
 *
 * sim::SchedIndex, the pick set the waiters park outside of, gets the
 * same treatment: a model scans a plain readyAt array on every query,
 * and seeded random sync / setReady / block / unblock / retire /
 * peekKey / pick sequences play on both, each winner republished
 * before the next pick as both machine loops do.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>

#include "sim/lock_waiters.hh"
#include "sim/sched_index.hh"

using namespace hintm;

namespace
{

constexpr Cycle period = sim::LockWaiters::period;

std::uint64_t
bit(unsigned c)
{
    return std::uint64_t(1) << c;
}

/** Parked waiters as plain readyAt values, stepped one re-check at a
 * time. */
class Model
{
  public:
    explicit Model(unsigned n) : n_(n) {}

    std::uint64_t parked = 0;
    std::array<Cycle, 64> ready{};

    void
    park(unsigned c, Cycle t)
    {
        parked |= bit(c);
        ready[c] = t;
    }

    /** Step every re-check due before @p t, earliest first, ties in
     * rotation order from @p rr, exactly like the reference scan. */
    void
    recheckBefore(Cycle t, unsigned &rr)
    {
        while (true) {
            int best = -1;
            Cycle best_t = t;
            for (unsigned i = 0, c = rr; i < n_; ++i, c = (c + 1) % n_) {
                if ((parked & bit(c)) && ready[c] < best_t) {
                    best_t = ready[c];
                    best = int(c);
                }
            }
            if (best < 0)
                return;
            ready[unsigned(best)] += period;
            rr = (unsigned(best) + 1) % n_;
        }
    }

    /** Real context @p w steps at @p t from cursor @p rr: the waiters
     * due at @p t that the rotation reaches before w re-check first. */
    std::uint64_t
    splitAt(Cycle t, unsigned rr, unsigned w)
    {
        std::uint64_t ahead = 0;
        for (unsigned c = rr; c != w; c = (c + 1) % n_) {
            if ((parked & bit(c)) && ready[c] == t) {
                ready[c] += period;
                ahead |= bit(c);
            }
        }
        return ahead;
    }

    /** Waiters that re-check at @p t once everything before it has. */
    std::uint64_t
    groupAt(Cycle t) const
    {
        Model copy = *this;
        unsigned rr = 0;
        copy.recheckBefore(t, rr);
        return copy.dueMask(t);
    }

    std::uint64_t
    dueMask(Cycle t) const
    {
        std::uint64_t m = 0;
        for (unsigned c = 0; c < n_; ++c) {
            if ((parked & bit(c)) && ready[c] == t)
                m |= bit(c);
        }
        return m;
    }

    Cycle
    earliest() const
    {
        Cycle e = std::numeric_limits<Cycle>::max();
        for (unsigned c = 0; c < n_; ++c) {
            if (parked & bit(c))
                e = std::min(e, ready[c]);
        }
        return e;
    }

  private:
    unsigned n_;
};

/** One seeded sequence on an @p n-context machine, mirroring
 * Machine::runLoop. Returns the number of operations played. */
unsigned
playSequence(std::uint64_t seed, unsigned n, unsigned ops)
{
    std::mt19937_64 rng(seed);
    const auto below = [&rng](std::uint64_t k) { return rng() % k; };
    // A random member of a non-empty mask.
    const auto anyOf = [&below](std::uint64_t mask) {
        for (std::uint64_t k = below(unsigned(std::popcount(mask))); k;
             --k)
            mask &= mask - 1;
        return unsigned(std::countr_zero(mask));
    };

    sim::LockWaiters lw;
    lw.reset(n);
    Model m(n);
    const std::uint64_t all = n == 64 ? ~std::uint64_t(0) : bit(n) - 1;

    Cycle now = below(1000);
    unsigned w = unsigned(below(n)); // the context stepping at now
    unsigned rr = (w + 1) % n;
    int holder = int(w); // -1: the lock is free
    bool batch_open = true;

    // Extra delay before a first re-check: often none, often whole
    // periods (so one phase holds waiters of different first cycles).
    const auto farOffset = [&below]() -> Cycle {
        switch (below(4)) {
          case 0: return below(300);
          case 1: return period * below(5);
          default: return 0;
        }
    };
    // Replay the cursor to t, then split t's group at the stepping
    // context, on both sides.
    const auto replayAndSplit = [&](Cycle t) {
        unsigned rr_lw = rr, rr_m = rr;
        lw.recheckBefore(t, rr_lw);
        m.recheckBefore(t, rr_m);
        EXPECT_EQ(rr_lw, rr_m) << "cursor after the replay to " << t;
        EXPECT_EQ(lw.splitAt(t, rr_lw, w), m.splitAt(t, rr_m, w))
            << "split at " << t << " by ctx " << w;
    };
    // A shootdown stalls a parked waiter during the step at now.
    const auto stall = [&]() {
        const unsigned v = anyOf(m.parked);
        const Cycle due = lw.dueAt(v);
        EXPECT_EQ(due, m.ready[v]) << "due of stalled ctx " << v;
        const Cycle t = std::max(due, now) + farOffset();
        lw.repark(v, t);
        m.ready[v] = t;
    };

    for (unsigned op = 0; op < ops; ++op) {
        const unsigned r = unsigned(below(100));
        if (holder >= 0 && (!batch_open || r < 25)) {
            // A real pick at key k on the held lock: the cursor is read.
            const Cycle k = now + below(3) * period + below(100);
            w = anyOf(all & ~m.parked);
            replayAndSplit(k);
            now = k;
            rr = (w + 1) % n;
            batch_open = true;
        } else if (holder >= 0 && r < 55) {
            // w's batch steps on at t; a zero-cost step re-steps now.
            const Cycle t = below(8) == 0 ? now : now + 1 + below(150);
            const std::uint64_t g = lw.groupAt(t);
            EXPECT_EQ(g, m.groupAt(t)) << "group due at " << t;
            if (g != 0 && below(2) == 0) {
                replayAndSplit(t);
            } else {
                // Settles when nothing is due, replays and splits when a
                // group is (then checked through every dueAt below).
                lw.stepAt(t, rr, w);
                unsigned rr_m = rr;
                m.recheckBefore(t, rr_m);
                if (g != 0)
                    m.splitAt(t, rr_m, w);
            }
            now = t;
            rr = (w + 1) % n;
        } else if (holder >= 0 && r < 85) {
            // w's step re-checked the held lock: the batch ends, w parks.
            if (int(w) == holder)
                continue;
            const Cycle t = now + period + farOffset();
            lw.park(w, t, now);
            m.park(w, t);
            batch_open = false;
        } else if (holder >= 0 && r < 95) {
            if (m.parked)
                stall();
        } else if (holder >= 0) {
            // The holder's step at now releases the lock; the batch ends.
            if (int(w) == holder) {
                holder = -1;
                batch_open = false;
            }
        } else if (!batch_open || r < 70) {
            // Loop top on the free lock: the earliest group wakes unless
            // a real pick comes first, and the pick settles.
            const Cycle k = now + below(120);
            const Cycle e = lw.earliest();
            EXPECT_EQ(e, m.earliest());
            Cycle key = k;
            if (e <= k) {
                const std::uint64_t want = m.dueMask(e);
                std::uint64_t woken = 0;
                lw.wake(e, [&](unsigned c) { woken |= bit(c); });
                EXPECT_EQ(woken, want) << "woken at " << e;
                m.parked &= ~want;
                key = e;
            }
            EXPECT_GT(m.earliest(), key);
            w = anyOf(all & ~m.parked);
            now = key;
            rr = (w + 1) % n;
            batch_open = true;
        } else if (r < 90) {
            // w's batch takes the lock.
            holder = int(w);
        } else if (m.parked) {
            stall();
        }
        for (std::uint64_t mm = m.parked; mm; mm &= mm - 1) {
            const unsigned c = unsigned(std::countr_zero(mm));
            EXPECT_TRUE(lw.parked(c));
            EXPECT_EQ(lw.dueAt(c), m.ready[c]) << "ctx " << c;
        }
        EXPECT_EQ(lw.empty(), m.parked == 0);
        if (::testing::Test::HasFailure())
            return op;
    }
    return ops;
}

/** The scheduler's pick set as a plain array, scanned in full on every
 * query like the reference scheduler. */
struct PickModel
{
    std::array<Cycle, 64> ready{};
    std::uint64_t live = 0;
    std::uint64_t eligible = 0;

    /** The reference scan's pick among @p n contexts: the first strict
     * minimum walking from @p rr, wrapping. */
    unsigned
    scanFrom(unsigned rr, unsigned n) const
    {
        int best = -1;
        for (unsigned i = 0, c = rr; i < n; ++i, c = (c + 1) % n) {
            if ((eligible & bit(c)) &&
                (best < 0 || ready[c] < ready[unsigned(best)]))
                best = int(c);
        }
        return unsigned(best);
    }

    Cycle
    minKey() const
    {
        Cycle k = std::numeric_limits<Cycle>::max();
        for (std::uint64_t m = eligible; m; m &= m - 1)
            k = std::min(k, ready[unsigned(std::countr_zero(m))]);
        return k;
    }

    std::uint64_t
    tiesAt(Cycle t) const
    {
        std::uint64_t tie = 0;
        for (std::uint64_t m = eligible; m; m &= m - 1) {
            const unsigned c = unsigned(std::countr_zero(m));
            if (ready[c] == t)
                tie |= bit(c);
        }
        return tie;
    }
};

/** A tie-break that is not the default: the (rr mod ties)-th tied
 * context. */
unsigned
nthTied(std::uint64_t mask, unsigned rr)
{
    for (unsigned k = rr % unsigned(std::popcount(mask)); k; --k)
        mask &= mask - 1;
    return unsigned(std::countr_zero(mask));
}

/** One seeded sequence on an @p n-context index, with the default
 * tie-break or, with @p steer, nthTied. Returns the number of
 * operations played. */
unsigned
playIndexSequence(std::uint64_t seed, unsigned n, bool steer, unsigned ops)
{
    std::mt19937_64 rng(seed);
    const auto below = [&rng](std::uint64_t k) { return rng() % k; };
    const auto anyOf = [&below](std::uint64_t mask) {
        for (std::uint64_t k = below(unsigned(std::popcount(mask))); k;
             --k)
            mask &= mask - 1;
        return unsigned(std::countr_zero(mask));
    };

    sim::SchedIndex idx;
    PickModel m;
    Cycle now = 1000000 + below(1000); // keys below it never wrap
    unsigned rr = unsigned(below(n));

    // Mostly at or just after the last pick's key, so ties are common;
    // sometimes below it, sometimes far after.
    const auto nearKey = [&]() -> Cycle {
        switch (below(8)) {
          case 0: return now - below(3);
          case 1: return now + 3 + below(200);
          default: return now + below(3);
        }
    };
    const auto setReady = [&](unsigned c, Cycle t) {
        idx.setReady(c, t);
        m.ready[c] = t;
    };
    const auto block = [&](unsigned c, Cycle t) {
        idx.block(c, t);
        m.ready[c] = t;
        m.eligible &= ~bit(c);
    };
    const auto unblock = [&](unsigned c, Cycle t) {
        idx.unblock(c, t);
        m.ready[c] = t;
        m.eligible |= bit(c);
    };
    const auto retire = [&](unsigned c) {
        idx.retire(c);
        m.live &= ~bit(c);
        m.eligible &= ~bit(c);
    };
    const auto sync = [&](unsigned c) {
        const unsigned s = unsigned(below(8));
        const bool done = s == 0, at_barrier = s == 1;
        const Cycle t = nearKey();
        idx.sync(c, done, at_barrier, t);
        m.ready[c] = t;
        m.live = done ? m.live & ~bit(c) : m.live | bit(c);
        m.eligible = done || at_barrier ? m.eligible & ~bit(c)
                                        : m.eligible | bit(c);
    };
    // A step of the batch on @p w moves another context: a shootdown
    // stall, or a barrier release.
    const auto moveOther = [&](unsigned w) {
        const std::uint64_t others = m.live & ~bit(w);
        if (others == 0)
            return;
        const unsigned v = anyOf(others);
        if (m.eligible & bit(v) || below(2))
            setReady(v, std::max(m.ready[v], now) + below(3));
        else
            unblock(v, now + 1 + below(2));
    };

    idx.reset(n);
    for (unsigned c = 0; c < n; ++c)
        sync(c);
    for (unsigned op = 0; op < ops; ++op) {
        const unsigned r = unsigned(below(100));
        if (r < 40) {
            const Cycle key = m.minKey();
            const sim::SchedIndex::Pick p =
                steer ? idx.pick(rr, nthTied) : idx.pick(rr);
            if (m.eligible == 0) {
                EXPECT_EQ(p.winner, -1);
                continue;
            }
            const std::uint64_t ties = m.tiesAt(key);
            const unsigned w =
                steer ? nthTied(ties, rr) : m.scanFrom(rr, n);
            EXPECT_EQ(p.winner, int(w)) << "pick from rr " << rr;
            EXPECT_EQ(p.key, key);
            if (ties & ~bit(w)) {
                EXPECT_EQ(p.bound, key) << "ties remain";
            } else {
                for (std::uint64_t mm = m.eligible & ~bit(w); mm;
                     mm &= mm - 1) {
                    const unsigned c = unsigned(std::countr_zero(mm));
                    EXPECT_LE(p.bound, m.ready[c]) << "bound over ctx " << c;
                }
            }
            now = key;
            rr = (w + 1) % n;
            while (below(4) == 0)
                moveOther(w);
            // Close the batch: republish the winner, often at the key.
            const unsigned how = unsigned(below(10));
            const Cycle t = now + (below(3) ? below(3) : below(150));
            if (how == 0)
                retire(w);
            else if (how == 1)
                block(w, t);
            else
                setReady(w, t);
        } else if (r < 50) {
            EXPECT_EQ(idx.peekKey(), m.minKey());
        } else if (r < 65) {
            setReady(unsigned(below(n)), nearKey());
        } else if (r < 73) {
            if (m.eligible)
                block(anyOf(m.eligible), nearKey());
        } else if (r < 88) {
            if (m.live & ~m.eligible)
                unblock(anyOf(m.live & ~m.eligible), nearKey());
        } else if (r < 90) {
            if (m.live)
                retire(anyOf(m.live));
        } else if (r < 96) {
            sync(unsigned(below(n)));
        } else if (r < 97) {
            idx.reset(n);
            for (unsigned c = 0; c < n; ++c)
                sync(c);
        } else {
            rr = unsigned(below(n)); // a lock-waiter replay moved it
        }
        EXPECT_EQ(idx.anyLive(), m.live != 0);
        if (::testing::Test::HasFailure())
            return op;
    }
    return ops;
}

} // namespace

TEST(LockWaitersOracle, RandomSequencesMatchStepByStepModel)
{
    unsigned played = 0;
    std::uint64_t seed = 1;
    for (const unsigned n : {64u, 5u, 17u, 64u, 40u, 2u, 64u, 33u}) {
        for (int rep = 0; rep < 3; ++rep, ++seed) {
            played += playSequence(seed, n, 1500);
            ASSERT_FALSE(::testing::Test::HasFailure())
                << "seed " << seed << ", " << n << " contexts";
        }
    }
    EXPECT_GE(played, 30000u);
}

TEST(LockWaitersOracle, WakingAGroupLeavesLaterWaitersOfItsPhaseParked)
{
    // Two waiters of one phase, the second parked two periods later: a
    // wake (or a repark) of the first must not make the second due
    // before its own first re-check.
    for (const bool wake : {true, false}) {
        sim::LockWaiters lw;
        lw.reset(8);
        lw.park(1, 164, 100);
        lw.park(5, 164 + 2 * period, 100);
        if (wake) {
            std::uint64_t woken = 0;
            lw.wake(164, [&](unsigned c) { woken |= bit(c); });
            EXPECT_EQ(woken, bit(1));
        } else {
            lw.repark(1, 170);
        }
        EXPECT_EQ(lw.groupAt(164 + period), 0u);
        unsigned rr = 0;
        lw.recheckBefore(164 + period + 1, rr);
        EXPECT_EQ(rr, wake ? 0u : 2u);
        EXPECT_EQ(lw.dueAt(5), 164 + 2 * period);
    }
}

TEST(SchedIndexOracle, RandomSequencesMatchScanModel)
{
    unsigned played = 0;
    std::uint64_t seed = 1;
    for (const unsigned n : {1u, 2u, 8u, 16u, 17u, 33u, 64u}) {
        for (const bool steer : {false, true}) {
            for (int rep = 0; rep < 3; ++rep, ++seed) {
                played += playIndexSequence(seed, n, steer, 3000);
                ASSERT_FALSE(::testing::Test::HasFailure())
                    << "seed " << seed << ", " << n << " contexts"
                    << (steer ? ", steered" : "");
            }
        }
    }
    EXPECT_GE(played, 126000u);
}

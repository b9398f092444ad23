#include "journal.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/trace.hh"

namespace hintm
{

const char *
txOutcomeName(TxOutcome o)
{
    switch (o) {
      case TxOutcome::Commit: return "commit";
      case TxOutcome::Abort: return "abort";
      case TxOutcome::FallbackCommit: return "fallback";
      case TxOutcome::ConvertedCommit: return "converted";
    }
    return "?";
}

TxJournal::TxJournal(std::size_t capacity, SiteNames names)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      names_(std::move(names))
{
    // The ring grows lazily up to capacity_: short runs never pay for
    // the full allocation, long runs allocate exactly once each.
    ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void
TxJournal::push(const TxRecord &r)
{
    // Ring append. Once full, overwrite the oldest slot and count the
    // displaced record as dropped (bounded memory on genome-large).
    if (ring_.size() < capacity_) {
        ring_.push_back(r);
    } else {
        if (pushed_ == capacity_) {
            trace::event(trace::Category::Journal, r.end,
                         "TX journal ring full (", capacity_,
                         " records): oldest records now drop");
        }
        ring_[pushed_ % capacity_] = r;
    }
    ++pushed_;

    // Exact aggregates, immune to ring drops.
    SiteStats &s = sites_[siteKey(r.fn, r.block, r.instr)];
    if (s.fn == -1 && r.fn != -1) {
        s.fn = r.fn;
        s.block = r.block;
        s.instr = r.instr;
    }
    switch (r.outcome) {
      case TxOutcome::Commit:
        ++totals_.commits;
        ++s.commits;
        s.footprintSum += r.readBlocks + r.writeBlocks;
        break;
      case TxOutcome::FallbackCommit:
        ++totals_.fallbackCommits;
        ++s.fallbackCommits;
        break;
      case TxOutcome::ConvertedCommit:
        ++totals_.convertedCommits;
        ++s.convertedCommits;
        break;
      case TxOutcome::Abort: {
        const unsigned reason = std::min<unsigned>(r.reason,
                                                   maxReasons - 1);
        ++totals_.aborts[reason];
        ++s.aborts[reason];
        const Cycle lost = r.end >= r.begin ? r.end - r.begin : 0;
        totals_.cyclesLostToAborts += lost;
        s.cyclesLostToAborts += lost;
        if (r.offendingValid) {
            auto hot = std::find_if(s.hotBlocks.begin(),
                                    s.hotBlocks.end(),
                                    [&](const HotBlock &h) {
                                        return h.addr == r.offendingAddr;
                                    });
            if (hot != s.hotBlocks.end())
                ++hot->count;
            else if (s.hotBlocks.size() < hotBlockCap)
                s.hotBlocks.push_back({r.offendingAddr, 1});
            else {
                ++s.otherOffenders;
                s.hotBlocksSaturated = true;
            }
        }
        break;
      }
    }
}

std::size_t
TxJournal::size() const
{
    return std::min<std::uint64_t>(pushed_, capacity_);
}

std::uint64_t
TxJournal::dropped() const
{
    return pushed_ > capacity_ ? pushed_ - capacity_ : 0;
}

const TxRecord &
TxJournal::at(std::size_t i) const
{
    HINTM_ASSERT(i < size(), "journal index out of range");
    if (pushed_ <= capacity_)
        return ring_[i];
    // Wrapped: the oldest retained record sits at the write cursor.
    return ring_[(pushed_ + i) % capacity_];
}

std::vector<const TxJournal::SiteStats *>
TxJournal::sitesByAborts() const
{
    return rankSites(sites_, [](const SiteStats &a, const SiteStats &b) {
        return a.totalAborts() > b.totalAborts();
    });
}

std::vector<const TxJournal::SiteStats *>
TxJournal::sitesByCyclesLost() const
{
    return rankSites(sites_, [](const SiteStats &a, const SiteStats &b) {
        if (a.cyclesLostToAborts != b.cyclesLostToAborts)
            return a.cyclesLostToAborts > b.cyclesLostToAborts;
        return a.totalAborts() > b.totalAborts();
    });
}

std::vector<IntervalSample>
TxJournal::sampleIntervals(Cycle window) const
{
    // A zero window has no meaningful folding: report no samples
    // instead of dividing by zero (callers pass user-given widths).
    if (window == 0)
        return {};
    std::vector<IntervalSample> out;
    const std::size_t n = size();
    if (n == 0)
        return out;

    Cycle last_end = 0;
    for (std::size_t i = 0; i < n; ++i)
        last_end = std::max(last_end, at(i).end);
    const std::size_t windows = std::size_t(last_end / window) + 1;
    out.resize(windows);
    for (std::size_t w = 0; w < windows; ++w)
        out[w].start = Cycle(w) * window;

    for (std::size_t i = 0; i < n; ++i) {
        const TxRecord &r = at(i);
        IntervalSample &s = out[std::size_t(r.end / window)];
        switch (r.outcome) {
          case TxOutcome::Abort:
            ++s.aborts[std::min<unsigned>(r.reason, maxReasons - 1)];
            break;
          case TxOutcome::Commit:
            ++s.commits;
            s.footprintSum += r.readBlocks + r.writeBlocks;
            ++s.footprintCount;
            break;
          case TxOutcome::FallbackCommit:
          case TxOutcome::ConvertedCommit:
            ++s.commits;
            break;
        }
        if (r.outcome == TxOutcome::FallbackCommit ||
            r.outcome == TxOutcome::ConvertedCommit) {
            // Lock occupancy: spread [begin, end) over the windows it
            // overlaps.
            const Cycle lo = std::min(r.begin, r.end);
            for (std::size_t w = std::size_t(lo / window);
                 w <= std::size_t(r.end / window); ++w) {
                const Cycle ws = out[w].start;
                const Cycle we = ws + window;
                const Cycle a = std::max(lo, ws);
                const Cycle b = std::min(r.end, we);
                if (b > a)
                    out[w].fallbackCycles += b - a;
            }
        }
    }
    return out;
}

} // namespace hintm

#include "metrics.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace hintm
{

unsigned
Log2Hist::bucketOf(std::uint64_t v)
{
    if (v == 0)
        return 0;
    // bucket k >= 1 holds [2^(k-1), 2^k); bit_width(v) = floor(log2)+1.
    return std::min<unsigned>(unsigned(std::bit_width(v)),
                              numBuckets - 1);
}

void
Log2Hist::add(std::uint64_t v)
{
    ++buckets[bucketOf(v)];
    ++count;
    sum += v;
    max = std::max(max, v);
}

TimeSeries::TimeSeries(Cycle initial_window, std::size_t max_slots)
    : window_(std::max<Cycle>(initial_window, 1)),
      maxSlots_(std::max<std::size_t>(max_slots, 2))
{
}

void
TimeSeries::ensureCovers(Cycle at)
{
    while (at / window_ >= maxSlots_) {
        // Fold adjacent windows together and double the window width.
        const std::size_t n = samples_.size();
        for (std::size_t i = 0; i < (n + 1) / 2; ++i) {
            std::uint64_t v = samples_[2 * i];
            if (2 * i + 1 < n)
                v += samples_[2 * i + 1];
            samples_[i] = v;
        }
        samples_.resize((n + 1) / 2);
        window_ *= 2;
    }
}

void
TimeSeries::add(Cycle at, std::uint64_t v)
{
    ensureCovers(at);
    const std::size_t slot = std::size_t(at / window_);
    if (slot >= samples_.size())
        samples_.resize(slot + 1, 0);
    samples_[slot] += v;
}

void
TimeSeries::addSpan(Cycle begin, Cycle end)
{
    if (end <= begin)
        return;
    ensureCovers(end);
    const std::size_t last = std::size_t(end / window_);
    if (last >= samples_.size())
        samples_.resize(last + 1, 0);
    for (std::size_t w = std::size_t(begin / window_); w <= last; ++w) {
        const Cycle ws = Cycle(w) * window_;
        const Cycle a = std::max(begin, ws);
        const Cycle b = std::min(end, ws + window_);
        if (b > a)
            samples_[w] += b - a;
    }
}

void
MetricsRegistry::beginTx(TxMetricsCtx &m, Cycle now, std::int32_t fn,
                         std::int32_t block, std::int32_t instr)
{
    m.readBlocks = 0;
    m.writeBlocks = 0;
    m.skips.clear();
    m.lastSkip = ~Addr(0);
    m.skipStatic = m.skipDyn = m.skipAnnot = 0;
    m.beginCycle = now;
    m.nextReadMilestone = 0;
    m.nextWriteMilestone = 0;
    m.fn = fn;
    m.block = block;
    m.instr = instr;
    m.open = true;
}

namespace
{

/** Per-access bytes: TxIR loads/stores move one 8-byte word. */
constexpr std::uint64_t accessBytes = 8;

} // namespace

MetricsRegistry::SiteMetrics &
MetricsRegistry::closeOther(TxMetricsCtx &m)
{
    HINTM_ASSERT(m.open, "closing a metrics ctx that is not open");
    SiteMetrics &s = site(m.fn, m.block, m.instr);
    s.skipStatic += m.skipStatic;
    s.skipDyn += m.skipDyn;
    s.skipAnnot += m.skipAnnot;
    s.skippedBlocksSum += m.skips.size();
    s.skippedBytes +=
        (m.skipStatic + m.skipDyn + m.skipAnnot) * accessBytes;
    skipStaticAccesses += m.skipStatic;
    skipDynAccesses += m.skipDyn;
    skipAnnotAccesses += m.skipAnnot;
    m.open = false;
    return s;
}

void
MetricsRegistry::closeCommit(TxMetricsCtx &m, bool hint_saved)
{
    SiteMetrics &s = closeOther(m);
    ++s.commits;
    const std::uint64_t tracked = m.readBlocks + m.writeBlocks;
    s.peakTrackedSum += tracked;
    s.peakTrackedMax = std::max(s.peakTrackedMax, tracked);
    trackedAtCommit.add(tracked);
    if (hint_saved) {
        ++s.hintSavedCommits;
        ++hintSavedCommits;
    }
}

void
MetricsRegistry::closeCapacityAbort(TxMetricsCtx &m,
                                    std::uint64_t tracked)
{
    SiteMetrics &s = closeOther(m);
    ++s.capacityAborts;
    ++capacityAborts;
    s.trackedAtCapacitySum += tracked;
    trackedAtCapacityAbort.add(tracked);
}

void
MetricsRegistry::recordOverflowLine(bool tracked, bool safe_skipped)
{
    if (tracked)
        ++ovTracked;
    else if (safe_skipped)
        ++ovSafeSkipped;
    else
        ++ovOther;
}

MetricsRegistry::SiteMetrics &
MetricsRegistry::site(std::int32_t fn, std::int32_t block,
                      std::int32_t instr)
{
    SiteMetrics &s = sites_[siteKey(fn, block, instr)];
    if (s.fn == -1 && fn != -1) {
        s.fn = fn;
        s.block = block;
        s.instr = instr;
    }
    return s;
}

std::vector<const MetricsRegistry::SiteMetrics *>
MetricsRegistry::sitesByPressure() const
{
    return rankSites(sites_, [](const SiteMetrics &a, const SiteMetrics &b) {
        if (a.capacityAborts != b.capacityAborts)
            return a.capacityAborts > b.capacityAborts;
        return a.peakTrackedMax > b.peakTrackedMax;
    });
}

void
MetricsRegistry::initNuma(unsigned nodes)
{
    if (nodes == numaNodes_)
        return;
    numaNodes_ = nodes;
    numaMatrix_.assign(std::size_t(nodes) * nodes, 0);
}

} // namespace hintm

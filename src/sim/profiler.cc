#include "profiler.hh"

#include "common/logging.hh"

namespace hintm
{
namespace sim
{

void
SharingProfiler::record(ThreadId tid, Addr addr, AccessType type,
                        bool in_tx)
{
    HINTM_ASSERT(tid >= 0, "profiler needs a real thread id");
    HINTM_ASSERT(tid < 64, "profiler tracks at most 64 threads");
    const std::uint64_t bit = std::uint64_t(1) << unsigned(tid);
    const bool is_read = type == AccessType::Read;

    auto touch = [&](std::unordered_map<Addr, Region> &map, Addr key) {
        Region &r = map[key];
        if (is_read)
            r.readers |= bit;
        else
            r.writers |= bit;
        if (in_tx && is_read)
            ++r.txReads;
    };
    touch(blocks_, blockNumber(addr));
    touch(pages_, pageNumber(addr));
    if (in_tx && is_read)
        ++txReads_;
}

SharingSummary
SharingProfiler::fold(const std::unordered_map<Addr, Region> &map,
                      std::uint64_t reads)
{
    SharingSummary s;
    s.totalRegions = map.size();
    s.txReads = reads;
    for (const auto &kv : map) {
        if (regionSafe(kv.second)) {
            ++s.safeRegions;
            s.txReadsToSafe += kv.second.txReads;
        }
    }
    return s;
}

SharingSummary
SharingProfiler::blockSummary() const
{
    return fold(blocks_, txReads_);
}

SharingSummary
SharingProfiler::pageSummary() const
{
    return fold(pages_, txReads_);
}

} // namespace sim
} // namespace hintm

#include "cache_array.hh"

#include <algorithm>
#include <ios>

#include "common/logging.hh"

namespace hintm
{
namespace mem
{

const char *
coherStateName(CoherState s)
{
    switch (s) {
      case CoherState::Invalid: return "I";
      case CoherState::Shared: return "S";
      case CoherState::Exclusive: return "E";
      case CoherState::Modified: return "M";
    }
    return "?";
}

CacheArray::CacheArray(const CacheGeometry &geom)
    : geom_(geom), lines_(geom.numLines())
{
}

const CacheLine *
CacheArray::probe(Addr block_addr) const
{
    return const_cast<CacheArray *>(this)->findLine(block_addr);
}

Eviction
CacheArray::insert(Addr block_addr, CoherState state, TxMask tx_mask)
{
    HINTM_ASSERT(state != CoherState::Invalid, "inserting invalid line");
    Eviction ev;
    const std::uint64_t set = geom_.indexOf(block_addr);
    const std::uint32_t tag = tagOf(block_addr);
    CacheLine *const base = &lines_[set * geom_.assoc()];

    CacheLine *victim = nullptr;       // preferred: invalid or unpinned
    CacheLine *pinned_lru = nullptr;   // fallback: LRU among pinned
    for (CacheLine *lp = base, *end = base + geom_.assoc(); lp != end;
         ++lp) {
        CacheLine &line = *lp;
        if (line.valid() && line.tag == tag) {
            // Re-insert over an existing copy: just update state.
            line.state = state;
            line.lruStamp = tick();
            return ev;
        }
        if (!line.valid()) {
            if (!victim || victim->valid())
                victim = &line;
            continue;
        }
        if (line.txMask != 0) {
            if (!pinned_lru || line.lruStamp < pinned_lru->lruStamp)
                pinned_lru = &line;
            continue;
        }
        if (!victim ||
            (victim->valid() && line.lruStamp < victim->lruStamp)) {
            victim = &line;
        }
    }
    if (!victim)
        victim = pinned_lru;
    HINTM_ASSERT(victim != nullptr, "no victim in set");
    if (victim->valid()) {
        ev.happened = true;
        ev.blockAddr = geom_.blockAddrOf(victim->tag, set);
        ev.dirty = victim->state == CoherState::Modified;
    }
    victim->tag = tag;
    victim->state = state;
    victim->txMask = tx_mask;
    victim->lruStamp = tick();
    return ev;
}

void
CacheArray::renumberStamps()
{
    std::vector<CacheLine *> order;
    for (std::size_t set = 0; set < lines_.size(); set += geom_.assoc()) {
        order.clear();
        for (unsigned way = 0; way < geom_.assoc(); ++way) {
            CacheLine &line = lines_[set + way];
            if (line.valid())
                order.push_back(&line);
            else
                line.lruStamp = 0;
        }
        std::sort(order.begin(), order.end(),
                  [](const CacheLine *a, const CacheLine *b) {
                      return a->lruStamp < b->lruStamp;
                  });
        std::uint32_t rank = 0;
        for (CacheLine *line : order)
            line->lruStamp = ++rank;
    }
    clock_ = geom_.assoc();
}

void
CacheArray::tagTooWide(Addr block_addr) const
{
    HINTM_FATAL("address 0x", std::hex, block_addr, std::dec,
                " needs a cache tag wider than 32 bits");
}

void
CacheArray::invalidate(Addr block_addr)
{
    CacheLine *line = findLine(block_addr);
    if (line)
        line->state = CoherState::Invalid;
}

std::uint64_t
CacheArray::countValid() const
{
    std::uint64_t n = 0;
    for (const auto &line : lines_) {
        if (line.valid())
            ++n;
    }
    return n;
}

} // namespace mem
} // namespace hintm

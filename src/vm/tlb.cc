#include "tlb.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hintm
{
namespace vm
{

Tlb::Tlb(unsigned num_entries)
    : slots_(num_entries), stamps_(num_entries, 0)
{
    HINTM_ASSERT(num_entries > 0, "TLB needs at least one entry");
}

bool
Tlb::lookup(Addr page_num, PageState *state_out)
{
    const Entry *e = lookupEntry(page_num);
    if (!e)
        return false;
    if (state_out)
        *state_out = e->state;
    return true;
}

const Tlb::Entry *
Tlb::lookupEntry(Addr page_num)
{
    auto it = index_.find(page_num);
    if (it == index_.end())
        return nullptr;
    stamps_[it->second] = ++clock_;
    return &slots_[it->second];
}

void
Tlb::insert(Addr page_num, PageState state)
{
    auto it = index_.find(page_num);
    if (it != index_.end()) {
        slots_[it->second].state = state;
        stamps_[it->second] = ++clock_;
        return;
    }
    // The first minimum: a free slot (stamp 0) while the TLB has room,
    // else the least recently used entry.
    const unsigned slot = unsigned(
        std::min_element(stamps_.begin(), stamps_.end()) - stamps_.begin());
    if (stamps_[slot] != 0)
        index_.erase(slots_[slot].page);
    slots_[slot] = Entry{page_num, state};
    stamps_[slot] = ++clock_;
    index_.emplace(page_num, slot);
}

bool
Tlb::invalidate(Addr page_num)
{
    auto it = index_.find(page_num);
    if (it == index_.end())
        return false;
    stamps_[it->second] = 0;
    index_.erase(it);
    return true;
}

void
Tlb::updateState(Addr page_num, PageState state)
{
    auto it = index_.find(page_num);
    if (it != index_.end())
        slots_[it->second].state = state;
}

} // namespace vm
} // namespace hintm

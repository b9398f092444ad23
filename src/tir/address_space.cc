#include "address_space.hh"

#include "common/logging.hh"

namespace hintm
{
namespace tir
{

AddressSpace::Page *
AddressSpace::findPage(Addr page) const
{
    CacheSlot &slot = memoSlot(page);
    if (slot.page == page)
        return slot.ptr;
    auto it = pages_.find(page);
    if (it == pages_.end())
        return nullptr;
    slot.page = page;
    slot.ptr = it->second.get();
    return slot.ptr;
}

AddressSpace::Page *
AddressSpace::getPage(Addr page)
{
    if (Page *p = findPage(page))
        return p;
    Page *p = pages_.emplace(page, std::make_unique<Page>())
                  .first->second.get();
    p->fill(0);
    CacheSlot &slot = memoSlot(page);
    slot.page = page;
    slot.ptr = p;
    return p;
}

std::int64_t
AddressSpace::read(Addr a) const
{
    HINTM_ASSERT((a & 7) == 0, "misaligned read at ", a);
    HINTM_ASSERT(a != 0, "null dereference (read)");
    const Page *p = findPage(pageNumber(a));
    return p ? (*p)[pageOffset(a) / 8] : 0;
}

void
AddressSpace::write(Addr a, std::int64_t v)
{
    HINTM_ASSERT((a & 7) == 0, "misaligned write at ", a);
    HINTM_ASSERT(a != 0, "null dereference (write)");
    (*getPage(pageNumber(a)))[pageOffset(a) / 8] = v;
}

std::int64_t *
AddressSpace::wordRef(Addr a)
{
    HINTM_ASSERT((a & 7) == 0, "misaligned access at ", a);
    HINTM_ASSERT(a != 0, "null dereference");
    return &(*getPage(pageNumber(a)))[pageOffset(a) / 8];
}

} // namespace tir
} // namespace hintm

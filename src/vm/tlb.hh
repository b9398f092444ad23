/**
 * @file
 * Per-context data TLB holding each cached translation's page safety bits.
 * Fully associative with true LRU; sized per config (default 64 entries).
 */

#ifndef HINTM_VM_TLB_HH
#define HINTM_VM_TLB_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "vm/page_table.hh"

namespace hintm
{
namespace vm
{

/**
 * Small fully-associative TLB. Keys are page numbers. Entries live in a
 * fixed array of slots with their LRU stamps stored alongside in a
 * second array; a free slot reads as stamp 0, so one argmin over the
 * stamps finds either a free slot or the LRU victim. Live stamps are
 * unique, so the victim is exactly the least recently used entry.
 */
class Tlb
{
  public:
    /** One cached translation. Slot-stable: pointers handed out by
     * lookupEntry()/insert() stay valid until the entry itself is
     * evicted or invalidated (announced via the evict observer). */
    struct Entry
    {
        Addr page;
        PageState state;
    };

    explicit Tlb(unsigned num_entries = 64);

    /** @return true on hit; hit refreshes LRU and exposes the state. */
    bool lookup(Addr page_num, PageState *state_out = nullptr);

    /** Pointer-returning hit probe (refreshes LRU), or nullptr. */
    Entry *lookupEntry(Addr page_num);

    /** Refresh an entry's LRU stamp without re-finding it — lets a
     * higher-level memo keep this TLB's replacement behavior exact. */
    void touch(Entry *e) { stamps_[e - slots_.data()] = ++clock_; }

    /** Install (or refresh) a translation with its safety state.
     * @return the (stable) entry. */
    Entry *insert(Addr page_num, PageState state);

    /** Drop one translation (shootdown); @return true if it was present. */
    bool invalidate(Addr page_num);

    /** Update the cached state in place if the translation is present. */
    void updateState(Addr page_num, PageState state);

    /**
     * Observer called whenever a cached translation stops being valid to
     * memoize: LRU eviction, invalidation, or an in-place state change
     * (insert-overwrite/updateState). Receives the page number.
     */
    void setEvictObserver(std::function<void(Addr)> fn)
    {
        evictObserver_ = std::move(fn);
    }

    /** Presence probe without LRU effects. */
    bool contains(Addr page_num) const
    {
        return index_.count(page_num) != 0;
    }

    std::size_t size() const { return index_.size(); }
    unsigned capacity() const { return unsigned(slots_.size()); }

  private:
    void
    notifyEvict(Addr page_num)
    {
        if (evictObserver_)
            evictObserver_(page_num);
    }

    std::uint64_t clock_ = 0;
    std::vector<Entry> slots_;
    /** LRU stamp per slot; larger is more recent, 0 = free slot. */
    std::vector<std::uint64_t> stamps_;
    /** Page number -> slot of every present translation. */
    std::unordered_map<Addr, unsigned> index_;
    std::function<void(Addr)> evictObserver_;
};

} // namespace vm
} // namespace hintm

#endif // HINTM_VM_TLB_HH

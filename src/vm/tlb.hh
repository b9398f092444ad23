/**
 * @file
 * Per-context data TLB holding each cached translation's page safety bits
 * (§IV-B). Fully associative with true LRU; sized per config (default 64
 * entries). It is the simulator's only cache of page classifications:
 * Vm::translate reads the safety bits of every hit from it.
 */

#ifndef HINTM_VM_TLB_HH
#define HINTM_VM_TLB_HH

#include <cstdint>
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
    /** One cached translation. */
    struct Entry
    {
        Addr page;
        PageState state;
    };

    explicit Tlb(unsigned num_entries = 64);

    /** @return true on hit; hit refreshes LRU and exposes the state. */
    bool lookup(Addr page_num, PageState *state_out = nullptr);

    /** Hit probe (refreshes LRU): the entry, or nullptr on a miss. */
    const Entry *lookupEntry(Addr page_num);

    /** Install (or refresh) a translation with its safety state. */
    void insert(Addr page_num, PageState state);

    /** Drop one translation (shootdown); @return true if it was present. */
    bool invalidate(Addr page_num);

    /** Update the cached state in place if the translation is present. */
    void updateState(Addr page_num, PageState state);

    /** Presence probe without LRU effects. */
    bool contains(Addr page_num) const
    {
        return index_.count(page_num) != 0;
    }

    std::size_t size() const { return index_.size(); }
    unsigned capacity() const { return unsigned(slots_.size()); }

  private:
    std::uint64_t clock_ = 0;
    std::vector<Entry> slots_;
    /** LRU stamp per slot; larger is more recent, 0 = free slot. */
    std::vector<std::uint64_t> stamps_;
    /** Page number -> slot of every present translation. */
    std::unordered_map<Addr, unsigned> index_;
};

} // namespace vm
} // namespace hintm

#endif // HINTM_VM_TLB_HH

/**
 * @file
 * Observer interface through which HTM controllers watch coherence traffic
 * and cache evictions — the hooks used for eager conflict detection and for
 * L1TM-style capacity aborts.
 */

#ifndef HINTM_MEM_SNOOP_LISTENER_HH
#define HINTM_MEM_SNOOP_LISTENER_HH

#include "common/types.hh"
#include "mem/coherence.hh"

namespace hintm
{
namespace mem
{

/** Hardware thread context identifier (SMT-aware; dense from 0). */
using ContextId = int;

/**
 * Receives the coherence-visible events of one hardware thread context.
 * The snoop bus delivers remote accesses to every context other than the
 * requester (same-core SMT siblings always see each other's accesses, even
 * L1 hits, mirroring per-thread TM CAM snooping of local traffic).
 */
class SnoopListener
{
  public:
    virtual ~SnoopListener() = default;

    /**
     * Another context touched @p block_addr. Called before the requester's
     * access completes so conflict aborts take effect first.
     *
     * @param block_addr block-aligned address of the access
     * @param type remote read or write
     * @param requester the context that issued the access
     */
    virtual void onRemoteAccess(Addr block_addr, AccessType type,
                                ContextId requester) = 0;

    /**
     * The L1 backing this context displaced @p block_addr.
     * @param dirty true when the victim required a writeback
     */
    virtual void onEviction(Addr block_addr, bool dirty) = 0;

    /**
     * True while this context's TX tracks (reads or writes)
     * @p block_addr. The memory system asks once per fill of this
     * context's L1, and only after the context asked it to pin its
     * tracked lines (MemorySystem::pinTrackedLines): the answer seeds
     * the new line's TX bit.
     */
    virtual bool tracksBlock(Addr block_addr) const
    {
        (void)block_addr;
        return false;
    }
};

} // namespace mem
} // namespace hintm

#endif // HINTM_MEM_SNOOP_LISTENER_HH

#include "vm.hh"

#include "common/logging.hh"

namespace hintm
{
namespace vm
{

Vm::Vm(const VmConfig &cfg)
    : cfg_(cfg), pt_(std::make_unique<PageTable>(cfg.preserveReadOnly))
{
    cTlbHits_ = &stats_.counter("tlb_hits");
    cTlbMisses_ = &stats_.counter("tlb_misses");
    cMinorFaults_ = &stats_.counter("minor_faults");
    cUnsafeTransitions_ = &stats_.counter("unsafe_transitions");
    cShootdownSlaves_ = &stats_.counter("shootdown_slaves");
}

int
Vm::addContext()
{
    HINTM_ASSERT(tlbs_.size() < 64, "more than 64 contexts");
    tlbs_.push_back(std::make_unique<Tlb>(cfg_.tlbEntries));
    return int(tlbs_.size() - 1);
}

void
Vm::annotateRange(Addr base, std::uint64_t len)
{
    pt_->annotateRange(base, len);
    const Addr first = pageNumber(base);
    const Addr last = pageNumber(base + len - 1);
    for (auto &tlb : tlbs_) {
        for (Addr page = first; page <= last; ++page)
            tlb->updateState(page, PageState::Annotated);
    }
}

TranslateResult
Vm::translate(int ctx, ThreadId tid, Addr addr, AccessType type)
{
    HINTM_ASSERT(ctx >= 0 && ctx < int(tlbs_.size()), "bad vm ctx ", ctx);
    TranslateResult res;
    res.pageNum = pageNumber(addr);
    Tlb &tlb = *tlbs_[ctx];

    if (!cfg_.dynamicClassification) {
        // Conventional system: model TLB hit/miss timing only — except
        // that explicit programmer annotations (Notary-style) are still
        // honored: they need no sharing FSM.
        const Tlb::Entry *e = tlb.lookupEntry(res.pageNum);
        PageState cached_state;
        if (!e) {
            ++*cTlbMisses_;
            res.cost += cfg_.pageWalkCycles;
            cached_state = pt_->hasAnnotations() &&
                                   pt_->stateOf(addr) ==
                                       PageState::Annotated
                               ? PageState::Annotated
                               : PageState::SharedRw;
            tlb.insert(res.pageNum, cached_state);
        } else {
            ++*cTlbHits_;
            cached_state = e->state;
        }
        if (cached_state == PageState::Annotated &&
            type == AccessType::Read) {
            res.safeRead = true;
            res.revocable = false;
        }
        return res;
    }

    // Fast path: a TLB hit on a page whose cached state cannot change
    // under this access needs no page-table visit. TLBs are per context
    // and transitions eagerly fix remote cached copies, so a cached
    // Private* entry implies this context's thread owns the page.
    const Tlb::Entry *hit = tlb.lookupEntry(res.pageNum);
    if (hit) {
        ++*cTlbHits_;
        const PageState cached = hit->state;
        const bool is_write = type == AccessType::Write;
        const bool transitions =
            (cached == PageState::PrivateRo && is_write) ||
            (cached == PageState::SharedRo && is_write);
        if (!transitions) {
            res.safeRead = !is_write && pageStateSafe(cached);
            res.revocable = cached != PageState::Annotated;
            return res;
        }
    } else {
        ++*cTlbMisses_;
        res.cost += cfg_.pageWalkCycles;
    }

    // Slow path: consult (and possibly transition) the page table.
    const PageTransition tr = pt_->touch(tid, addr, type);

    if (tr.minorFault) {
        ++*cMinorFaults_;
        res.cost += cfg_.minorFaultCycles;
    }

    if (tr.becameUnsafe) {
        ++*cUnsafeTransitions_;
        res.becameUnsafe = true;
        res.cost += cfg_.shootdownInitiatorCycles;
        // Shoot down every remote TLB caching the stale translation.
        for (int c = 0; c < int(tlbs_.size()); ++c) {
            if (c == ctx)
                continue;
            if (tlbs_[c]->invalidate(res.pageNum)) {
                ++*cShootdownSlaves_;
                res.slaveMask |= std::uint64_t(1) << c;
            }
        }
    } else if (tr.stateChanged && tr.before != PageState::Untouched) {
        // Benign transitions (e.g. private-ro -> shared-ro) update remote
        // cached copies in place; permission was only widened.
        for (int c = 0; c < int(tlbs_.size()); ++c) {
            if (c != ctx)
                tlbs_[c]->updateState(res.pageNum, tr.after);
        }
    }

    tlb.insert(res.pageNum, tr.after);
    res.safeRead = type == AccessType::Read && pageStateSafe(tr.after);
    res.revocable = tr.after != PageState::Annotated;
    return res;
}

} // namespace vm
} // namespace hintm

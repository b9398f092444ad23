#include "vm.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hintm
{
namespace vm
{

Vm::Vm(const VmConfig &cfg)
    : cfg_(cfg), pt_(std::make_unique<PageTable>(cfg.preserveReadOnly)),
      fastEnabled_(cfg.translationCache)
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
    tlbs_.push_back(std::make_unique<Tlb>(cfg_.tlbEntries));
    classCaches_.emplace_back(classSlots);
    const int id = int(tlbs_.size() - 1);
    // Any event that drops or rewrites a cached translation kills the
    // memoized classification derived from it.
    tlbs_[id]->setEvictObserver([this, id](Addr page) {
        ClassEntry &e = classCaches_[id][page & (classSlots - 1)];
        if (e.page == page)
            e.page = ~Addr(0);
    });
    return id;
}

void
Vm::fillClassEntry(int ctx, Addr page, PageState state, Tlb::Entry *te)
{
    if (!fastEnabled_)
        return;
    ClassEntry &e = classCaches_[ctx][page & (classSlots - 1)];
    e.page = page;
    e.tlbEntry = te;
    if (cfg_.dynamicClassification) {
        e.readSafe = pageStateSafe(state);
        e.readRevocable = state != PageState::Annotated;
        // PrivateRo/SharedRo transition on a write: keep those on the
        // slow path so the FSM runs.
        e.writeOk = state != PageState::PrivateRo &&
                    state != PageState::SharedRo;
        e.writeRevocable = state != PageState::Annotated;
    } else {
        // Conventional system: only irrevocable annotations classify,
        // and no write ever transitions a page.
        e.readSafe = state == PageState::Annotated;
        e.readRevocable = state != PageState::Annotated;
        e.writeOk = true;
        e.writeRevocable = true;
    }
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
        Tlb::Entry *e = tlb.lookupEntry(res.pageNum);
        PageState cached_state;
        if (!e) {
            ++*cTlbMisses_;
            res.cost += cfg_.pageWalkCycles;
            cached_state = pt_->hasAnnotations() &&
                                   pt_->stateOf(addr) ==
                                       PageState::Annotated
                               ? PageState::Annotated
                               : PageState::SharedRw;
            e = tlb.insert(res.pageNum, cached_state);
        } else {
            ++*cTlbHits_;
            cached_state = e->state;
        }
        fillClassEntry(ctx, res.pageNum, cached_state, e);
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
    Tlb::Entry *hit = tlb.lookupEntry(res.pageNum);
    if (hit) {
        ++*cTlbHits_;
        const PageState cached = hit->state;
        const bool is_write = type == AccessType::Write;
        const bool transitions =
            (cached == PageState::PrivateRo && is_write) ||
            (cached == PageState::SharedRo && is_write);
        if (!transitions) {
            fillClassEntry(ctx, res.pageNum, cached, hit);
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
                res.slaveCosts.emplace_back(
                    c, cfg_.shootdownSlaveCycles);
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

    Tlb::Entry *e = tlb.insert(res.pageNum, tr.after);
    fillClassEntry(ctx, res.pageNum, tr.after, e);
    res.safeRead = type == AccessType::Read && pageStateSafe(tr.after);
    res.revocable = tr.after != PageState::Annotated;
    return res;
}

} // namespace vm
} // namespace hintm

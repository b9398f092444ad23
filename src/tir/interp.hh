/**
 * @file
 * The TxIR interpreter. A Program holds the loaded module plus all shared
 * functional state (address space, allocator, per-thread RNGs); one
 * ThreadInterp per software thread steps the program to its next
 * simulation-visible boundary (memory access, TX begin/end, barrier) so
 * the timing layer can interleave threads, drive the memory hierarchy and
 * coordinate the HTM.
 *
 * Two execution front-ends share one state representation:
 *
 *  - the *decoded* path (default) runs the pre-decoded, fused op stream
 *    built by decode.hh — see its header comment for the translation;
 *  - the *reference* path walks the original `Instr` storage and is kept
 *    as the semantic baseline the decoded path is cross-checked against
 *    (MachineConfig::decodeCache = false; ReferencePathEquivalence in
 *    tests/test_properties.cc).
 *
 * Thread state lives in a flat frame arena: one contiguous register file
 * (`regs_`) plus a stack of trivially-copyable FrameMeta records. Call is
 * a bump-pointer push into the arena (no allocation on the steady state)
 * and the TxBegin checkpoint/rollback is a bounded copy of the live arena
 * prefix instead of a deep copy of nested per-frame vectors.
 *
 * Transactional semantics are split: this layer provides functional
 * checkpoint/rollback (registers, stack, heap allocations, store undo
 * log); abort *decisions* belong to the HTM controller.
 */

#ifndef HINTM_TIR_INTERP_HH
#define HINTM_TIR_INTERP_HH

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "tir/address_space.hh"
#include "tir/allocator.hh"
#include "tir/decode.hh"
#include "tir/ir.hh"

namespace hintm
{
namespace tir
{

/** Shared runtime image of a module. */
class Program
{
  public:
    /**
     * Lay out globals and create per-thread resources.
     * @param num_threads worker threads (the init phase gets one extra
     * arena and runs with tid == num_threads)
     * @param decode_cache pre-decode every function into the fused op
     * stream (interpreter fast path); false selects the reference
     * Instr-walking interpreter
     */
    Program(Module mod, unsigned num_threads, std::uint64_t seed = 1,
            bool decode_cache = true);

    const Module &module() const { return mod_; }
    unsigned numThreads() const { return numThreads_; }
    ThreadId initTid() const { return ThreadId(numThreads_); }

    /** Decoded image, or nullptr when running the reference path. */
    const DecodedModule *decoded() const { return decoded_.get(); }

    AddressSpace &space() { return space_; }
    Allocator &allocator() { return allocator_; }
    Rng &rng(ThreadId tid) { return rngs_.at(std::size_t(tid)); }

    Addr globalAddr(int global_id) const;
    Addr globalAddrByName(const std::string &name) const;

    /** When true, safe stores that survive an abort are checked for the
     * initializing property on the retry (§III: written-before-read). */
    bool validateSafeStores = false;

  private:
    Module mod_;
    unsigned numThreads_;
    AddressSpace space_;
    Allocator allocator_;
    std::vector<Rng> rngs_;
    std::unique_ptr<DecodedModule> decoded_;
};

/** What a thread is stopped at. */
enum class StepKind : std::uint8_t
{
    Simple,   ///< executed only non-memory instructions (simpleInstrs)
    Mem,      ///< at a Load/Store: complete with completeMem()
    TxBegin,  ///< at a TxBegin: advance with enterTx()
    TxEnd,    ///< at a TxEnd: advance with completeTxEnd()
    Barrier,  ///< at a Barrier: advance with passBarrier()
    Annotate, ///< at an Annotate: advance with passAnnotate()
    Done,     ///< entry function returned
};

/** Boundary event returned by ThreadInterp::next(). */
struct Step
{
    StepKind kind = StepKind::Simple;
    /** Non-memory instructions executed before reaching the boundary. */
    std::uint64_t simpleInstrs = 0;
    // Valid when kind == Mem (addr also for Annotate):
    Addr addr = 0;
    AccessType accessType = AccessType::Read;
    /** The instruction carries a compiler safety hint. */
    bool staticSafe = false;
    /** Annotate only: region length in bytes. */
    std::uint64_t annotateLen = 0;
    /** Source position of a Mem or TxBegin boundary (function/block/
     * instr indices into the module), for diagnostics such as the hint
     * oracle and the TX-site ids of the observability journal. */
    std::int32_t fn = -1;
    std::int32_t srcBlock = -1;
    std::int32_t srcInstr = -1;
};

/** Interpreter state for one software thread. */
class ThreadInterp
{
  public:
    /**
     * @param entry_func function index to run
     * @param args values for the entry function's parameters
     */
    ThreadInterp(Program &prog, ThreadId tid, int entry_func,
                 std::vector<std::int64_t> args);

    /**
     * Run to the next boundary. Non-memory instructions execute inline
     * (their count is reported for cycle accounting). The boundary
     * instruction itself is NOT executed; use the matching complete call.
     */
    Step next();

    /** Perform the pending Load/Store functionally and advance. */
    void completeMem();

    /**
     * Advance past TxBegin. @p htm_mode selects hardware transactional
     * execution (checkpoint + undo logging) versus fallback-lock mode
     * (plain execution; TxEnd releases the lock at the runtime layer).
     */
    void enterTx(bool htm_mode);

    /** Advance past TxEnd; applies deferred frees. */
    void completeTxEnd();

    /**
     * Pre-abort conversion: the running hardware TX becomes a
     * lock-protected critical section. All effects so far stand; undo
     * state is discarded; execution continues from the current point
     * in fallback mode (TxEnd releases the lock at the runtime layer).
     */
    void convertToFallback();

    /** Advance past Barrier (runtime releases the barrier). */
    void passBarrier();

    /** Advance past Annotate (runtime applied the page annotation). */
    void passAnnotate();

    /**
     * Undo the TX's tracked stores in reverse order. Invoked by the HTM
     * controller's abort hook the moment an abort fires — other threads
     * must observe pre-TX data immediately.
     */
    void undoStores();

    /**
     * Thread-side abort completion: restore registers/stack to the
     * checkpoint (execution resumes AT the TxBegin) and roll back heap
     * allocations made inside the TX.
     */
    void rollbackToTxBegin();

    bool done() const { return done_; }
    ThreadId tid() const { return tid_; }
    bool inTx() const { return inTx_; }
    bool htmMode() const { return htmMode_; }
    /** Inside a suspend/resume escape window (accesses untracked). */
    bool suspended() const { return suspended_; }

    /** Total instructions executed (all kinds). */
    std::uint64_t instrCount() const { return instrCount_; }

  private:
    /**
     * Per-call activation record. Registers live in the shared arena at
     * [regBase, regBase + numRegs); `ip` is the instruction index within
     * `block` on the reference path and the absolute decoded-op index
     * (block stays 0) on the decoded path. Trivially copyable so the
     * TX checkpoint is a flat vector copy.
     */
    struct FrameMeta
    {
        std::int32_t fn = -1;
        std::int32_t block = 0;
        std::int32_t ip = 0;
        std::int32_t retDst = -1;
        std::uint32_t regBase = 0;
        std::uint32_t numRegs = 0;
        Addr stackOnEntry = 0;
    };

    struct Checkpoint
    {
        std::vector<FrameMeta> frames;
        /** Live arena prefix: regs_[0 .. frames.back() live window). */
        std::vector<std::int64_t> regs;
        Addr stackPtr = 0;
    };

    Step nextRef();
    Step nextDec();
    void completeMemRef();
    void completeMemDec();

    const Instr &currentInstr() const;
    const DecodedOp &currentDOp() const;
    /** The boundary op the thread is stopped at matches, on either path. */
    bool atBoundary(Opcode op, DOp dop) const;
    void advance();
    /** Reference path: execute a non-boundary instruction. */
    void execute(const Instr &ins);
    /** Push a callee activation: bump-pointer arena window, zero-filled,
     * params copied from the caller window. */
    void pushFrame(int fn, std::uint32_t num_regs, int ret_dst,
                   const std::int32_t *arg_regs, std::size_t num_args);
    std::int64_t reg(int r) const;
    void setReg(int r, std::int64_t v);

    Program &prog_;
    ThreadId tid_;
    /** Decoded image (null = reference path). */
    const DecodedModule *dec_;
    std::vector<FrameMeta> frames_;
    /** Flat register arena; frame windows stacked bottom-up. Never
     * shrinks — a frame pop just lowers the live prefix. */
    std::vector<std::int64_t> regs_;
    Addr stackPtr_;
    bool done_ = false;

    bool inTx_ = false;
    bool htmMode_ = false;
    bool suspended_ = false;
    Checkpoint checkpoint_;
    /** (address, previous value) of tracked transactional stores. */
    std::vector<std::pair<Addr, std::int64_t>> undoLog_;
    /** Heap allocations made inside the active TX (freed on abort). */
    std::vector<Addr> txAllocs_;
    /** Frees requested inside the active TX (applied at commit). */
    std::vector<Addr> deferredFrees_;
    /** Targets of safe stores in the current TX (validation mode only). */
    std::unordered_set<Addr> safeStoreAddrs_;
    /** Safe-store targets of an aborted TX awaiting re-initialization
     * (validation mode only). */
    std::unordered_set<Addr> staleSafeStores_;

    bool memPending_ = false;
    Addr pendingAddr_ = 0;
    /** Decoded path: the op of the pending access plus its register
     * window, cached at the boundary so completeMem() skips the
     * frame/function lookup chain. Stable between next() and
     * completeMem(): nothing pushes frames or grows the arena while an
     * access is outstanding. */
    const DecodedOp *pendingDOp_ = nullptr;
    std::int64_t *pendingRegs_ = nullptr;

    std::uint64_t instrCount_ = 0;
};

} // namespace tir
} // namespace hintm

#endif // HINTM_TIR_INTERP_HH

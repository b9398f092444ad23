/**
 * @file
 * Machine-state snapshot/restore. A MachineSnapshot is the complete
 * state of a running machine (caches, coherence directory, VM/TLBs, HTM
 * controllers, interpreter frames, partial results, everything the
 * observers recorded, scheduler clock). Restoring into a machine built
 * from the *same* configuration and resuming is bit-identical to never
 * having stopped (property-test-locked in tests/test_snapshot.cc). The
 * schedule explorer forks its branches this way.
 *
 * SimRun wraps the (internal) Machine with stepwise control so callers
 * can run partway, capture, restore and finish.
 */

#ifndef HINTM_SIM_SNAPSHOT_HH
#define HINTM_SIM_SNAPSHOT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/machine.hh"
#include "sim/tx_observers.hh"
#include "tir/interp.hh"

namespace hintm
{
namespace sim
{

/** Scalar runtime state of one hardware context: its scheduling,
 * retry and fallback-lock state. Snapshots copy it whole. */
struct ContextRuntime
{
    Cycle readyAt = 0;
    Cycle finishedAt = 0;
    bool done = false;
    bool atBarrier = false;
    unsigned retries = 0;
    bool mustFallback = false;
    bool inFallback = false;
};

/** Snapshot of one hardware context. */
struct MachineContextSnapshot
{
    tir::ThreadInterp::State interp;
    htm::HtmController::State htm;
    ContextRuntime runtime;
};

/** Complete machine state at a scheduler boundary. The event-driven
 * scheduler index is deliberately absent: it is state derived entirely
 * from each context's ContextRuntime (done, atBarrier, readyAt) plus
 * now/rr, and the machine rebuilds it on restore(). */
struct MachineSnapshot
{
    tir::Program::State program;
    mem::MemorySystem::State mem;
    vm::Vm::State vm;
    std::vector<MachineContextSnapshot> ctxs;
    int lockHolder = -1;
    std::uint64_t shootdownCycles = 0;
    /** Accumulated simulation results so far. */
    RunResult partial;
    /** Everything the observers recorded, in-flight TXs included. */
    TxObservers::State observers;
    Cycle now = 0;
    unsigned rr = 0;
    unsigned numThreads = 0;
    const void *moduleTag = nullptr;
};

/**
 * A stepwise-controllable simulation. Equivalent to runMachine() when
 * driven straight to finish(); additionally supports partial execution
 * and snapshot/restore.
 */
class SimRun
{
  public:
    /** Build the machine and run the module's init phase. */
    SimRun(const MachineConfig &cfg, const tir::Module &module,
           unsigned num_threads);
    ~SimRun();

    SimRun(const SimRun &) = delete;
    SimRun &operator=(const SimRun &) = delete;

    /** Run until at least @p target TXs have committed (or the program
     * finishes). target == 0 returns immediately. */
    void runUntilCommits(std::uint64_t target);

    /** True once every context is done. */
    bool finished() const;

    /** Committed TXs so far. */
    std::uint64_t committedTxs() const;

    /**
     * Capture the complete machine state. Must not be used on
     * hint-oracle configs (the oracle's shadow state is not captured).
     */
    MachineSnapshot snapshot() const;

    /** Restore a snapshot captured from an identically-configured run.
     * Also un-finalizes a finished run, so one SimRun can be driven
     * through many restore()/finish() rounds (branch exploration). */
    void restore(const MachineSnapshot &s);

    /** Deschedule context @p ctx until another context is preempted in
     * its place or nothing else is runnable. Only meaningful under a
     * ScheduleController (schedule.hh); the explorer's branch move
     * after restoring a fork point. */
    void preemptContext(unsigned ctx);

    /** Current scheduler clock. */
    Cycle now() const;

    /** Run to completion and finalize the result. The result owns its
     * journal and metrics: a later restore() leaves it unchanged. */
    RunResult finish();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace sim
} // namespace hintm

#endif // HINTM_SIM_SNAPSHOT_HH

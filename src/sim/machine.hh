/**
 * @file
 * The simulated machine: an SMP of in-order hardware thread contexts
 * interpreting a TxIR program against the MESI memory hierarchy, the
 * HinTM virtual-memory subsystem and per-context HTM controllers.
 * Implements the transactional runtime — begin/retry/fallback policy,
 * global fallback lock with readset subscription, barriers — and collects
 * every statistic the paper's figures need. Observation-only sinks
 * (journal, metrics, footprint CDFs, sharing profile, TX trace) sit
 * behind sim::TxObservers (sim/tx_observers.hh).
 */

#ifndef HINTM_SIM_MACHINE_HH
#define HINTM_SIM_MACHINE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/journal.hh"
#include "common/metrics.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "htm/controller.hh"
#include "mem/mem_system.hh"
#include "sim/profiler.hh"
#include "tir/ir.hh"
#include "vm/vm.hh"

namespace hintm
{
namespace sim
{

class ScheduleController;

/** Everything needed to instantiate a machine (Table II defaults). */
struct MachineConfig
{
    unsigned numCores = 8;
    unsigned smtPerCore = 1;

    mem::MemConfig mem;
    vm::VmConfig vm;
    htm::HtmConfig htm;

    /** Consume compiler safety hints (HinTM-st). */
    bool staticHints = false;
    /** Consume dynamic page-classification hints (HinTM-dyn). */
    bool dynamicHints = false;
    /** Consume Notary-style programmer page annotations even without
     * the dynamic mechanism (annotations are also honored whenever
     * dynamicHints is on). */
    bool annotationHints = false;

    /** Transient-abort retries before taking the fallback lock. */
    unsigned maxRetries = 8;

    std::uint64_t seed = 1;

    /** Record the three per-TX footprint CDFs of Fig. 6. */
    bool collectTxSizes = false;
    /** Record Fig. 1 sharing metrics (adds per-access overhead). */
    bool profileSharing = false;
    /** Check the initializing property of safe stores across aborts. */
    bool validateSafeStores = false;
    /** Build RunResult::rawStats (the gem5-style text dump). Off by
     * default: stringifying every counter costs time most callers
     * (benchmarks, tests) never look at. */
    bool collectRawStats = false;
    /** Run threads on the pre-decoded fused op stream (interpreter fast
     * path); false selects the reference Instr-walking interpreter. */
    bool decodeCache = true;
    /** Pick runnable contexts through the event-driven scheduler index
     * (one readyAt scan per tie bucket, with batched stepping); false
     * selects the reference O(contexts) rotating scan for a run without
     * a scheduleController (a controlled run always picks through the
     * index). Behavior-preserving: the step sequence and results are
     * bit-identical either way. */
    bool schedIndex = true;
    /** Shadow-track safe-hinted accesses and report any that overlap a
     * remote write (dynamic hint-soundness oracle). Observation only:
     * simulation results are bit-identical with or without it. */
    bool hintOracle = false;
    /** Record every TX attempt in RunResult::journal (per-site abort
     * attribution, interval time series, Perfetto export). Observation
     * only: simulation results are bit-identical with or without it. */
    bool journal = false;
    /** TX-journal ring capacity in records; older records are dropped
     * (and counted) past this bound, aggregates stay exact. */
    std::size_t journalCapacity = 1u << 16;
    /** Fold capacity-pressure metrics into RunResult::metrics
     * (read/write-set growth, overflowing-set occupancy, per-site hint
     * effectiveness, fallback timeline, sharer histogram, NUMA
     * traffic). Observation only: simulation results are bit-identical
     * with or without it. */
    bool metrics = false;
    /** Scheduler nondeterminism hook (schedule.hh): tie-breaks and
     * TX-event preemption points route through it. Null (the default)
     * leaves every scheduler hot path untouched; the machine does not
     * own the object. Requires the coherence directory
     * (checkThreadCount). */
    ScheduleController *scheduleController = nullptr;
    /** Seeded bug for the schedule explorer: hardware TXs skip the
     * fallback-lock readset subscription and fallback acquirers skip
     * the eager abort broadcast — the unsafe lazy-subscription hazard
     * of Dice et al. A TX that commits while another context holds the
     * lock is counted in RunResult::subscriptionViolations. */
    bool unsafeLazySubscription = false;
};

/** Everything a run produces. */
struct RunResult
{
    /** Makespan of the measured parallel region. */
    Cycle cycles = 0;
    std::uint64_t instructions = 0;

    htm::HtmStats htm;

    // Fig. 5 access breakdown (accesses inside TX regions).
    std::uint64_t txReadsStaticSafe = 0;
    std::uint64_t txReadsDynSafe = 0;
    std::uint64_t txReadsAnnotated = 0;
    std::uint64_t txWritesStaticSafe = 0;
    std::uint64_t txReadsUnsafe = 0;
    std::uint64_t txWritesUnsafe = 0;
    /** Accesses inside suspend/resume escape windows (untracked). */
    std::uint64_t txAccessesSuspended = 0;

    /** All cycles burnt on page-mode transitions: shootdown initiator +
     * slaves + TX work lost to page-mode aborts. */
    std::uint64_t pageModeOverheadCycles = 0;
    std::uint64_t fallbackRuns = 0;
    std::uint64_t committedTxs = 0;

    std::uint64_t safePages = 0;
    std::uint64_t totalPages = 0;

    // Fig. 6 CDFs (collectTxSizes only): committed-TX footprint in
    // blocks, as tracked by baseline / HinTM-st / HinTM.
    stats::Distribution txSizeAll{1, 513};
    stats::Distribution txSizeNoStatic{1, 513};
    stats::Distribution txSizeUnsafe{1, 513};

    // Fig. 1 metrics (profileSharing only).
    SharingSummary blockSharing;
    SharingSummary pageSharing;

    /** Final architectural value of every global word, for correctness
     * checks (key = global name). */
    std::map<std::string, std::vector<std::int64_t>> finalGlobals;

    /** Raw "group.name value" dump of the memory-system and VM stat
     * groups (cache hits/misses, writebacks, TLB activity, faults,
     * shootdowns), gem5-stats style. Only populated when
     * MachineConfig::collectRawStats is set. */
    std::string rawStats;

    // Hint-oracle results (MachineConfig::hintOracle only).
    /** Rendered oracle witnesses; empty means every checked safe access
     * was conflict-free. */
    std::vector<std::string> oracleWitnesses;
    /** Safe-hinted in-TX accesses the oracle validated. */
    std::uint64_t oracleSafeChecked = 0;
    /** Controller-side count of accesses that skipped HTM tracking. */
    std::uint64_t oracleSafeSkips = 0;

    /** Hardware commits that completed while another context held the
     * fallback lock — mutual-exclusion breaches. Structurally zero with
     * eager lock subscription; non-zero only under the seeded
     * MachineConfig::unsafeLazySubscription bug. */
    std::uint64_t subscriptionViolations = 0;

    /** Per-TX event journal (MachineConfig::journal only): every TX
     * attempt with site, outcome, abort attribution and footprint.
     * Shared, so copying a RunResult does not copy the ring. */
    std::shared_ptr<const TxJournal> journal;

    /** Capacity-pressure metrics registry (MachineConfig::metrics
     * only). Shared for the same reason as the journal. */
    std::shared_ptr<const MetricsRegistry> metrics;

    std::uint64_t
    txAccessesTotal() const
    {
        return txReadsStaticSafe + txReadsDynSafe + txReadsAnnotated +
               txWritesStaticSafe + txReadsUnsafe + txWritesUnsafe;
    }
};

/**
 * Run @p module (already safety-annotated if static hints are on) on a
 * machine built from @p cfg with @p num_threads worker threads.
 *
 * The init function executes functionally (zero simulated time); the
 * measured region spans thread start to the last thread's completion.
 */
RunResult runMachine(const MachineConfig &cfg, const tir::Module &module,
                     unsigned num_threads);

/** HINTM_FATAL unless @p num_threads fits @p cfg's hardware contexts
 * and the simulator's 64, and unless a schedule controller, whose
 * independence filter reads the directory's sharer masks, has the
 * coherence directory. The thread count is user input (NAME@N,
 * --threads, a .sched config line), not a simulator bug; the machine
 * checks it on construction, and a sweep may check it once before
 * fanning out. */
void checkThreadCount(const MachineConfig &cfg, unsigned num_threads);

/**
 * runMachine() in chunks: the same machine, stopped after commit
 * targets so a caller can time or inspect the run as it goes. Driven
 * straight to finish(), the result is runMachine()'s.
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

    /** Run to completion and finalize the result (once). */
    RunResult finish();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace sim
} // namespace hintm

#endif // HINTM_SIM_MACHINE_HH

/**
 * @file
 * HinTM's public API: named system configurations combining a baseline
 * HTM (P8 / P8S / L1TM / InfCap) with HinTM's classification mechanisms
 * (none / static / dynamic / both), a one-call compile-and-run entry
 * point, and result helpers used by the benchmark harnesses.
 */

#ifndef HINTM_CORE_HINTM_HH
#define HINTM_CORE_HINTM_HH

#include <string>

#include "compiler/safety.hh"
#include "sim/machine.hh"
#include "tir/ir.hh"

namespace hintm
{
namespace core
{

/** Which HinTM classification mechanisms are active. */
enum class Mechanism : std::uint8_t
{
    Baseline,    ///< conventional HTM, no hints
    StaticOnly,  ///< HinTM-st: compiler hints only
    DynamicOnly, ///< HinTM-dyn: page-classification hints only
    Full,        ///< HinTM: both mechanisms
};

const char *mechanismName(Mechanism m);

/** High-level system description, expanded into a sim::MachineConfig. */
struct SystemOptions
{
    htm::HtmKind htmKind = htm::HtmKind::P8;
    Mechanism mechanism = Mechanism::Baseline;
    /** The "HinTM + preserve" page policy from §VI-B. */
    bool preserveReadOnly = false;
    /** Honor Notary-style Annotate instructions even when the dynamic
     * mechanism is off (they are always honored when it is on). */
    bool notaryAnnotations = false;
    /** Pre-abort handler [51]: convert capacity-overflowing TXs into
     * critical sections instead of aborting them. */
    bool preAbortHandler = false;
    /** Conflict-loser selection (paper models attacker-wins). */
    htm::ConflictPolicy conflictPolicy =
        htm::ConflictPolicy::AttackerWins;

    unsigned numCores = 8;
    unsigned smtPerCore = 1;
    std::uint64_t seed = 1;

    bool collectTxSizes = false;
    bool profileSharing = false;
    bool validateSafeStores = false;

    /** Ablation knobs (paper defaults otherwise). */
    unsigned bufferEntries = 64;
    unsigned signatureBits = 1024;
    unsigned maxRetries = 8;

    /** Two-tier NUMA latency model: number of directory home nodes
     * (1 = flat machine, the paper's configuration). */
    unsigned numaNodes = 1;
    /** Extra cycles charged to a remote-home bus transaction. */
    Cycle numaRemoteLatency = 24;
    /** Populate RunResult::rawStats (costs time; off unless asked). */
    bool collectRawStats = false;
    /** Dynamic hint-soundness oracle: shadow-track safe-hinted accesses
     * and report remote-write overlaps (RunResult::oracleWitnesses).
     * Observation only — simulation results are bit-identical. */
    bool hintOracle = false;
    /** Per-TX event journal (RunResult::journal): site-attributed
     * outcome records, abort attribution, interval sampling, Perfetto
     * export. Observation only — simulation results are bit-identical. */
    bool journal = false;
    /** TX-journal ring capacity in records (bounded memory). */
    std::size_t journalCapacity = 1u << 16;
    /** Capacity-pressure metrics registry (RunResult::metrics):
     * read/write-set growth curves, overflowing-set occupancy at
     * capacity aborts, per-site hint-effectiveness accounting,
     * fallback-lock timeline, sharer histogram, NUMA traffic matrix.
     * Observation only — simulation results are bit-identical. */
    bool metrics = false;

    std::string label() const;
};

/**
 * Expand high-level options into the full machine configuration. The
 * simulator's fast paths (coherence directory, decode cache, scheduler
 * index) are always on here; their reference implementations are
 * selected on the returned MachineConfig only, which is how the
 * equivalence tests reach them.
 */
sim::MachineConfig makeMachineConfig(const SystemOptions &opts);

/**
 * Run HinTM's static compiler passes over @p mod (in place).
 * Safe to call regardless of the mechanism later simulated: baseline
 * configurations simply ignore the hints.
 */
compiler::SafetyReport compileHints(tir::Module &mod);

/**
 * Simulate an annotated module under @p opts with @p threads workers.
 */
sim::RunResult simulate(const SystemOptions &opts, const tir::Module &mod,
                        unsigned threads);

/** Multi-line description of the configuration (Table II dump). */
std::string describeConfig(const sim::MachineConfig &cfg);

} // namespace core
} // namespace hintm

#endif // HINTM_CORE_HINTM_HH

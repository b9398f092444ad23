/**
 * @file
 * The transactional workload suite (§V): TxIR re-implementations of the
 * STAMP kernels plus TPC-C's new_order and payment queries, engineered to
 * reproduce each application's published memory behaviour — TX footprint
 * distribution, thread-private scratchpads, sharing pattern and conflict
 * profile. See DESIGN.md for the substitution rationale.
 *
 * Scales: Tiny is for unit tests; Small drives the P8 experiments
 * (Fig. 1/4/5/6); Large adds footprint pressure for the P8S and L1TM
 * studies (Fig. 7/8), mirroring the paper's use of larger inputs there.
 */

#ifndef HINTM_WORKLOADS_WORKLOADS_HH
#define HINTM_WORKLOADS_WORKLOADS_HH

#include <string>
#include <vector>

#include "tir/ir.hh"

namespace hintm
{
namespace workloads
{

enum class Scale : std::uint8_t
{
    Tiny,
    Small,
    Large,
};

/** "tiny" | "small" | "large": the spelling every CLI flag and .sched
 * file uses. (Not scaleName: perfbench.cc keeps a file-local
 * scaleName(Scale) that argument-dependent lookup would make
 * ambiguous.) */
const char *scaleLabel(Scale s);

/** Inverse of scaleLabel: false, leaving @p out untouched, for any
 * other string. */
bool scaleByName(const std::string &name, Scale &out);

/** A ready-to-compile workload. */
struct Workload
{
    std::string name;
    tir::Module module;
    /** Worker threads the paper deploys (4 for genome/yada, else 8). */
    unsigned threads = 8;
};

// Each builder takes an optional worker-thread count (0 = the paper's
// deployment). The count is baked into the generated TxIR (per-thread
// work partitions), so a module built for N threads must be simulated
// with exactly N workers.
Workload buildBayes(Scale s, unsigned threads_override = 0);
Workload buildGenome(Scale s, unsigned threads_override = 0);
Workload buildIntruder(Scale s, unsigned threads_override = 0);
Workload buildKmeans(Scale s, unsigned threads_override = 0);
Workload buildLabyrinth(Scale s, unsigned threads_override = 0);
Workload buildSsca2(Scale s, unsigned threads_override = 0);
Workload buildVacation(Scale s, unsigned threads_override = 0);
Workload buildYada(Scale s, unsigned threads_override = 0);
Workload buildTpccNo(Scale s, unsigned threads_override = 0);
Workload buildTpccP(Scale s, unsigned threads_override = 0);

// Adversarial micro-workloads for the schedule explorer (tools/tests
// only — deliberately absent from allNames() so the paper's figure and
// sweep pipelines never pick them up).
Workload buildConvoy(Scale s, unsigned threads_override = 0);
Workload buildHintRace(Scale s, unsigned threads_override = 0,
                       bool seeded_bug = false);

/** Every workload name, in the paper's presentation order. */
const std::vector<std::string> &allNames();

/**
 * Build a workload by name; fatals on unknown names. A "name@N" suffix
 * builds the same kernel partitioned for N worker threads (1..64) —
 * e.g. "kmeans@32" for the 32-context scaling studies; any other
 * suffix is fatal. The returned Workload keeps the suffixed name, so
 * reports label each thread count apart.
 */
Workload byName(const std::string &name, Scale s);

} // namespace workloads
} // namespace hintm

#endif // HINTM_WORKLOADS_WORKLOADS_HH

/**
 * @file
 * The two pieces of the benchmark that carry its verdicts and are unit
 * tested on their own: the golden digest of a simulation result, and
 * the order statistics every timing is reported with.
 */

#ifndef HINTM_PERFBENCH_MEASURE_HH
#define HINTM_PERFBENCH_MEASURE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/machine.hh"

namespace hintm
{
namespace perfbench
{

/**
 * Canonical byte encoding of the simulated outcome of one run: cycles,
 * instructions, every HtmStats field, the TX access mix, page counts,
 * fallback/committed counts, subscription violations and the final
 * global memory. Observation-only fields (journal, metrics, rawStats,
 * CDFs, sharing profiles, oracle output) are deliberately left out, so
 * a run digests the same whether or not it was observed or traced.
 */
std::string encodeOutcome(const sim::RunResult &r);

/** FNV-1a 64 of encodeOutcome(). */
std::uint64_t digest(const sim::RunResult &r);

/** 16 lower-case hex digits. */
std::string hex64(std::uint64_t v);

/** Nearest-rank quantile of @p v (0 <= q <= 1); @p v need not be sorted
 * and must not be empty. */
double quantile(std::vector<double> v, double q);

/** The middle sample, or the mean of the two middle ones. */
double median(std::vector<double> v);

/** Mean of the middle half of the sorted samples (all of them when
 * there are fewer than four). Unlike the median it does not jump when
 * samples from two different simulations trade places around the middle.
 * @p v must not be empty. */
double interquartileMean(std::vector<double> v);

/** A percentile of a sample set, by nearest rank. */
struct Tail
{
    double pct = 0;
    double value = 0;
};

/**
 * The highest percentile from {99.9, 99, 95, 90, 75, 50} that still has
 * at least @p beyond samples strictly above its nearest rank; nullopt
 * when even the median has fewer.
 */
std::optional<Tail> tailPercentile(const std::vector<double> &v,
                                   std::size_t beyond = 10);

} // namespace perfbench
} // namespace hintm

#endif // HINTM_PERFBENCH_MEASURE_HH

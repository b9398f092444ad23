/**
 * @file
 * Host-side parallelism for the experiment runner: a parallel-for
 * helper. Simulations are deterministic and self-contained, so farming
 * independent `core::simulate` calls out to host threads changes
 * wall-clock time only, never results.
 */

#ifndef HINTM_COMMON_PARALLEL_HH
#define HINTM_COMMON_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace hintm
{

/**
 * Run fn(0) .. fn(n-1) on min(@p workers, n) host threads, which claim
 * indices in increasing order, and block until all complete. The first
 * exception an item throws is rethrown once every thread has joined.
 * One worker executes inline, with no thread machinery at all — handy
 * for debugging and for exact single-threaded baselines.
 */
void parallelFor(unsigned workers, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

} // namespace hintm

#endif // HINTM_COMMON_PARALLEL_HH

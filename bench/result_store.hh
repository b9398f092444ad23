/**
 * @file
 * A stable byte encoding of a RunResult and the FNV-1a hash over it:
 * the digest table, the equivalence properties and perfbench compare
 * runs through these.
 */

#ifndef HINTM_BENCH_RESULT_STORE_HH
#define HINTM_BENCH_RESULT_STORE_HH

#include <cstdint>
#include <string>

#include "sim/machine.hh"

namespace hintm
{
namespace bench
{

/** FNV-1a 64-bit hash (stable across platforms and builds). */
std::uint64_t fnv1a(const void *data, std::size_t n,
                    std::uint64_t seed = 0xcbf29ce484222325ull);

/** Binary serialization of a RunResult. The journal and metrics
 * pointers are not encoded. */
std::string encodeRunResult(const sim::RunResult &r);

/** Kept because perfbench names the binary it reports by this hash. */
struct ResultStore
{
    /** Content hash of /proc/self/exe (0 when unreadable). */
    static std::uint64_t selfBinaryHash();
};

} // namespace bench
} // namespace hintm

#endif // HINTM_BENCH_RESULT_STORE_HH

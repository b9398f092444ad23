#include "measure.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.hh"
#include "result_store.hh"

namespace hintm
{
namespace perfbench
{

namespace
{

void
putU64(std::string &out, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        out.push_back(char((v >> (8 * i)) & 0xff));
}

} // namespace

std::string
encodeOutcome(const sim::RunResult &r)
{
    std::string out;
    putU64(out, r.cycles);
    putU64(out, r.instructions);

    putU64(out, r.htm.begins);
    putU64(out, r.htm.commits);
    for (unsigned a = 0; a < htm::numAbortReasons; ++a)
        putU64(out, r.htm.aborts[a]);
    for (unsigned a = 0; a < htm::numAbortReasons; ++a)
        putU64(out, r.htm.cyclesLost[a]);
    const stats::Distribution::Image tracked = r.htm.trackedAtCommit.image();
    putU64(out, tracked.bucketWidth);
    putU64(out, tracked.buckets.size());
    for (std::uint64_t b : tracked.buckets)
        putU64(out, b);
    putU64(out, tracked.overflow);
    putU64(out, tracked.count);
    putU64(out, tracked.sum);
    putU64(out, tracked.minRaw);
    putU64(out, tracked.max);
    putU64(out, r.htm.signatureSpills);
    putU64(out, r.htm.preAbortConversions);

    putU64(out, r.txReadsStaticSafe);
    putU64(out, r.txReadsDynSafe);
    putU64(out, r.txReadsAnnotated);
    putU64(out, r.txWritesStaticSafe);
    putU64(out, r.txReadsUnsafe);
    putU64(out, r.txWritesUnsafe);
    putU64(out, r.txAccessesSuspended);

    putU64(out, r.pageModeOverheadCycles);
    putU64(out, r.fallbackRuns);
    putU64(out, r.committedTxs);
    putU64(out, r.safePages);
    putU64(out, r.totalPages);
    putU64(out, r.subscriptionViolations);

    putU64(out, r.finalGlobals.size());
    for (const auto &[name, words] : r.finalGlobals) {
        putU64(out, name.size());
        out += name;
        putU64(out, words.size());
        for (std::int64_t w : words)
            putU64(out, std::uint64_t(w));
    }
    return out;
}

std::uint64_t
digest(const sim::RunResult &r)
{
    const std::string bytes = encodeOutcome(r);
    return bench::fnv1a(bytes.data(), bytes.size());
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

namespace
{

/** Nearest rank (1-based) of the @p permille-th per-mille of @p n
 * samples, in integers so 90% of 100 is exactly rank 90. */
std::size_t
nearestRank(std::size_t permille, std::size_t n)
{
    return std::clamp<std::size_t>((permille * n + 999) / 1000, 1, n);
}

} // namespace

double
quantile(std::vector<double> v, double q)
{
    HINTM_ASSERT(!v.empty(), "quantile of an empty sample set");
    std::sort(v.begin(), v.end());
    return v[nearestRank(std::size_t(std::lround(q * 1000)), v.size()) - 1];
}

double
median(std::vector<double> v)
{
    HINTM_ASSERT(!v.empty(), "median of an empty sample set");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
interquartileMean(std::vector<double> v)
{
    HINTM_ASSERT(!v.empty(), "mean of an empty sample set");
    std::sort(v.begin(), v.end());
    const std::size_t cut = v.size() / 4;
    double sum = 0;
    for (std::size_t i = cut; i < v.size() - cut; ++i)
        sum += v[i];
    return sum / double(v.size() - 2 * cut);
}

std::optional<Tail>
tailPercentile(const std::vector<double> &v, std::size_t beyond)
{
    if (v.empty())
        return std::nullopt;
    for (std::size_t permille : {999u, 990u, 950u, 900u, 750u, 500u}) {
        if (v.size() - nearestRank(permille, v.size()) >= beyond)
            return Tail{double(permille) / 10.0,
                        quantile(v, double(permille) / 1000.0)};
    }
    return std::nullopt;
}

} // namespace perfbench
} // namespace hintm

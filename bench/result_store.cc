#include "result_store.hh"

#include <fstream>

#include "htm/abort.hh"

namespace hintm
{
namespace bench
{

std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t seed)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

namespace
{

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(char((v >> (8 * i)) & 0xFF));
}

void
putStr(std::string &out, const std::string &s)
{
    putU64(out, s.size());
    out.append(s);
}

void
putU64Vec(std::string &out, const std::vector<std::uint64_t> &v)
{
    putU64(out, v.size());
    for (const std::uint64_t x : v)
        putU64(out, x);
}

void
putI64Vec(std::string &out, const std::vector<std::int64_t> &v)
{
    putU64(out, v.size());
    for (const std::int64_t x : v)
        putU64(out, std::uint64_t(x));
}

void
putDist(std::string &out, const stats::Distribution &d)
{
    const stats::Distribution::Image img = d.image();
    putU64(out, img.bucketWidth);
    putU64(out, img.overflow);
    putU64(out, img.count);
    putU64(out, img.sum);
    putU64(out, img.minRaw);
    putU64(out, img.max);
    putU64Vec(out, img.buckets);
}

void
putSharing(std::string &out, const sim::SharingSummary &s)
{
    putU64(out, s.totalRegions);
    putU64(out, s.safeRegions);
    putU64(out, s.txReads);
    putU64(out, s.txReadsToSafe);
    putU64(out, 0); // a retired field, kept for the digests' byte layout
}

} // namespace

std::string
encodeRunResult(const sim::RunResult &r)
{
    std::string out;
    putU64(out, r.cycles);
    putU64(out, r.instructions);

    putU64(out, r.htm.begins);
    putU64(out, r.htm.commits);
    putU64(out, htm::numAbortReasons);
    for (unsigned a = 0; a < htm::numAbortReasons; ++a)
        putU64(out, r.htm.aborts[a]);
    for (unsigned a = 0; a < htm::numAbortReasons; ++a)
        putU64(out, r.htm.cyclesLost[a]);
    putDist(out, r.htm.trackedAtCommit);
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

    putDist(out, r.txSizeAll);
    putDist(out, r.txSizeNoStatic);
    putDist(out, r.txSizeUnsafe);

    putSharing(out, r.blockSharing);
    putSharing(out, r.pageSharing);

    putU64(out, r.finalGlobals.size());
    for (const auto &kv : r.finalGlobals) {
        putStr(out, kv.first);
        putI64Vec(out, kv.second);
    }

    putStr(out, r.rawStats);

    putU64(out, r.oracleWitnesses.size());
    for (const std::string &w : r.oracleWitnesses)
        putStr(out, w);
    putU64(out, r.oracleSafeChecked);
    putU64(out, r.oracleSafeSkips);
    return out;
}

std::uint64_t
ResultStore::selfBinaryHash()
{
    static const std::uint64_t hash = [] {
        std::ifstream is("/proc/self/exe", std::ios::binary);
        if (!is)
            return std::uint64_t(0);
        std::uint64_t h = 0xcbf29ce484222325ull;
        char buf[1 << 16];
        while (is.read(buf, sizeof(buf)) || is.gcount() > 0) {
            h = fnv1a(buf, std::size_t(is.gcount()), h);
            if (!is)
                break;
        }
        return h;
    }();
    return hash;
}

} // namespace bench
} // namespace hintm

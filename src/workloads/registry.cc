/**
 * @file
 * Workload registry: name-based lookup used by the benchmark harnesses
 * and examples.
 */

#include "workloads.hh"

#include <charconv>

#include "common/logging.hh"

namespace hintm
{
namespace workloads
{

const char *
scaleLabel(Scale s)
{
    switch (s) {
      case Scale::Tiny: return "tiny";
      case Scale::Small: return "small";
      case Scale::Large: return "large";
    }
    return "?";
}

bool
scaleByName(const std::string &name, Scale &out)
{
    for (Scale s : {Scale::Tiny, Scale::Small, Scale::Large}) {
        if (name == scaleLabel(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

const std::vector<std::string> &
allNames()
{
    static const std::vector<std::string> names = {
        "bayes",  "genome",   "intruder", "kmeans",  "labyrinth",
        "ssca2",  "vacation", "yada",     "tpcc-no", "tpcc-p",
    };
    return names;
}

namespace
{

Workload
buildBase(const std::string &base, Scale s, unsigned threads)
{
    if (base == "bayes")
        return buildBayes(s, threads);
    if (base == "genome")
        return buildGenome(s, threads);
    if (base == "intruder")
        return buildIntruder(s, threads);
    if (base == "kmeans")
        return buildKmeans(s, threads);
    if (base == "labyrinth")
        return buildLabyrinth(s, threads);
    if (base == "ssca2")
        return buildSsca2(s, threads);
    if (base == "vacation")
        return buildVacation(s, threads);
    if (base == "yada")
        return buildYada(s, threads);
    if (base == "tpcc-no")
        return buildTpccNo(s, threads);
    if (base == "tpcc-p")
        return buildTpccP(s, threads);
    // Explorer-only adversarial kernels: resolvable by name, but never
    // part of allNames() (the figure pipelines iterate that list).
    if (base == "convoy")
        return buildConvoy(s, threads);
    if (base == "hintrace")
        return buildHintRace(s, threads);
    HINTM_FATAL("unknown workload '", base, "'");
}

} // namespace

Workload
byName(const std::string &name, Scale s)
{
    std::string base = name;
    unsigned threads = 0; // 0 = the paper's deployment
    const std::size_t at = name.find('@');
    if (at != std::string::npos) {
        base = name.substr(0, at);
        const char *last = name.data() + name.size();
        const auto [end, ec] =
            std::from_chars(name.data() + at + 1, last, threads);
        if (ec != std::errc() || end != last || threads < 1 || threads > 64)
            HINTM_FATAL("bad thread-count suffix '", name.substr(at),
                        "' in workload '", name,
                        "' (want name@N with N in 1..64)");
    }
    Workload w = buildBase(base, s, threads);
    // Keep the suffixed name: reports label each thread count apart.
    w.name = name;
    return w;
}

} // namespace workloads
} // namespace hintm

/**
 * @file
 * Workload registry: name-based lookup used by the benchmark harnesses
 * and examples.
 */

#include "workloads.hh"

#include <cstdlib>

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
        char *end = nullptr;
        threads = unsigned(
            std::strtoul(name.c_str() + at + 1, &end, 10));
        HINTM_ASSERT(end && *end == '\0' && threads >= 1 &&
                         threads <= 64,
                     "bad thread-count suffix in workload '", name,
                     "' (want name@N with N in 1..64)");
    }
    Workload w = buildBase(base, s, threads);
    // Keep the suffixed name: it is part of every result-cache key.
    w.name = name;
    return w;
}

} // namespace workloads
} // namespace hintm

/**
 * @file
 * TX-site identity shared by the observers. A TX site is the TxBegin
 * instruction a transaction starts at (function/block/instr indices).
 * The TX journal and the metrics registry key their per-site tables by
 * the same packed id and render sites through the same name table, so a
 * report can join the two.
 */

#ifndef HINTM_COMMON_TX_SITE_HH
#define HINTM_COMMON_TX_SITE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace hintm
{

/** Site id: fn/block/instr packed into 20-bit fields (-1 saturates). */
std::uint64_t siteKey(std::int32_t fn, std::int32_t block,
                      std::int32_t instr);

/** The per-site records of @p sites, ranked by @p ahead (a strict
 * "ranks before" order) with ties broken by site id, so the order is
 * deterministic. */
template <typename SiteMap, typename Ahead>
std::vector<const typename SiteMap::mapped_type *>
rankSites(const SiteMap &sites, Ahead ahead)
{
    std::vector<const typename SiteMap::mapped_type *> out;
    out.reserve(sites.size());
    for (const auto &kv : sites)
        out.push_back(&kv.second);
    std::sort(out.begin(), out.end(), [&](const auto *a, const auto *b) {
        if (ahead(*a, *b))
            return true;
        if (ahead(*b, *a))
            return false;
        return siteKey(a->fn, a->block, a->instr) <
               siteKey(b->fn, b->block, b->instr);
    });
    return out;
}

/**
 * The function names of one module, for rendering TX sites. Copies
 * share one immutable table, so every observer of a run holds a
 * pointer, not a copy.
 */
class SiteNames
{
  public:
    SiteNames() = default;
    explicit SiteNames(std::vector<std::string> functions);

    /** "funcName:block:instr" ("fnN:..." past the name table,
     * "(unknown)" for fn < 0). */
    std::string siteName(std::int32_t fn, std::int32_t block,
                         std::int32_t instr) const;

  private:
    std::shared_ptr<const std::vector<std::string>> functions_;
};

} // namespace hintm

#endif // HINTM_COMMON_TX_SITE_HH

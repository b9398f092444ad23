/**
 * @file
 * Lightweight categorized event tracing, in the spirit of gem5's debug
 * flags: disabled categories cost one branch; enabled ones stream
 * "cycle: category: message" lines to a configurable sink. Categories
 * can be switched on programmatically or via the HINTM_TRACE
 * environment variable (comma-separated names, or "all").
 */

#ifndef HINTM_COMMON_TRACE_HH
#define HINTM_COMMON_TRACE_HH

#include <ostream>
#include <string>

#include "common/logging.hh"
#include "common/types.hh"

namespace hintm
{
namespace trace
{

/** Trace categories (keep names in category_names in trace.cc). */
enum class Category : unsigned
{
    Tx,      ///< begin / commit / abort / fallback lock / conversion
    Vm,      ///< page transitions and their shootdowns
    Sched,   ///< barrier releases
    Journal, ///< TX-journal ring drops and end-of-run flushes
    NumCategories,
};

/** Parse a category name ("tx", "vm", ...); fatal on unknown names,
 * with the error listing every valid name. */
Category categoryFromName(const std::string &name);

/** Enable one category. */
void enable(Category c);

/** Enable from a spec like "tx,vm" or "all" (empty = no-op).
 * Whitespace around commas and names is ignored. */
void enableFromSpec(const std::string &spec);

/** Apply the HINTM_TRACE environment variable (called lazily too). */
void enableFromEnvironment();

/** Disable everything (tests). */
void disableAll();

bool enabled(Category c);

/** Redirect output (default std::cerr); pass nullptr to restore. */
void setSink(std::ostream *os);

namespace detail
{
void emitLine(Category c, Cycle cycle, const std::string &msg);
} // namespace detail

/** Emit one trace line when the category is on. */
template <typename... Args>
void
event(Category c, Cycle cycle, Args &&...args)
{
    if (enabled(c)) {
        detail::emitLine(
            c, cycle,
            hintm::detail::concat(std::forward<Args>(args)...));
    }
}

} // namespace trace
} // namespace hintm

#endif // HINTM_COMMON_TRACE_HH

#include "trace.hh"

#include <cctype>
#include <cstdlib>
#include <iostream>
#include <mutex>

namespace hintm
{
namespace trace
{

namespace
{

constexpr unsigned numCategories =
    unsigned(Category::NumCategories);

const char *const categoryNames[numCategories] = {
    "tx", "vm", "sched", "journal",
};

/** Strip leading/trailing whitespace from a spec token. */
std::string
trimmed(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

bool enabled_[numCategories] = {};
std::ostream *sink_ = nullptr;
std::once_flag envOnce_;
/** Serializes emitLine: machines running on pool threads must not
 * interleave their trace lines mid-record. Category toggles themselves
 * are expected to happen before parallel simulations start. */
std::mutex emitMutex_;

} // namespace

Category
categoryFromName(const std::string &name)
{
    for (unsigned i = 0; i < numCategories; ++i) {
        if (name == categoryNames[i])
            return Category(i);
    }
    std::string valid;
    for (unsigned i = 0; i < numCategories; ++i) {
        if (i)
            valid += ", ";
        valid += categoryNames[i];
    }
    HINTM_FATAL("unknown trace category '", name, "' (valid: ", valid,
                ", or 'all')");
}

void
enable(Category c)
{
    enabled_[unsigned(c)] = true;
}

void
enableFromSpec(const std::string &spec)
{
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::size_t end =
            comma == std::string::npos ? spec.size() : comma;
        const std::string name = trimmed(spec.substr(pos, end - pos));
        if (name == "all") {
            for (unsigned i = 0; i < numCategories; ++i)
                enabled_[i] = true;
        } else if (!name.empty()) {
            enable(categoryFromName(name));
        }
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
}

void
enableFromEnvironment()
{
    // Machines may be constructed concurrently on pool threads; apply
    // the environment exactly once, race-free.
    std::call_once(envOnce_, [] {
        if (const char *spec = std::getenv("HINTM_TRACE"))
            enableFromSpec(spec);
    });
}

void
disableAll()
{
    for (unsigned i = 0; i < numCategories; ++i)
        enabled_[i] = false;
}

bool
enabled(Category c)
{
    return enabled_[unsigned(c)];
}

void
setSink(std::ostream *os)
{
    sink_ = os;
}

namespace detail
{

void
emitLine(Category c, Cycle cycle, const std::string &msg)
{
    std::lock_guard<std::mutex> lock(emitMutex_);
    std::ostream &os = sink_ ? *sink_ : std::cerr;
    os << cycle << ": " << categoryNames[unsigned(c)] << ": " << msg
       << "\n";
}

} // namespace detail
} // namespace trace
} // namespace hintm

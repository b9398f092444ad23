#include "cli.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/logging.hh"

namespace hintm
{

bool
parseUnsigned(const char *s, std::uint64_t &out, std::uint64_t max)
{
    if (s == nullptr || !std::isdigit(static_cast<unsigned char>(s[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 0);
    if (errno == ERANGE || *end != '\0' || v > max)
        return false;
    out = v;
    return true;
}

std::uint64_t
parseFlagValue(const std::string &flag, const char *value,
               std::uint64_t max)
{
    std::uint64_t v = 0;
    if (!parseUnsigned(value, v, max)) {
        HINTM_FATAL(flag, " expects a non-negative integer no larger than ",
                    max, ", got '", value ? value : "", "'");
    }
    return v;
}

std::ofstream
openOutput(const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        HINTM_FATAL("cannot write ", path);
    return os;
}

int
runMain(int argc, char **argv, int (*body)(int, char **))
{
    try {
        return body(argc, argv);
    } catch (const FatalError &) {
        return 2; // the "fatal:" line is already out
    }
}

} // namespace hintm

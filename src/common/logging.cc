#include "logging.hh"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace hintm
{
namespace detail
{

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    // Throw instead of abort() so unit tests can observe panics.
    throw std::logic_error("panic: " + msg);
}

[[noreturn]] void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    throw FatalError("fatal: " + msg);
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

} // namespace detail
} // namespace hintm

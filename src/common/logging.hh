/**
 * @file
 * Error and status reporting, following the gem5 panic/fatal/warn/inform
 * convention: panic() marks simulator bugs (aborts), fatal() marks user
 * errors (clean exit), warn()/inform() are non-terminating notices.
 */

#ifndef HINTM_COMMON_LOGGING_HH
#define HINTM_COMMON_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace hintm
{

/** What HINTM_FATAL throws once it has printed its "fatal:" line. */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

namespace detail
{

/** Concatenate a parameter pack into a string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/** Abort with a message: something happened that indicates a simulator bug. */
#define HINTM_PANIC(...) \
    ::hintm::detail::panicImpl(__FILE__, __LINE__, \
                               ::hintm::detail::concat(__VA_ARGS__))

/** Exit with a message: the condition is the user's fault (bad config). */
#define HINTM_FATAL(...) \
    ::hintm::detail::fatalImpl(__FILE__, __LINE__, \
                               ::hintm::detail::concat(__VA_ARGS__))

/** panic() if the condition does not hold. */
#define HINTM_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            ::hintm::detail::panicImpl(__FILE__, __LINE__, \
                ::hintm::detail::concat("assertion '" #cond "' failed: ", \
                                        ##__VA_ARGS__)); \
        } \
    } while (0)

/** Non-fatal warning on stderr. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

/** Informational message on stdout. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::concat(std::forward<Args>(args)...));
}

} // namespace hintm

#endif // HINTM_COMMON_LOGGING_HH

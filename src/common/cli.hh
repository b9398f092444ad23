/**
 * @file
 * Checked parsing of numeric command-line values. Every harness and
 * driver reads its numeric flags through here, so "-1", "abc", "12x" or
 * an empty value fails with a message naming the flag instead of
 * wrapping around or silently reading as 0. Every harness and driver
 * also runs its main body through runMain(), so such a failure ends
 * the process with one line and exit code 2.
 */

#ifndef HINTM_COMMON_CLI_HH
#define HINTM_COMMON_CLI_HH

#include <cstdint>
#include <fstream>
#include <limits>
#include <string>

namespace hintm
{

/**
 * Parse @p s as a non-negative integer no larger than @p max (decimal,
 * or 0x-hex / 0-octal as strtoull base 0 reads them). Rejects an empty
 * string, anything not starting with a digit (a sign, whitespace),
 * trailing characters and overflow.
 */
bool parseUnsigned(
    const char *s, std::uint64_t &out,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/** parseUnsigned for the value of command-line flag @p flag: fatal,
 * naming the flag, on anything it rejects. */
std::uint64_t parseFlagValue(const std::string &flag, const char *value,
                             std::uint64_t max);

/** parseFlagValue bounded by the range of the destination type. */
template <typename T = std::uint64_t>
T
parseFlag(const std::string &flag, const char *value)
{
    return T(parseFlagValue(flag, value, std::numeric_limits<T>::max()));
}

/** Open the output file @p path the user named (truncating it): fatal,
 * naming the file, when it cannot be opened. */
std::ofstream openOutput(const std::string &path);

/**
 * Run a binary's main body and return its exit code. A fatal error
 * (HINTM_FATAL: a bad flag, bad input or a failed run) has already
 * printed its one "fatal:" line, so it returns exit code 2 instead of
 * escaping main into std::terminate. Reports are written by the body
 * once its runs are done, so a run that fails first writes none.
 */
int runMain(int argc, char **argv, int (*body)(int, char **));

} // namespace hintm

#endif // HINTM_COMMON_CLI_HH

#include "tx_site.hh"

#include <sstream>

namespace hintm
{

std::uint64_t
siteKey(std::int32_t fn, std::int32_t block, std::int32_t instr)
{
    const auto f = [](std::int32_t v) {
        return std::uint64_t(std::uint32_t(v)) & 0xFFFFFu;
    };
    return (f(fn) << 40) | (f(block) << 20) | f(instr);
}

SiteNames::SiteNames(std::vector<std::string> functions)
    : functions_(std::make_shared<const std::vector<std::string>>(
          std::move(functions)))
{
}

std::string
SiteNames::siteName(std::int32_t fn, std::int32_t block,
                    std::int32_t instr) const
{
    if (fn < 0)
        return "(unknown)";
    std::ostringstream os;
    if (functions_ && std::size_t(fn) < functions_->size())
        os << (*functions_)[std::size_t(fn)];
    else
        os << "fn" << fn;
    os << ":" << block << ":" << instr;
    return os.str();
}

} // namespace hintm

#include "stats.hh"

#include <algorithm>

namespace hintm
{
namespace stats
{

Distribution::Distribution(std::uint64_t bucket_width,
                           std::size_t num_buckets)
    : bucketWidth_(bucket_width), buckets_(num_buckets, 0)
{
    HINTM_ASSERT(bucket_width >= 1, "bucket width must be positive");
    HINTM_ASSERT(num_buckets >= 1, "need at least one bucket");
}

void
Distribution::sample(std::uint64_t v)
{
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    const std::size_t idx = v / bucketWidth_;
    if (idx < buckets_.size())
        ++buckets_[idx];
    else
        ++overflow_;
}

void
Distribution::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    overflow_ = 0;
    count_ = 0;
    sum_ = 0;
    min_ = ~std::uint64_t(0);
    max_ = 0;
}

double
Distribution::cdfAt(std::uint64_t v) const
{
    if (count_ == 0)
        return 0.0;
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        const std::uint64_t upper = (i + 1) * bucketWidth_ - 1;
        if (upper > v)
            break;
        acc += buckets_[i];
    }
    return double(acc) / count_;
}

std::uint64_t
Distribution::quantile(double q) const
{
    if (count_ == 0)
        return 0;
    const std::uint64_t target =
        std::uint64_t(q * count_ + 0.5);
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        acc += buckets_[i];
        if (acc >= target)
            return (i + 1) * bucketWidth_ - 1;
    }
    return max_;
}

Counter &
StatGroup::counter(const std::string &name)
{
    return counters_[name];
}

Distribution &
StatGroup::distribution(const std::string &name, std::uint64_t bucket_width,
                        std::size_t num_buckets)
{
    auto it = distributions_.find(name);
    if (it == distributions_.end()) {
        it = distributions_
                 .emplace(name, Distribution(bucket_width, num_buckets))
                 .first;
    }
    return it->second;
}

void
StatGroup::addChild(StatGroup *child)
{
    HINTM_ASSERT(child != nullptr, "null child group");
    children_.push_back(child);
}

void
StatGroup::reset()
{
    for (auto &kv : counters_)
        kv.second.reset();
    for (auto &kv : distributions_)
        kv.second.reset();
    for (auto *child : children_)
        child->reset();
}

void
StatGroup::dump(std::ostream &os, const std::string &prefix) const
{
    const std::string full =
        prefix.empty() ? name_ : prefix + "." + name_;
    for (const auto &kv : counters_)
        os << full << "." << kv.first << " " << kv.second.value() << "\n";
    for (const auto &kv : distributions_) {
        const auto &d = kv.second;
        os << full << "." << kv.first << ".count " << d.count() << "\n";
        os << full << "." << kv.first << ".mean " << d.mean() << "\n";
        os << full << "." << kv.first << ".max " << d.max() << "\n";
    }
    for (const auto *child : children_)
        child->dump(os, full);
}

} // namespace stats
} // namespace hintm

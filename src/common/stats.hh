/**
 * @file
 * Lightweight statistics package: named scalar counters, distributions and
 * histograms grouped into StatGroups, with a plain-text table dumper. The
 * design follows gem5's stats package in spirit, sized for this simulator.
 */

#ifndef HINTM_COMMON_STATS_HH
#define HINTM_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "logging.hh"

namespace hintm
{
namespace stats
{

/** Monotonic scalar statistic. */
class Counter
{
  public:
    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t v) { value_ += v; return *this; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Sample distribution tracking count/sum/min/max plus a fixed-width bucket
 * histogram; supports quantile queries and CDF export for Fig. 6-style
 * plots.
 */
class Distribution
{
  public:
    /**
     * @param bucket_width width of each histogram bucket (>=1)
     * @param num_buckets number of buckets before the overflow bucket
     */
    explicit Distribution(std::uint64_t bucket_width = 1,
                          std::size_t num_buckets = 128);

    void sample(std::uint64_t v);
    void reset();

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    double mean() const { return count_ ? double(sum_) / count_ : 0.0; }

    /** Fraction of samples with value <= v (exact for bucket boundaries). */
    double cdfAt(std::uint64_t v) const;

    /** Smallest bucket upper bound b such that cdfAt(b) >= q. */
    std::uint64_t quantile(double q) const;

    std::uint64_t bucketWidth() const { return bucketWidth_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    std::uint64_t overflow() const { return overflow_; }

    /**
     * Exact internal state, including the raw min sentinel (~0 when the
     * distribution is empty, which the min() accessor masks).
     */
    struct Image
    {
        std::uint64_t bucketWidth = 1;
        std::vector<std::uint64_t> buckets;
        std::uint64_t overflow = 0;
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        std::uint64_t minRaw = ~std::uint64_t(0);
        std::uint64_t max = 0;
    };

    Image image() const
    {
        return {bucketWidth_, buckets_, overflow_, count_, sum_, min_,
                max_};
    }

    /** Inverse of image(); perfbench merges images across runs. */
    void setImage(const Image &img)
    {
        bucketWidth_ = img.bucketWidth;
        buckets_ = img.buckets;
        overflow_ = img.overflow;
        count_ = img.count;
        sum_ = img.sum;
        min_ = img.minRaw;
        max_ = img.max;
    }

  private:
    std::uint64_t bucketWidth_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~std::uint64_t(0);
    std::uint64_t max_ = 0;
};

/**
 * A named collection of statistics. Groups may nest; dump() walks the tree
 * and prints "group.name value" lines, gem5-stats style.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Register (or fetch) a named counter. */
    Counter &counter(const std::string &name);

    /** Register (or fetch) a named distribution. */
    Distribution &distribution(const std::string &name,
                               std::uint64_t bucket_width = 1,
                               std::size_t num_buckets = 128);

    /** Attach a child group; the pointer stays owned by the caller. */
    void addChild(StatGroup *child);

    /** Reset every statistic in this group and its children. */
    void reset();

    /** Dump all statistics as "prefix.name value" lines. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    const std::string &name() const { return name_; }

    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }

  private:
    std::string name_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Distribution> distributions_;
    std::vector<StatGroup *> children_;
};

} // namespace stats
} // namespace hintm

#endif // HINTM_COMMON_STATS_HH

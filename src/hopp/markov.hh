/**
 * @file
 * Correlation (Markov) prefetcher over the hot-page trace — the
 * "advanced solutions like machine learning-based ones can also be
 * enabled by full trace" direction of §III-D, in the tradition of
 * Joseph & Grunwald's Markov predictors.
 *
 * The table records, per (PID, VPN), the most frequent successor hot
 * pages. Repeated irregular sequences — iterating a fixed edge list,
 * pointer chasing over a stable heap — produce confident successors
 * that no stride detector can see, while the fault-only view never
 * observes enough of the sequence to learn it at all.
 */

#pragma once

#include <cstdint>

#include "common/types.hh"
#include "mem/set_assoc.hh"
#include "vm/page.hh"

namespace hopp::core
{

/** Markov table knobs. */
struct MarkovConfig
{
    /** Table capacity in (page -> successors) entries. */
    std::size_t entries = 8192;

    /** Associativity of the table. */
    std::size_t ways = 8;

    /** Successor slots per entry. */
    static constexpr unsigned slots = 2;

    /** Observations before a successor is considered predictable. */
    std::uint16_t minCount = 2;

    /** Successor-chain depth followed per prediction (at most
     *  maxMarkovDepth). */
    unsigned chainDepth = 2;

    bool operator==(const MarkovConfig &) const = default;
};

/** Deepest successor chain one prediction follows. */
inline constexpr unsigned maxMarkovDepth = 16;

/**
 * The pages one prediction returns, in a fixed-capacity buffer: the
 * confident successors of the first hop, then the chain. Bounded by
 * slots + maxMarkovDepth - 1, so a prediction never allocates.
 */
class MarkovTargets
{
  public:
    static constexpr unsigned capacity =
        MarkovConfig::slots + maxMarkovDepth - 1;

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    Vpn operator[](std::size_t i) const { return pages_[i]; }
    Vpn front() const { return pages_[0]; }
    const Vpn *begin() const { return pages_; }
    const Vpn *end() const { return pages_ + size_; }

    void push_back(Vpn v) { pages_[size_++] = v; }

  private:
    Vpn pages_[capacity];
    unsigned size_ = 0;
};

/** Markov-table counters. */
struct MarkovStats
{
    std::uint64_t trained = 0;
    std::uint64_t replaced = 0;    //!< successor slot repurposed
    /// Pages returned by predict(), once per reader served.
    std::uint64_t predictions = 0;
    /// predict() with no entry, once per reader served.
    std::uint64_t misses = 0;
};

/**
 * The correlation table.
 */
class MarkovTable
{
  public:
    explicit MarkovTable(const MarkovConfig &cfg = {});

    /** Record the transition prev -> cur in pid's hot-page stream. */
    void train(Pid pid, Vpn prev, Vpn cur);

    /**
     * Predict the likely successor chain of (pid, vpn): the dominant
     * successor, its dominant successor, and so on up to @p depth
     * (cfg.chainDepth when 0; at most maxMarkovDepth), plus the
     * runner-up of the first hop. Only peeks: the table's contents
     * and LRU state are unchanged, so any number of readers may share
     * one trained table, and one call may serve @p readers of them
     * at once (the counters add up as if each had called).
     */
    MarkovTargets predict(Pid pid, Vpn vpn, unsigned depth = 0,
                          unsigned readers = 1);

    /** Counters. */
    const MarkovStats &stats() const { return stats_; }

    /** Entries currently held. */
    std::size_t size() const { return table_.size(); }

  private:
    struct Entry
    {
        Vpn succ[MarkovConfig::slots] = {};
        std::uint16_t count[MarkovConfig::slots] = {0, 0};
    };

    /** Dominant successor of vpn, if confident. */
    bool dominant(Pid pid, Vpn vpn, Vpn &out);

    MarkovConfig cfg_;
    mem::SetAssocCache<Entry> table_;
    MarkovStats stats_;
};

} // namespace hopp::core


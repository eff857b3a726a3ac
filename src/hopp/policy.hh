/**
 * @file
 * Prefetch policy engine (§III-E): two knobs per stream.
 *
 *  - Prefetch intensity: pages issued per hot page of an identified
 *    stream (1 by default; >1 compensates for a congested network).
 *  - Prefetch offset i: how far ahead to fetch. HoPP measures the
 *    timeliness T of every prefetched page (arrival -> first hit) and
 *    steers i so that T stays within [T_min, T_max]: too small a T
 *    means the page nearly arrived late (i *= 1+alpha); too large a T
 *    means local memory is occupied too early (i *= 1-alpha).
 */

#pragma once

#include <algorithm>
#include <cstdint>

#include "common/flat_map.hh"
#include "common/types.hh"

namespace hopp::core
{

/**
 * The offsets to prefetch for one hot page: `intensity` consecutive
 * values starting at the stream's current i. Always a contiguous run,
 * so it is generated on the fly instead of materialized — offsets()
 * sits on the per-hot-page training path of every backend and must
 * not allocate.
 */
struct OffsetRange
{
    std::uint64_t first = 1;
    unsigned count = 1;

    struct iterator
    {
        std::uint64_t value;
        std::uint64_t operator*() const { return value; }
        iterator &
        operator++()
        {
            ++value;
            return *this;
        }
        bool
        operator!=(const iterator &o) const
        {
            return value != o.value;
        }
    };

    iterator begin() const { return {first}; }
    iterator end() const { return {first + count}; }
    std::size_t size() const { return count; }
    std::uint64_t front() const { return first; }
    std::uint64_t
    operator[](std::size_t k) const
    {
        return first + k;
    }
};

/** Policy knobs (paper defaults: alpha=0.2, i_max=1K, T in [40us,5ms]). */
struct PolicyConfig
{
    double alpha = 0.2;
    double offsetInit = 1.0;
    double offsetMax = 1024.0;
    Duration tMin = 40'000;    // 40 us
    Duration tMax = 5'000'000; // 5 ms
    unsigned intensity = 1;  // pages prefetched per hot page

    /**
     * Timeliness samples averaged per adjustment. Adjusting on every
     * sample is unstable: pages injected when the offset was small
     * keep reporting tiny T long after i has grown (stale feedback),
     * ratcheting i to its cap while every multiplicative jump skips
     * i*alpha pages. Epoch averaging dilutes stale samples.
     */
    unsigned adjustEpoch = 8;

    /** Disable offset adaptation (Fig. 22's fixed-offset ablation). */
    bool adaptive = true;
};

/** Policy counters. */
struct PolicyStats
{
    std::uint64_t feedbacks = 0;
    std::uint64_t increases = 0; //!< i grew (pages nearly late)
    std::uint64_t decreases = 0; //!< i shrank (pages too early)
};

/**
 * Per-stream offset adaptation.
 */
class PolicyEngine
{
  public:
    explicit PolicyEngine(const PolicyConfig &cfg = {}) : cfg_(cfg) {}

    /**
     * Offsets to prefetch for one hot page of a stream: `intensity`
     * consecutive offsets starting at the stream's current i.
     */
    OffsetRange
    offsets(std::uint64_t stream_id) const
    {
        double i = offsetOf(stream_id);
        auto first = static_cast<std::uint64_t>(i + 0.5);
        if (first < 1)
            first = 1;
        return OffsetRange{first, cfg_.intensity};
    }

    /** Timeliness feedback for one prefetched page of a stream. */
    void
    feedback(std::uint64_t stream_id, Tick ready_at, Tick hit_at)
    {
        ++stats_.feedbacks;
        if (!cfg_.adaptive)
            return;
        State &s = stateRef(stream_id);
        Duration t = hit_at > ready_at ? hit_at - ready_at : 0;
        s.tSum += static_cast<double>(t);
        if (++s.tCount < cfg_.adjustEpoch)
            return;
        double avg = s.tSum / s.tCount;
        s.tSum = 0.0;
        s.tCount = 0;
        if (avg < static_cast<double>(cfg_.tMin)) {
            s.offset *= 1.0 + cfg_.alpha;
            ++stats_.increases;
        } else if (avg > static_cast<double>(cfg_.tMax)) {
            s.offset *= 1.0 - cfg_.alpha;
            ++stats_.decreases;
        }
        if (s.offset < 1.0)
            s.offset = 1.0;
        if (s.offset > cfg_.offsetMax)
            s.offset = cfg_.offsetMax;
    }

    /** Current offset of a stream (offsetInit when never seen). */
    double
    offsetOf(std::uint64_t stream_id) const
    {
        const State *s = offset_.find(stream_id);
        return s ? s->offset : cfg_.offsetInit;
    }

    /** Counters. */
    const PolicyStats &stats() const { return stats_; }

    /** Zero the counters (per-stream offsets are untouched). */
    void resetStats() { stats_ = PolicyStats{}; }

    /** Configuration. */
    const PolicyConfig &config() const { return cfg_; }

  private:
    struct State
    {
        double offset = 0.0;
        double tSum = 0.0;
        unsigned tCount = 0;
    };

    State &
    stateRef(std::uint64_t stream_id)
    {
        // Bound the table: streams are short-lived STT generations.
        if (offset_.size() > 8192)
            offset_.clear();
        const std::size_t known = offset_.size();
        State &s = offset_[stream_id];
        if (offset_.size() != known)
            s.offset = cfg_.offsetInit;
        return s;
    }

    PolicyConfig cfg_;
    FlatU64Map<State> offset_;
    PolicyStats stats_;
};

} // namespace hopp::core


/**
 * @file
 * Last-level cache model.
 *
 * The LLC is what makes a memory-controller-side tracer attractive
 * (paper §II-D): the MC only sees LLC misses, two orders of magnitude
 * fewer events than L1/MMU accesses. We model tags only (no data), with
 * physical-address indexing and true LRU, sized so the footprint/LLC
 * ratio of the scaled-down workloads matches the paper's testbed.
 */

#pragma once

#include <cstdint>

#include "common/types.hh"
#include "mem/set_assoc.hh"
#include "obs/profiler.hh"
#include "stats/stats.hh"

namespace hopp::mem
{

/** Geometry and behaviour knobs for the LLC model. */
struct LlcConfig
{
    /** Total capacity in bytes (default 4 MB, scaled with footprints). */
    std::uint64_t capacityBytes = 4ull << 20;

    /** Associativity. */
    std::size_t ways = 16;
};

/**
 * Tag-only set-associative LLC. access() returns whether the line hit;
 * on miss the caller forwards the access to the memory controller.
 */
class Llc
{
  public:
    explicit Llc(const LlcConfig &cfg);

    /**
     * Access one physical byte address at cacheline granularity.
     * @return true on hit, false on miss (line is then filled).
     *
     * Defined inline: this is the data-path cost of every resident
     * access, and keeping it in the header lets the hit branch (tag
     * probe + LRU promote) inline straight into Vms::residentAccess
     * with no out-of-line call.
     */
    bool
    access(PhysAddr pa)
    {
        HOPP_PROF(Llc);
        std::uint64_t tag = taggedLine(pa);
        // One combined way scan for probe + fill (identical hit/victim
        // behaviour to touch() + insert(), see SetAssocCache).
        if (tags_.probeInsert(tag, Empty{}).hit) {
            ++hits_;
            return true;
        }
        ++misses_;
        return false;
    }

    /**
     * Invalidate every line of a physical page. Called when a frame is
     * recycled for a different page (the RDMA DMA-write of new contents
     * replaces the stale lines in real hardware).
     *
     * Implemented by bumping the frame's epoch: lines of the previous
     * tenancy can no longer hit, but — exactly as real stale lines —
     * they keep occupying capacity until natural LRU eviction, so
     * swapping traffic does not get a spurious cache-cleaning bonus.
     */
    void invalidatePage(Ppn ppn);

    /** Drop all lines. */
    void clear() { tags_.clear(); }

    /** Hits observed. */
    std::uint64_t hits() const { return hits_; }

    /** Misses observed. */
    std::uint64_t misses() const { return misses_; }

    /** Number of sets (for tests). */
    std::size_t sets() const { return tags_.sets(); }

    /** Reset counters, keep contents. */
    void
    resetStats()
    {
        hits_ = 0;
        misses_ = 0;
    }

  private:
    friend class hopp::check::Access;

    struct Empty
    {
    };

    /** Versioned tag: epoch in the high bits, line address low. */
    std::uint64_t
    taggedLine(PhysAddr pa) const
    {
        // Frame number as dense per-frame vector index. hopp-analyze: allow(raw)
        std::uint64_t frame = pageOf(pa).raw();
        std::uint32_t epoch = frame < epochs_.size() ? epochs_[frame] : 0;
        // The set index comes from the low line-address bits; the epoch
        // only disambiguates tags, so invalidated lines conflict in the
        // same set they always occupied.
        return (static_cast<std::uint64_t>(epoch) << 40) | lineOf(pa);
    }

    SetAssocCache<Empty> tags_;
    std::vector<std::uint32_t> epochs_; // per-frame tenancy version
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace hopp::mem


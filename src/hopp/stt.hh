/**
 * @file
 * Stream Training Table (STT, §III-D1, Figure 7).
 *
 * 64 entries, each a potential stream: a PID, the last L=16 VPNs
 * received for that stream (VPN_history) and the L-1 derived strides
 * (stride_history). A hot page joins an existing stream when its PID
 * matches and its VPN is within Δ_stream=64 pages of the stream's last
 * VPN (pages clustering); otherwise it seeds a new entry, evicting the
 * LRU one. Once a history fills, the adaptive three-tier algorithms
 * run on every subsequent append.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"

namespace hopp::check
{
class Access; // invariant-checker introspection (src/check)
}

namespace hopp::core
{

/**
 * Upper bound on SttConfig::historyLen: the three-tier algorithms
 * keep their per-view training scratch on the stack, sized by this
 * (they run once per full-view hot page per backend, so heap scratch
 * there is measurable across a policy fan-out).
 */
inline constexpr std::size_t maxTrainHistory = 64;

/** STT geometry (paper defaults). */
struct SttConfig
{
    /** Number of stream entries. */
    std::size_t entries = 64;

    /** History length L; larger L = stricter identification (at most
     *  maxTrainHistory). */
    unsigned historyLen = 16;

    /** Δ_stream: max |VPN - last VPN| for clustering into a stream. */
    std::uint64_t streamDelta = 64;

    /** Same geometry = same behaviour: backends with equal configs
     *  can share one table (HotPagePipeline's STT groups). */
    bool operator==(const SttConfig &) const = default;
};

/**
 * A read-only view of one full stream history handed to the prefetch
 * algorithms. vpns has L entries (oldest first); strides has L-1.
 */
struct StreamView
{
    Pid pid;
    std::uint64_t streamId = 0;

    /** Total pages ever appended to this stream (stream length). */
    std::uint64_t length = 0;

    const std::vector<Vpn> *vpns = nullptr;
    const std::vector<std::int64_t> *strides = nullptr;

    /** Newest VPN (VPN_A). */
    Vpn
    vpnA() const
    {
        return vpns->back();
    }

    /** Newest stride (stride_A). */
    std::int64_t
    strideA() const
    {
        return strides->back();
    }
};

/** STT counters. */
struct SttStats
{
    std::uint64_t fed = 0;
    std::uint64_t appended = 0;
    std::uint64_t duplicates = 0; //!< same VPN as the stream's last
    std::uint64_t seeded = 0;     //!< new entries allocated
    std::uint64_t evicted = 0;    //!< LRU entries recycled
    std::uint64_t fullViews = 0;  //!< histories ready for training
};

/**
 * The Stream Training Table.
 */
class Stt
{
  public:
    explicit Stt(const SttConfig &cfg = {});

    /**
     * Feed one hot page (PID, VPN).
     * @return a StreamView when the page extended a stream whose
     *         history is full (training should run), nullopt otherwise.
     *         The view aliases internal storage: use before next feed().
     */
    std::optional<StreamView> feed(Pid pid, Vpn vpn);

    /** Counters. */
    const SttStats &stats() const { return stats_; }

    /** Zero the counters (live streams are untouched). */
    void resetStats() { stats_ = SttStats{}; }

    /** Configuration. */
    const SttConfig &config() const { return cfg_; }

    /** Number of live stream entries. */
    std::size_t liveStreams() const { return live_; }

  private:
    friend class hopp::check::Access;

    /** An entry's stream history. */
    struct Entry
    {
        std::uint64_t id = 0;
        std::uint64_t length = 0; //!< pages appended over the lifetime
        std::vector<Vpn> vpns;
        std::vector<std::int64_t> strides;
    };

    /**
     * The fields the clustering scan in feed() reads, kept apart from
     * the histories in one compact array (24 B per entry), so the
     * scan streams through a few cache lines instead of one fat entry
     * per stream.
     */
    struct Key
    {
        Vpn lastVpn;               //!< the entry's vpns.back()
        std::uint64_t lastUse = 0; //!< recency clock; 0 = invalid entry
        Pid pid;
    };

    std::optional<StreamView> append(std::size_t i, Vpn vpn);

    SttConfig cfg_;
    std::vector<Entry> table_;
    std::vector<Key> keys_; //!< keys_[i] describes table_[i]
    /// Entries [0, live_) are valid, the rest invalid: seeding takes
    /// the first invalid entry while one exists, and no entry is ever
    /// invalidated, so the valid entries always form a prefix.
    std::size_t live_ = 0;
    std::uint64_t clock_ = 0;
    std::uint64_t nextId_ = 1;
    SttStats stats_;
};

} // namespace hopp::core


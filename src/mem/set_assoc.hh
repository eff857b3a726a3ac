/**
 * @file
 * Generic set-associative, LRU-replaced lookup structure.
 *
 * Models the small hardware tables HoPP adds to the memory controller
 * (HPD table, RPT cache) as well as the LLC tag array. Keys are 64-bit
 * tags — raw integers or TaggedU64 wrappers (e.g. Ppn for the
 * frame-indexed MC tables); the set index is the low bits of the key,
 * exactly as the paper indexes the HPD table with the low PPN bits.
 *
 * Storage is structure-of-arrays: one flat tag array, one byte of tag
 * fingerprint per way, one valid bitmask word per set, a separate
 * payload array, and per set an intrusive doubly linked recency list
 * over its ways (one-byte prev/next links per way, one-byte head/tail
 * per set). A way scan compares the fingerprints eight ways per 64-bit
 * word (SWAR) and reads a full tag only for a valid way whose
 * fingerprint matches, so a scan that misses reads no tag and one that
 * hits reads one tag, instead of two cache lines of them (16 ways x
 * 8 B). LRU bookkeeping is O(1): a hit unlinks its way and pushes it
 * to the head, a miss in a full set evicts the tail. The tag probe
 * sits behind every simulated LLC access, every LLC miss probes the
 * HPD again, and every replayed record probes the HPD, so this is the
 * single largest host-side cost of a simulated memory access (see
 * DESIGN.md §14).
 */

#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace hopp::check
{
class Access; // invariant-checker introspection (src/check)
}

namespace hopp::mem
{

/**
 * Fixed-geometry set-associative cache with true-LRU replacement.
 *
 * @tparam Value payload stored per tag.
 * @tparam Key   tag type: a raw 64-bit integer or a TaggedU64 wrapper.
 */
template <typename Value, typename Key = std::uint64_t>
class SetAssocCache
{
  public:
    /** An evicted (tag, value) pair returned from insert(). */
    struct Eviction
    {
        Key tag;
        Value value;
    };

    /**
     * @param sets number of sets; must be a power of two.
     * @param ways associativity; at most 64 (one valid-bit word/set).
     */
    SetAssocCache(std::size_t sets, std::size_t ways)
        : sets_(sets), setMask_(sets - 1), ways_(ways),
          tags_(sets * ways, 0), fps_(sets * ways + fpPad, 0),
          valid_(sets, 0), values_(sets * ways),
          prev_(sets * ways), next_(sets * ways), head_(sets, 0),
          tail_(sets, static_cast<std::uint8_t>(ways - 1))
    {
        hopp_assert(sets > 0 && (sets & (sets - 1)) == 0,
                    "set count must be a power of two");
        hopp_assert(ways > 0 && ways <= 64,
                    "way count must fit the per-set valid word");
        // Every set starts as the list 0 -> 1 -> ... -> ways-1. The
        // order of never-filled ways is irrelevant: a set only evicts
        // once full, and by then every way has been pushed to the
        // head by the fill that validated it.
        for (std::size_t w = 0; w < ways; ++w) {
            prev_[w] = static_cast<std::uint8_t>(w == 0 ? 0 : w - 1);
            next_[w] = static_cast<std::uint8_t>(w + 1 == ways ? w : w + 1);
        }
        for (std::size_t i = ways; i < sets * ways; i += ways) {
            std::copy_n(prev_.begin(), ways, prev_.begin() + i);
            std::copy_n(next_.begin(), ways, next_.begin() + i);
        }
    }

    /** Number of sets. */
    std::size_t sets() const { return sets_; }

    /** Associativity. */
    std::size_t ways() const { return ways_; }

    /** Total capacity in entries. */
    std::size_t capacity() const { return sets_ * ways_; }

    /** Entries currently valid. */
    std::size_t size() const { return live_; }

    /**
     * The 8-bit fingerprint stored beside a way's tag: the top byte of
     * a multiplicative hash, so every bit of the tag feeds it, not
     * only the set-index bits that all ways of one set share.
     */
    static constexpr std::uint8_t
    fingerprint(std::uint64_t raw)
    {
        return static_cast<std::uint8_t>(
            (raw * 0x9e3779b97f4a7c15ull) >> 56);
    }

    /**
     * Look up a tag and promote it to MRU on hit.
     * @return pointer to the payload, or nullptr on miss.
     */
    Value *
    touch(Key tag)
    {
        const std::uint64_t raw = rawKey(tag);
        const std::size_t set = setIndex(raw);
        std::size_t w = findWay(set, raw);
        if (w == npos)
            return nullptr;
        promote(set, w);
        return &values_[set * ways_ + w];
    }

    /** Look up a tag without disturbing LRU state. */
    Value *
    peek(Key tag)
    {
        const std::uint64_t raw = rawKey(tag);
        const std::size_t set = setIndex(raw);
        std::size_t w = findWay(set, raw);
        return w == npos ? nullptr : &values_[set * ways_ + w];
    }

    /** Const lookup without disturbing LRU state. */
    const Value *
    peek(Key tag) const
    {
        return const_cast<SetAssocCache *>(this)->peek(tag);
    }

    /**
     * Insert or overwrite a tag as MRU.
     * @return the LRU victim if a valid entry had to be evicted.
     */
    std::optional<Eviction>
    insert(Key tag, Value value)
    {
        const std::uint64_t raw = rawKey(tag);
        const std::size_t set = setIndex(raw);
        std::size_t w = findWay(set, raw);
        if (w != npos) {
            values_[set * ways_ + w] = std::move(value);
            promote(set, w);
            return std::nullopt;
        }
        bool evicted;
        w = victimWay(set, &evicted);
        std::optional<Eviction> out;
        if (evicted) {
            const std::size_t v = set * ways_ + w;
            out = Eviction{Key{tags_[v]}, std::move(values_[v])};
        }
        fill(set, w, raw, std::move(value));
        return out;
    }

    /** Outcome of a probeInsert(): the resident payload, whether the
     *  probe hit, and whether a valid entry was evicted on the miss. */
    struct ProbeResult
    {
        Value *value;
        bool hit;
        bool evicted;
    };

    /**
     * Combined probe-and-insert: exactly touch(tag), followed on miss
     * by insert(tag, missValue) — same hit promotion, same LRU victim
     * choice (first invalid way, else the list tail) — but in a single
     * way scan instead of three. This is the tag-array pattern of the
     * per-access hot path (LLC, HPD); the split entry points remain
     * for callers that probe without filling.
     */
    ProbeResult
    probeInsert(Key tag, Value missValue)
    {
        const std::uint64_t raw = rawKey(tag);
        const std::size_t set = setIndex(raw);
        const std::size_t base = set * ways_;
        // MRU first: the HPD sees every line of a streamed page in a
        // row, so 63 of 64 probes hit the head, which needs no
        // promotion. Comparing the head's tag directly is cheaper on
        // that hit than a fingerprint guard in front of it.
        const std::size_t h = head_[set];
        if (tags_[base + h] == raw && (valid_[set] >> h) & 1)
            return {&values_[base + h], true, false};
        std::size_t w = findWay(set, raw);
        if (w != npos) {
            promote(set, w);
            return {&values_[base + w], true, false};
        }
        bool evicted;
        w = victimWay(set, &evicted);
        fill(set, w, raw, std::move(missValue));
        return {&values_[base + w], false, evicted};
    }

    /**
     * Remove a tag if present. The way keeps its place in the recency
     * list; it is pushed to the head again when next filled.
     * @return the removed payload.
     */
    std::optional<Value>
    erase(Key tag)
    {
        const std::uint64_t raw = rawKey(tag);
        const std::size_t set = setIndex(raw);
        std::size_t w = findWay(set, raw);
        if (w == npos)
            return std::nullopt;
        valid_[set] &= ~(1ull << w);
        --live_;
        return std::move(values_[set * ways_ + w]);
    }

    /** Drop every entry (the recency lists keep their shape, as
     *  after erase()). */
    void
    clear()
    {
        for (auto &v : valid_)
            v = 0;
        live_ = 0;
    }

    /** Visit every valid (tag, value) pair; fn(tag, value&). */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t s = 0; s < sets_; ++s) {
            for (std::uint64_t m = valid_[s]; m; m &= m - 1) {
                std::size_t i =
                    s * ways_ +
                    static_cast<std::size_t>(std::countr_zero(m));
                fn(Key{tags_[i]}, values_[i]);
            }
        }
    }

  private:
    friend class hopp::check::Access;

    static constexpr std::size_t npos = ~std::size_t{0};

    /// Ways compared per fingerprint word, and the slack after the
    /// last set that lets every word load stay inside fps_.
    static constexpr std::size_t fpLanes = 8;
    static constexpr std::size_t fpPad = fpLanes - 1;
    static constexpr std::uint64_t lowBytes = 0x0101010101010101ull;
    static constexpr std::uint64_t lowSeven = 0x7f7f7f7f7f7f7f7full;

    // Byte k of a loaded word must be way w + k.
    static_assert(std::endian::native == std::endian::little,
                  "fingerprint lanes assume a little-endian host");

    /**
     * Bit k set iff byte k of @p word equals the byte broadcast in
     * @p pattern. Exact per byte: the add never carries across a
     * byte, so no lane can borrow from its neighbour.
     */
    static std::uint64_t
    matchLanes(std::uint64_t word, std::uint64_t pattern)
    {
        const std::uint64_t x = word ^ pattern;
        // High bit of each byte set iff that byte of x is zero.
        const std::uint64_t zero =
            ~(((x & lowSeven) + lowSeven) | x | lowSeven);
        // Gather the eight high bits into the low byte.
        return ((zero >> 7) * 0x0102040810204080ull) >> 56;
    }

    static constexpr std::uint64_t
    rawKey(Key tag)
    {
        // Set indexing needs the key's bits regardless of its tag
        // type. hopp-analyze: allow(raw)
        if constexpr (requires { tag.raw(); })
            return tag.raw(); // hopp-analyze: allow(raw)
        else
            return static_cast<std::uint64_t>(tag);
    }

    std::size_t
    setIndex(std::uint64_t raw) const
    {
        // Precomputed at construction: the tag lookup sits on the
        // per-access LLC hit path, where even the subtraction counts.
        return static_cast<std::size_t>(raw & setMask_);
    }

    /**
     * Way of @p set holding a valid @p raw, or npos. One code path for
     * every associativity: each word holds the fingerprints of eight
     * consecutive ways (a set narrower than a word loads its
     * neighbour's bytes or the tail padding, which the valid mask
     * drops), and only a valid way whose fingerprint matches has its
     * tag read.
     */
    std::size_t
    findWay(std::size_t set, std::uint64_t raw) const
    {
        const std::size_t base = set * ways_;
        const std::uint64_t vmask = valid_[set];
        const std::uint64_t pattern = lowBytes * fingerprint(raw);
        for (std::size_t w = 0; w < ways_; w += fpLanes) {
            std::uint64_t word;
            std::memcpy(&word, fps_.data() + base + w, sizeof(word));
            for (std::uint64_t cand = matchLanes(word, pattern) &
                                      (vmask >> w);
                 cand != 0; cand &= cand - 1) {
                const std::size_t way =
                    w + static_cast<std::size_t>(std::countr_zero(cand));
                if (tags_[base + way] == raw)
                    return way;
            }
        }
        return npos;
    }

    /**
     * Replacement choice in @p set: the first invalid way, else the
     * least recently used one (the list tail). Books the occupancy
     * change; the caller writes tag/payload via fill().
     */
    std::size_t
    victimWay(std::size_t set, bool *evicted)
    {
        const std::uint64_t vmask = valid_[set];
        const std::uint64_t full =
            ways_ == 64 ? ~0ull : (1ull << ways_) - 1;
        if (vmask == full) {
            *evicted = true;
            return tail_[set];
        }
        const std::size_t w =
            static_cast<std::size_t>(std::countr_one(vmask));
        valid_[set] = vmask | (1ull << w);
        ++live_;
        *evicted = false;
        return w;
    }

    void
    fill(std::size_t set, std::size_t way, std::uint64_t raw,
         Value value)
    {
        const std::size_t idx = set * ways_ + way;
        tags_[idx] = raw;
        fps_[idx] = fingerprint(raw);
        values_[idx] = std::move(value);
        promote(set, way);
    }

    /**
     * Move @p way to the head of @p set's recency list. The head's
     * prev and the tail's next links are unused and left stale.
     */
    void
    promote(std::size_t set, std::size_t way)
    {
        const std::uint8_t w = static_cast<std::uint8_t>(way);
        const std::uint8_t h = head_[set];
        if (w == h)
            return;
        std::uint8_t *prev = prev_.data() + set * ways_;
        std::uint8_t *next = next_.data() + set * ways_;
        const std::uint8_t p = prev[w];
        const std::uint8_t n = next[w];
        next[p] = n;
        if (w == tail_[set])
            tail_[set] = p;
        else
            prev[n] = p;
        next[w] = h;
        prev[h] = w;
        head_[set] = w;
    }

    std::size_t sets_;
    std::uint64_t setMask_; //!< sets_ - 1, precomputed for setIndex()
    std::size_t ways_;
    std::vector<std::uint64_t> tags_;  //!< sets x ways raw keys
    /// sets x ways fingerprint(tag), plus fpPad bytes of slack; a
    /// byte is meaningful only while its way's valid bit is set.
    std::vector<std::uint8_t> fps_;
    std::vector<std::uint64_t> valid_; //!< one bit per way, per set
    std::vector<Value> values_;        //!< sets x ways payloads
    std::vector<std::uint8_t> prev_;   //!< sets x ways: toward head
    std::vector<std::uint8_t> next_;   //!< sets x ways: toward tail
    std::vector<std::uint8_t> head_;   //!< per set: MRU way
    std::vector<std::uint8_t> tail_;   //!< per set: LRU way
    std::size_t live_ = 0;
};

} // namespace hopp::mem

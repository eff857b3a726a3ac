/**
 * @file
 * Unit tests for the generic set-associative LRU cache that underlies
 * the LLC, the HPD table and the RPT cache.
 */

#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "mem/set_assoc.hh"

using hopp::mem::SetAssocCache;

TEST(SetAssoc, MissThenHit)
{
    SetAssocCache<int> c(4, 2);
    EXPECT_EQ(c.touch(42), nullptr);
    EXPECT_FALSE(c.insert(42, 7).has_value());
    int *v = c.touch(42);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, 7);
    EXPECT_EQ(c.size(), 1u);
}

TEST(SetAssoc, InsertOverwritesExistingTag)
{
    SetAssocCache<int> c(4, 2);
    c.insert(1, 10);
    c.insert(1, 20);
    EXPECT_EQ(*c.peek(1), 20);
    EXPECT_EQ(c.size(), 1u);
}

TEST(SetAssoc, EvictsLruWithinSet)
{
    // 1 set, 2 ways: keys all collide.
    SetAssocCache<int> c(1, 2);
    c.insert(1, 1);
    c.insert(2, 2);
    c.touch(1); // make 2 the LRU
    auto ev = c.insert(3, 3);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->tag, 2u);
    EXPECT_EQ(ev->value, 2);
    EXPECT_NE(c.peek(1), nullptr);
    EXPECT_NE(c.peek(3), nullptr);
    EXPECT_EQ(c.peek(2), nullptr);
}

TEST(SetAssoc, PeekDoesNotPromote)
{
    SetAssocCache<int> c(1, 2);
    c.insert(1, 1);
    c.insert(2, 2);
    c.peek(1); // must NOT save 1 from eviction
    auto ev = c.insert(3, 3);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->tag, 1u);
}

TEST(SetAssoc, SetsAreIndependent)
{
    // 4 sets x 1 way: tags 0..3 map to distinct sets.
    SetAssocCache<int> c(4, 1);
    for (std::uint64_t t = 0; t < 4; ++t)
        EXPECT_FALSE(c.insert(t, static_cast<int>(t)).has_value());
    EXPECT_EQ(c.size(), 4u);
    // Tag 4 collides only with tag 0.
    auto ev = c.insert(4, 4);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->tag, 0u);
}

TEST(SetAssoc, EraseRemovesEntry)
{
    SetAssocCache<int> c(4, 2);
    c.insert(9, 90);
    auto removed = c.erase(9);
    ASSERT_TRUE(removed.has_value());
    EXPECT_EQ(*removed, 90);
    EXPECT_EQ(c.peek(9), nullptr);
    EXPECT_EQ(c.size(), 0u);
    EXPECT_FALSE(c.erase(9).has_value());
}

TEST(SetAssoc, ClearDropsEverything)
{
    SetAssocCache<int> c(4, 4);
    for (std::uint64_t t = 0; t < 16; ++t)
        c.insert(t, 0);
    c.clear();
    EXPECT_EQ(c.size(), 0u);
    for (std::uint64_t t = 0; t < 16; ++t)
        EXPECT_EQ(c.peek(t), nullptr);
}

TEST(SetAssoc, ForEachVisitsAllValidEntries)
{
    SetAssocCache<int> c(8, 2);
    for (std::uint64_t t = 0; t < 10; ++t)
        c.insert(t, static_cast<int>(t));
    std::set<std::uint64_t> seen;
    c.forEach([&](std::uint64_t tag, int &) { seen.insert(tag); });
    EXPECT_EQ(seen.size(), c.size());
}

TEST(SetAssoc, CapacityFullWithoutEvictionAcrossSets)
{
    SetAssocCache<int> c(4, 4);
    // 16 tags that spread evenly over 4 sets never evict.
    for (std::uint64_t t = 0; t < 16; ++t)
        EXPECT_FALSE(c.insert(t, 1).has_value());
    EXPECT_EQ(c.size(), c.capacity());
}

TEST(SetAssocDeath, NonPowerOfTwoSetsRejected)
{
    using Cache = SetAssocCache<int>;
    EXPECT_DEATH(Cache(3, 2), "power of two");
}

// LRU property under a pseudo-random workload: after touching a key it
// must survive (ways-1) subsequent distinct insertions into its set.
TEST(SetAssoc, TouchedKeySurvivesWaysMinusOneInsertions)
{
    constexpr std::size_t ways = 8;
    SetAssocCache<int> c(1, ways);
    for (std::uint64_t t = 0; t < ways; ++t)
        c.insert(t, 0);
    c.touch(3);
    for (std::uint64_t t = 100; t < 100 + ways - 1; ++t)
        c.insert(t, 0);
    EXPECT_NE(c.peek(3), nullptr);
    c.insert(999, 0);
    EXPECT_EQ(c.peek(3), nullptr);
}

namespace
{

/**
 * Reference model: the global-clock age-stamp LRU the recency lists
 * replaced. Every promotion stamps the way with a fresh, strictly
 * decreasing age; a full set evicts the way with the largest age (the
 * least recently promoted), a non-full one fills its first invalid
 * way. Deliberately the simplest correct form — split scans, no
 * fusion — since it exists only to be obviously right.
 */
class AgeStampCache
{
  public:
    AgeStampCache(std::size_t sets, std::size_t ways)
        : sets_(sets), ways_(ways), tags_(sets * ways, 0),
          ages_(sets * ways, 0), valid_(sets, 0), values_(sets * ways)
    {
    }

    int *
    touch(std::uint64_t tag)
    {
        std::size_t i = find(tag);
        if (i == npos)
            return nullptr;
        ages_[i] = ~(clock_++);
        return &values_[i];
    }

    int *
    peek(std::uint64_t tag)
    {
        std::size_t i = find(tag);
        return i == npos ? nullptr : &values_[i];
    }

    std::optional<std::pair<std::uint64_t, int>>
    insert(std::uint64_t tag, int value)
    {
        if (int *v = touch(tag)) {
            *v = value;
            return std::nullopt;
        }
        const std::size_t set = tag & (sets_ - 1);
        const std::size_t base = set * ways_;
        std::optional<std::pair<std::uint64_t, int>> out;
        std::size_t v;
        if (std::popcount(valid_[set]) < static_cast<int>(ways_)) {
            v = base + static_cast<std::size_t>(
                           std::countr_one(valid_[set]));
            valid_[set] |= 1ull << (v - base);
        } else {
            v = base;
            for (std::size_t w = 1; w < ways_; ++w) {
                if (ages_[base + w] > ages_[v])
                    v = base + w;
            }
            out = std::make_pair(tags_[v], values_[v]);
        }
        tags_[v] = tag;
        values_[v] = value;
        ages_[v] = ~(clock_++);
        return out;
    }

    std::optional<int>
    erase(std::uint64_t tag)
    {
        std::size_t i = find(tag);
        if (i == npos)
            return std::nullopt;
        valid_[i / ways_] &= ~(1ull << (i % ways_));
        return values_[i];
    }

    void
    clear()
    {
        for (auto &v : valid_)
            v = 0;
        clock_ = 0;
    }

    std::vector<std::pair<std::uint64_t, int>>
    contents() const
    {
        std::vector<std::pair<std::uint64_t, int>> out;
        for (std::size_t s = 0; s < sets_; ++s) {
            for (std::size_t w = 0; w < ways_; ++w) {
                if ((valid_[s] >> w) & 1)
                    out.emplace_back(tags_[s * ways_ + w],
                                     values_[s * ways_ + w]);
            }
        }
        return out;
    }

  private:
    static constexpr std::size_t npos = ~std::size_t{0};

    std::size_t
    find(std::uint64_t tag) const
    {
        const std::size_t set = tag & (sets_ - 1);
        for (std::size_t w = 0; w < ways_; ++w) {
            std::size_t i = set * ways_ + w;
            if (((valid_[set] >> w) & 1) && tags_[i] == tag)
                return i;
        }
        return npos;
    }

    std::size_t sets_;
    std::size_t ways_;
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> ages_;
    std::vector<std::uint64_t> valid_;
    std::vector<int> values_;
    std::uint64_t clock_ = 0;
};

std::vector<std::pair<std::uint64_t, int>>
contents(SetAssocCache<int> &c)
{
    std::vector<std::pair<std::uint64_t, int>> out;
    c.forEach([&](std::uint64_t tag, int &v) { out.emplace_back(tag, v); });
    return out;
}

/**
 * Drive the cache and the age-stamp model with one Pcg32-seeded mix
 * of every entry point and require identical observable behaviour:
 * the same hit/miss outcomes, the same evictions and victim tags, the
 * same payloads, and the same forEach sequence (way placement
 * included).
 */
void
checkAgainstAgeStamps(std::size_t sets, std::size_t ways,
                      std::uint64_t seed, std::size_t ops,
                      const std::vector<std::uint64_t> &pool)
{
    SCOPED_TRACE(testing::Message()
                 << sets << "x" << ways << " seed " << seed << " pool "
                 << pool.size() << " from " << pool.back());
    SetAssocCache<int> dut(sets, ways);
    AgeStampCache ref(sets, ways);
    hopp::Pcg32 rng(seed);
    const std::size_t cap = sets * ways;
    const std::uint32_t clearOdds = static_cast<std::uint32_t>(16 * cap);
    const auto poolSize = static_cast<std::uint32_t>(pool.size());
    std::uint64_t last = 0;
    for (std::size_t i = 0; i < ops; ++i) {
        const int value = static_cast<int>(i);
        // One access in four re-touches the previous tag: the MRU
        // streak an HPD sees along a page.
        std::uint64_t tag =
            rng.below(4) == 0 ? last : pool[rng.below(poolSize)];
        last = tag;
        const std::uint32_t op = rng.below(100);
        if (rng.below(clearOdds) == 0) {
            dut.clear();
            ref.clear();
        } else if (op < 35) {
            auto r = dut.probeInsert(tag, value);
            int *hit = ref.touch(tag);
            ASSERT_EQ(r.hit, hit != nullptr) << "op " << i;
            if (hit) {
                ASSERT_FALSE(r.evicted);
                ASSERT_EQ(*r.value, *hit) << "op " << i;
                ++*r.value;
                ++*hit;
            } else {
                auto ev = ref.insert(tag, value);
                ASSERT_EQ(r.evicted, ev.has_value()) << "op " << i;
                ASSERT_EQ(*r.value, value);
            }
        } else if (op < 55) {
            int *a = dut.touch(tag);
            int *b = ref.touch(tag);
            ASSERT_EQ(a != nullptr, b != nullptr) << "op " << i;
            if (a) {
                ASSERT_EQ(*a, *b) << "op " << i;
            }
        } else if (op < 80) {
            auto a = dut.insert(tag, value);
            auto b = ref.insert(tag, value);
            ASSERT_EQ(a.has_value(), b.has_value()) << "op " << i;
            if (a) {
                ASSERT_EQ(a->tag, b->first) << "op " << i;
                ASSERT_EQ(a->value, b->second) << "op " << i;
            }
        } else if (op < 90) {
            int *a = dut.peek(tag);
            int *b = ref.peek(tag);
            ASSERT_EQ(a != nullptr, b != nullptr) << "op " << i;
            if (a) {
                ASSERT_EQ(*a, *b) << "op " << i;
            }
        } else {
            auto a = dut.erase(tag);
            auto b = ref.erase(tag);
            ASSERT_EQ(a, b) << "op " << i;
        }
        if (i % 1024 == 0) {
            ASSERT_EQ(contents(dut), ref.contents()) << "op " << i;
        }
    }
    ASSERT_EQ(contents(dut), ref.contents());
    ASSERT_EQ(dut.size(), ref.contents().size());
}

/** Twice the capacity in distinct tags 0..2*cap-1: full sets, a
 *  steady mix of hits and misses, and real LRU decisions. */
std::vector<std::uint64_t>
densePool(std::size_t sets, std::size_t ways)
{
    std::vector<std::uint64_t> pool(2 * sets * ways);
    for (std::size_t i = 0; i < pool.size(); ++i)
        pool[i] = i;
    return pool;
}

/**
 * Twice the capacity in distinct tags whose fingerprints all collide:
 * per set, 2 x ways tags of that set sharing one fingerprint, so
 * every probe meets fingerprint matches whose tags differ and must
 * fall back to the full tag compare.
 */
std::vector<std::uint64_t>
collidingPool(std::size_t sets, std::size_t ways)
{
    std::vector<std::uint64_t> pool;
    for (std::size_t set = 0; set < sets; ++set) {
        std::vector<std::uint64_t> byFp[256];
        for (std::uint64_t tag = set;; tag += sets) {
            auto &bucket = byFp[SetAssocCache<int>::fingerprint(tag)];
            bucket.push_back(tag);
            if (bucket.size() == 2 * ways) {
                pool.insert(pool.end(), bucket.begin(), bucket.end());
                break;
            }
        }
    }
    return pool;
}

} // namespace

// The recency-list LRU is exactly the age-stamp LRU it replaced, on
// every geometry the simulator uses: degenerate, small, the HPD's
// 4x16, the widest (64 ways, the ablation HPD) and an LLC-like one;
// and the fingerprint scan is exact on way counts that are not a
// multiple of its eight-way word (1, 3, 12, 20), including when every
// tag of a set shares one fingerprint.
TEST(SetAssocOracle, MatchesAgeStampLru)
{
    const std::pair<std::size_t, std::size_t> geometries[] = {
        {1, 1},  {8, 1},  {4, 2},  {4, 3},   {8, 12},
        {4, 16}, {4, 20}, {4, 64}, {512, 16}};
    for (auto [sets, ways] : geometries) {
        for (const auto &pool :
             {densePool(sets, ways), collidingPool(sets, ways)}) {
            for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                checkAgainstAgeStamps(sets, ways, seed, 60000, pool);
                if (HasFatalFailure())
                    return;
            }
        }
    }
}

// Two tags of one set with the same fingerprint are told apart by the
// full tag compare, wherever their ways sit in the fingerprint words.
TEST(SetAssoc, FingerprintCollisionsResolveByTag)
{
    constexpr std::size_t sets = 4, ways = 20;
    const std::vector<std::uint64_t> pool = collidingPool(sets, ways);
    const std::uint64_t fp = SetAssocCache<int>::fingerprint(pool[0]);
    SetAssocCache<int> c(sets, ways);
    for (std::size_t i = 0; i < ways; ++i) {
        ASSERT_EQ(SetAssocCache<int>::fingerprint(pool[i]), fp);
        ASSERT_EQ(pool[i] % sets, pool[0] % sets);
        EXPECT_FALSE(c.insert(pool[i], static_cast<int>(i)).has_value());
    }
    for (std::size_t i = 0; i < ways; ++i) {
        ASSERT_NE(c.peek(pool[i]), nullptr) << i;
        EXPECT_EQ(*c.peek(pool[i]), static_cast<int>(i));
    }
    // A colliding tag that was never inserted misses.
    EXPECT_EQ(c.peek(pool[ways]), nullptr);
    EXPECT_FALSE(c.probeInsert(pool[ways], -1).hit);
    // Erasing one colliding way leaves the others reachable.
    EXPECT_EQ(c.erase(pool[ways - 1]), std::optional<int>(
                                            static_cast<int>(ways - 1)));
    EXPECT_EQ(c.peek(pool[ways - 1]), nullptr);
    EXPECT_EQ(*c.peek(pool[1]), 1);
}

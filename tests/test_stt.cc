/**
 * @file
 * Unit tests for the Stream Training Table (§III-D1): clustering by
 * PID and Δ_stream, history management, LRU replacement, duplicate
 * suppression, and the compact key-mirror scan against a reference
 * copy of the entry-walking scan it replaced.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/random.hh"
#include "hopp/stt.hh"

using namespace hopp;
using namespace hopp::core;

namespace
{

SttConfig
smallCfg(unsigned L = 8, std::size_t entries = 4)
{
    SttConfig c;
    c.historyLen = L;
    c.entries = entries;
    return c;
}

} // namespace

TEST(Stt, ViewAppearsOnceHistoryFills)
{
    Stt stt(smallCfg(8));
    for (std::uint64_t v = 0; v < 7; ++v)
        EXPECT_FALSE(stt.feed(Pid{1}, Vpn{100 + v}).has_value());
    auto view = stt.feed(Pid{1}, Vpn{107});
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->pid, Pid{1});
    EXPECT_EQ(view->vpns->size(), 8u);
    EXPECT_EQ(view->strides->size(), 7u);
    EXPECT_EQ(view->vpnA(), Vpn{107});
    EXPECT_EQ(view->strideA(), 1);
}

TEST(Stt, HistorySlidesAfterFull)
{
    Stt stt(smallCfg(8));
    for (std::uint64_t v = 0; v < 9; ++v)
        stt.feed(Pid{1}, Vpn{100 + v});
    auto view = stt.feed(Pid{1}, Vpn{109});
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->vpns->front(), Vpn{102});
    EXPECT_EQ(view->vpns->back(), Vpn{109});
}

TEST(Stt, DifferentPidsNeverShareStreams)
{
    Stt stt(smallCfg(4));
    stt.feed(Pid{1}, Vpn{100});
    stt.feed(Pid{2}, Vpn{101}); // adjacent VPN but different pid
    stt.feed(Pid{1}, Vpn{102});
    stt.feed(Pid{2}, Vpn{103});
    EXPECT_EQ(stt.liveStreams(), 2u);
}

TEST(Stt, FarVpnSeedsNewStream)
{
    Stt stt(smallCfg(4));
    stt.feed(Pid{1}, Vpn{100});
    stt.feed(Pid{1}, Vpn{100 + 65}); // beyond delta = 64
    EXPECT_EQ(stt.liveStreams(), 2u);
    stt.feed(Pid{1}, Vpn{100 + 64}); // within delta of the first stream
    EXPECT_EQ(stt.liveStreams(), 2u);
    EXPECT_EQ(stt.stats().seeded, 2u);
}

TEST(Stt, ClosestStreamWinsWhenBothMatch)
{
    Stt stt(smallCfg(8));
    stt.feed(Pid{1}, Vpn{100});
    stt.feed(Pid{1}, Vpn{160});     // second stream 60 pages away (within delta!)
    auto before = stt.liveStreams();
    EXPECT_EQ(before, 1u) << "160 clusters into the 100-stream";
    stt.feed(Pid{1}, Vpn{161});
    EXPECT_EQ(stt.liveStreams(), 1u);
}

TEST(Stt, DuplicateVpnIsSuppressed)
{
    Stt stt(smallCfg(4));
    stt.feed(Pid{1}, Vpn{100});
    stt.feed(Pid{1}, Vpn{100});
    stt.feed(Pid{1}, Vpn{100});
    EXPECT_EQ(stt.stats().duplicates, 2u);
    EXPECT_EQ(stt.stats().appended, 0u);
}

TEST(Stt, LruEvictionRecyclesOldestStream)
{
    Stt stt(smallCfg(4, /*entries=*/2));
    stt.feed(Pid{1}, Vpn{100});   // stream A
    stt.feed(Pid{1}, Vpn{1000});  // stream B
    stt.feed(Pid{1}, Vpn{1001});  // touch B
    stt.feed(Pid{1}, Vpn{5000});  // needs a slot: evicts A (LRU)
    EXPECT_EQ(stt.stats().evicted, 1u);
    EXPECT_EQ(stt.liveStreams(), 2u);
    // A's history is gone: feeding near 100 seeds anew, evicting B.
    stt.feed(Pid{1}, Vpn{101});
    EXPECT_EQ(stt.stats().evicted, 2u);
}

TEST(Stt, StreamIdsAreUniquePerGeneration)
{
    Stt stt(smallCfg(4, 2));
    auto fill = [&](Vpn base) {
        std::optional<StreamView> v;
        for (std::uint64_t i = 0; i < 4; ++i)
            v = stt.feed(Pid{1}, base + i);
        return v;
    };
    auto a = fill(Vpn{100});
    ASSERT_TRUE(a.has_value());
    std::uint64_t id_a = a->streamId;
    auto b = fill(Vpn{10000});
    ASSERT_TRUE(b.has_value());
    EXPECT_NE(id_a, b->streamId);
}

TEST(Stt, BackwardStreamsClusterToo)
{
    Stt stt(smallCfg(8));
    std::optional<StreamView> view;
    for (std::uint64_t i = 0; i < 8; ++i)
        view = stt.feed(Pid{1}, Vpn{1000 - i * 2});
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->strideA(), -2);
}

namespace
{

/**
 * The STT as it was before the key mirror: every entry carries its
 * own valid flag, recency and last VPN, and feed() walks the entries
 * with the original branchy scan. The oracle for the compact scan.
 */
class RefStt
{
  public:
    struct Fed
    {
        bool full = false;
        std::uint64_t streamId = 0;
        std::uint64_t length = 0;
        std::vector<Vpn> vpns;
    };

    explicit RefStt(const SttConfig &cfg) : cfg_(cfg), table_(cfg.entries)
    {
    }

    Fed
    feed(Pid pid, Vpn vpn)
    {
        ++stats.fed;
        Entry *best = nullptr;
        std::uint64_t best_dist = ~std::uint64_t(0);
        Entry *lru = nullptr;
        for (auto &e : table_) {
            if (!e.valid) {
                if (!lru || lru->valid)
                    lru = &e;
                continue;
            }
            if (!lru || (lru->valid && e.lastUse < lru->lastUse))
                lru = &e;
            if (e.pid != pid)
                continue;
            std::uint64_t dist = vpn > e.lastVpn ? vpn - e.lastVpn
                                                 : e.lastVpn - vpn;
            if (dist <= cfg_.streamDelta && dist < best_dist) {
                best = &e;
                best_dist = dist;
            }
        }
        if (best)
            return append(*best, vpn);
        if (lru->valid)
            ++stats.evicted;
        ++stats.seeded;
        lru->valid = true;
        lru->pid = pid;
        lru->id = nextId_++;
        lru->lastUse = ++clock_;
        lru->length = 1;
        lru->vpns.assign(1, vpn);
        lru->lastVpn = vpn;
        return {};
    }

    std::size_t
    live() const
    {
        std::size_t n = 0;
        for (const auto &e : table_)
            n += e.valid;
        return n;
    }

    SttStats stats;

  private:
    struct Entry
    {
        bool valid = false;
        Pid pid;
        std::uint64_t id = 0;
        std::uint64_t lastUse = 0;
        std::uint64_t length = 0;
        Vpn lastVpn;
        std::deque<Vpn> vpns;
    };

    Fed
    append(Entry &e, Vpn vpn)
    {
        e.lastUse = ++clock_;
        if (vpn == e.lastVpn) {
            ++stats.duplicates;
            return {};
        }
        if (e.vpns.size() == cfg_.historyLen)
            e.vpns.pop_front();
        e.vpns.push_back(vpn);
        e.lastVpn = vpn;
        ++e.length;
        ++stats.appended;
        if (e.vpns.size() != cfg_.historyLen)
            return {};
        ++stats.fullViews;
        return {true, e.id, e.length, {e.vpns.begin(), e.vpns.end()}};
    }

    SttConfig cfg_;
    std::vector<Entry> table_;
    std::uint64_t clock_ = 0;
    std::uint64_t nextId_ = 1;
};

/**
 * Feed @p feeds Pcg32-drawn hot pages to both tables. Pages cluster
 * around a few anchors per pid, so streams sit within Δ of each other
 * (distance ties), offsets reach exactly Δ and Δ + 1, repeats hit the
 * duplicate path, and the table both fills its invalid slots and
 * recycles LRU streams.
 */
void
checkAgainstReference(const SttConfig &cfg, std::uint64_t seed,
                      std::size_t feeds)
{
    SCOPED_TRACE(testing::Message() << cfg.entries << " entries, delta "
                                    << cfg.streamDelta << ", seed "
                                    << seed);
    Stt dut(cfg);
    RefStt ref(cfg);
    hopp::Pcg32 rng(seed);
    const auto delta = static_cast<std::uint32_t>(cfg.streamDelta);
    for (std::size_t i = 0; i < feeds; ++i) {
        const Pid pid{rng.below(3)};
        const std::uint64_t anchor = 1000 + 2 * delta * rng.below(6);
        Vpn vpn{anchor};
        switch (rng.below(4)) {
          case 0: // exactly on, or one past, the Δ boundary
            vpn = Vpn{anchor + delta + rng.below(2)};
            break;
          case 1:
            vpn = Vpn{anchor - delta - rng.below(2)};
            break;
          default:
            vpn = Vpn{anchor - delta + rng.below(2 * delta + 1)};
            break;
        }
        auto got = dut.feed(pid, vpn);
        RefStt::Fed want = ref.feed(pid, vpn);
        ASSERT_EQ(got.has_value(), want.full) << "feed " << i;
        if (got) {
            ASSERT_EQ(got->pid, pid) << "feed " << i;
            ASSERT_EQ(got->streamId, want.streamId) << "feed " << i;
            ASSERT_EQ(got->length, want.length) << "feed " << i;
            ASSERT_EQ(*got->vpns, want.vpns) << "feed " << i;
        }
    }
    const SttStats &s = dut.stats();
    EXPECT_EQ(s.fed, ref.stats.fed);
    EXPECT_EQ(s.appended, ref.stats.appended);
    EXPECT_EQ(s.duplicates, ref.stats.duplicates);
    EXPECT_EQ(s.seeded, ref.stats.seeded);
    EXPECT_EQ(s.evicted, ref.stats.evicted);
    EXPECT_EQ(s.fullViews, ref.stats.fullViews);
    EXPECT_EQ(dut.liveStreams(), ref.live());
}

} // namespace

// The compact key-mirror scan picks exactly the entry the original
// scan picked — the first closest same-pid stream within Δ, else the
// first invalid entry, else the LRU one — on tables that stay partly
// empty and on tables that recycle streams constantly.
TEST(Stt, CompactScanMatchesReference)
{
    struct Geometry
    {
        std::size_t entries;
        std::uint64_t delta;
        std::size_t feeds;
    };
    const Geometry geometries[] = {
        {64, 64, 40000}, {64, 4, 40000}, {8, 16, 20000}, {1, 8, 5000},
        {64, 1, 20000}};
    for (const Geometry &g : geometries) {
        SttConfig cfg;
        cfg.entries = g.entries;
        cfg.streamDelta = g.delta;
        cfg.historyLen = 8;
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            checkAgainstReference(cfg, seed, g.feeds);
            if (HasFatalFailure())
                return;
        }
    }
}

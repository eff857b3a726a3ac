/**
 * @file
 * Unit tests for the prefetch policy engine (§III-E): offset
 * adaptation under timeliness feedback, epoch averaging, clamping,
 * intensity, and the feedback ban on engines shared by replay
 * backends.
 */

#include <gtest/gtest.h>

#include "hopp/policy.hh"
#include "hopp/trainer.hh"

using namespace hopp;
using namespace hopp::core;
using namespace hopp::time_literals;

namespace
{

/** Engine adjusting on every sample (epoch = 1). */
PolicyEngine
perSample(double offset_init = 1.0)
{
    PolicyConfig cfg;
    cfg.adjustEpoch = 1;
    cfg.offsetInit = offset_init;
    return PolicyEngine(cfg);
}

/** A sink for a trainer that never sees a hot page. */
class NullSink : public PrefetchSink
{
  public:
    void request(Pid, Vpn, std::uint64_t, Tier, Tick, CellMask) override {}
    unsigned
    requestBatch(Pid, Vpn, unsigned, std::uint64_t, Tier, Tick,
                 CellMask) override
    {
        return 0;
    }
};

} // namespace

TEST(Policy, DefaultOffsetIsOne)
{
    PolicyEngine pe;
    EXPECT_DOUBLE_EQ(pe.offsetOf(1), 1.0);
    auto offs = pe.offsets(1);
    ASSERT_EQ(offs.size(), 1u);
    EXPECT_EQ(offs[0], 1u);
}

TEST(Policy, LatePageGrowsOffset)
{
    auto pe = perSample();
    // T = 10 us < T_min = 40 us: nearly late -> i *= 1.2.
    pe.feedback(1, Tick{100_us}, Tick{110_us});
    EXPECT_NEAR(pe.offsetOf(1), 1.2, 1e-9);
    EXPECT_EQ(pe.stats().increases, 1u);
}

TEST(Policy, HitBeforeArrivalGrowsOffset)
{
    auto pe = perSample();
    pe.feedback(1, Tick{100_us}, Tick{90_us}); // waited on the wire: T = 0
    EXPECT_NEAR(pe.offsetOf(1), 1.2, 1e-9);
}

TEST(Policy, EarlyPageShrinksOffset)
{
    auto pe = perSample(100.0);
    pe.feedback(1, Tick{}, Tick{6_ms}); // T = 6 ms > T_max = 5 ms
    EXPECT_NEAR(pe.offsetOf(1), 80.0, 1e-9);
    EXPECT_EQ(pe.stats().decreases, 1u);
}

TEST(Policy, TimelyPageLeavesOffsetAlone)
{
    auto pe = perSample();
    pe.feedback(1, Tick{}, Tick{1_ms}); // 40 us < T < 5 ms
    EXPECT_DOUBLE_EQ(pe.offsetOf(1), 1.0);
    EXPECT_EQ(pe.stats().feedbacks, 1u);
    EXPECT_EQ(pe.stats().increases, 0u);
}

TEST(Policy, EpochAveragingAdjustsOncePerEpoch)
{
    PolicyConfig cfg;
    cfg.adjustEpoch = 8;
    PolicyEngine pe(cfg);
    for (int i = 0; i < 7; ++i)
        pe.feedback(1, Tick{}, Tick{}); // very late, but epoch not full
    EXPECT_DOUBLE_EQ(pe.offsetOf(1), 1.0);
    pe.feedback(1, Tick{}, Tick{}); // 8th sample closes the epoch
    EXPECT_NEAR(pe.offsetOf(1), 1.2, 1e-9);
    EXPECT_EQ(pe.stats().increases, 1u);
}

TEST(Policy, StaleSmallSamplesDilutedByAverage)
{
    // One stale T=0 sample among seven comfortably-timely ones must
    // NOT grow the offset — the instability the epoch average fixes.
    PolicyConfig cfg;
    cfg.adjustEpoch = 8;
    PolicyEngine pe(cfg);
    pe.feedback(1, Tick{}, Tick{});
    for (int i = 0; i < 7; ++i)
        pe.feedback(1, Tick{}, Tick{1_ms});
    EXPECT_DOUBLE_EQ(pe.offsetOf(1), 1.0);
    EXPECT_EQ(pe.stats().increases, 0u);
}

TEST(Policy, OffsetClampsAtMax)
{
    auto pe = perSample();
    for (int i = 0; i < 100; ++i)
        pe.feedback(1, Tick{}, Tick{});
    EXPECT_DOUBLE_EQ(pe.offsetOf(1), 1024.0);
}

TEST(Policy, OffsetNeverDropsBelowOne)
{
    auto pe = perSample();
    for (int i = 0; i < 50; ++i)
        pe.feedback(1, Tick{}, Tick{6_ms});
    EXPECT_DOUBLE_EQ(pe.offsetOf(1), 1.0);
}

TEST(Policy, StreamsAdaptIndependently)
{
    auto pe = perSample();
    pe.feedback(1, Tick{}, Tick{});
    EXPECT_GT(pe.offsetOf(1), 1.0);
    EXPECT_DOUBLE_EQ(pe.offsetOf(2), 1.0);
}

TEST(Policy, IntensityIssuesConsecutiveOffsets)
{
    PolicyConfig cfg;
    cfg.intensity = 3;
    cfg.offsetInit = 5.0;
    PolicyEngine pe(cfg);
    auto offs = pe.offsets(1);
    ASSERT_EQ(offs.size(), 3u);
    EXPECT_EQ(offs[0], 5u);
    EXPECT_EQ(offs[1], 6u);
    EXPECT_EQ(offs[2], 7u);
}

TEST(Policy, NonAdaptiveKeepsFixedOffset)
{
    PolicyConfig cfg;
    cfg.adaptive = false;
    cfg.offsetInit = 20.0;
    cfg.adjustEpoch = 1;
    PolicyEngine pe(cfg);
    for (int i = 0; i < 10; ++i)
        pe.feedback(1, Tick{}, Tick{});
    EXPECT_DOUBLE_EQ(pe.offsetOf(1), 20.0);
    EXPECT_EQ(pe.offsets(1)[0], 20u);
}

TEST(Policy, OffsetsRoundToNearest)
{
    auto pe = perSample(2.0);
    pe.feedback(1, Tick{}, Tick{}); // 2.4
    EXPECT_EQ(pe.offsets(1)[0], 2u);
    pe.feedback(1, Tick{}, Tick{}); // 2.88
    EXPECT_EQ(pe.offsets(1)[0], 3u);
}

TEST(Policy, SharedEngineRefusesFeedback)
{
    NullSink sink;
    Trainer trainer(sink);
    PolicyEngine live;
    trainer.addBackend(live, SttConfig{}, tiers::all, BatchConfig{},
                       MarkovConfig{});
    PolicyConfig other;
    other.intensity = 2;
    // A replay backend with another config gets an engine of its own:
    // the attached engine still adapts.
    EXPECT_NE(&trainer.sharedPolicy(other), &live);
    live.feedback(1, Tick{100_us}, Tick{110_us});
    EXPECT_EQ(live.stats().feedbacks, 1u);
    // One with the same config reads the attached engine, which from
    // then on must not adapt.
    EXPECT_EQ(&trainer.sharedPolicy(live.config()), &live);
    EXPECT_DEATH(live.feedback(1, Tick{100_us}, Tick{110_us}), "shared");
}

/**
 * @file
 * Unit tests for the HMTT emulation: record packing, ring buffer
 * semantics, the MC tap, and bandwidth accounting (trace files are
 * covered by test_trace_codec.cc).
 */

#include <gtest/gtest.h>

#include <deque>

#include "common/random.hh"
#include "trace/hmtt.hh"

using namespace hopp;
using namespace hopp::trace;

TEST(HmttRecord, PackUnpackRoundTrips)
{
    HmttRecord r;
    r.seq = 0xAB;
    r.timestamp = 0xCD;
    r.isWrite = true;
    r.addr29 = (1u << 29) - 5;
    HmttRecord u = HmttRecord::unpack(r.pack());
    EXPECT_EQ(u.seq, r.seq);
    EXPECT_EQ(u.timestamp, r.timestamp);
    EXPECT_EQ(u.isWrite, r.isWrite);
    EXPECT_EQ(u.addr29, r.addr29);
}

TEST(HmttRecord, PpnDerivesFromAddr29)
{
    HmttRecord r;
    r.addr29 = toAddr29(pageBase(Ppn{7}) + 3 * lineBytes);
    EXPECT_EQ(r.ppn(), Ppn{7});
}

TEST(HmttRecord, PackIs46Bits)
{
    HmttRecord r;
    r.seq = 0xFF;
    r.timestamp = 0xFF;
    r.isWrite = true;
    r.addr29 = (1u << 29) - 1;
    EXPECT_LT(r.pack(), 1ull << 46);
}

TEST(RingBufferT, PushPopFifo)
{
    RingBuffer<int> ring(4);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(ring.push(i));
    EXPECT_FALSE(ring.push(99)); // full -> drop
    EXPECT_EQ(ring.dropped(), 1u);
    for (int i = 0; i < 4; ++i) {
        auto v = ring.pop();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, i);
    }
    EXPECT_FALSE(ring.pop().has_value());
}

TEST(RingBufferT, WrapsAround)
{
    RingBuffer<int> ring(3);
    ring.push(1);
    ring.push(2);
    ring.pop();
    ring.push(3);
    ring.push(4);
    EXPECT_EQ(*ring.pop(), 2);
    EXPECT_EQ(*ring.pop(), 3);
    EXPECT_EQ(*ring.pop(), 4);
    EXPECT_EQ(ring.pushed(), 4u);
}

// The storage grows with the occupancy, often while the queue wraps;
// a deque bounded by the same capacity must agree on every push
// outcome, every popped value and the counters.
TEST(RingBufferT, GrowingStorageMatchesBoundedQueue)
{
    for (std::size_t cap : {1u, 3u, 16u, 17u, 100u, 1000u}) {
        RingBuffer<int> ring(cap);
        std::deque<int> model;
        std::uint64_t drops = 0;
        Pcg32 rng(cap);
        int next = 0;
        for (int step = 0; step < 20000; ++step) {
            // Phases of mostly-push and mostly-pop fill and drain the
            // ring repeatedly at shifting head positions.
            bool filling = (step / 500) % 2 == 0;
            if (rng.below(4) < (filling ? 3u : 1u)) {
                bool fits = model.size() < cap;
                ASSERT_EQ(ring.push(next), fits) << "cap " << cap;
                if (fits)
                    model.push_back(next);
                else
                    ++drops;
                ++next;
            } else {
                auto v = ring.pop();
                ASSERT_EQ(v.has_value(), !model.empty()) << "cap " << cap;
                if (v) {
                    ASSERT_EQ(*v, model.front()) << "cap " << cap;
                    model.pop_front();
                }
            }
            ASSERT_EQ(ring.size(), model.size());
        }
        EXPECT_EQ(ring.dropped(), drops);
        EXPECT_EQ(ring.pushed(), static_cast<std::uint64_t>(next) - drops);
        EXPECT_EQ(ring.capacity(), cap);
    }
}

TEST(HmttTap, RecordsMcTraffic)
{
    mem::Dram dram(16);
    mem::MemCtrl mc(dram);
    Hmtt hmtt(dram);
    mc.attach(&hmtt);
    mc.demandRead(pageBase(Ppn{3}) + 64, Tick{1000});
    mc.writeback(pageBase(Ppn{4}), Tick{2000});
    EXPECT_EQ(hmtt.captured(), 2u);
    auto r1 = hmtt.ring().pop();
    ASSERT_TRUE(r1.has_value());
    EXPECT_FALSE(r1->isWrite);
    EXPECT_EQ(r1->ppn(), Ppn{3});
    EXPECT_EQ(r1->fullTime, Tick{1000});
    auto r2 = hmtt.ring().pop();
    ASSERT_TRUE(r2.has_value());
    EXPECT_TRUE(r2->isWrite);
}

TEST(HmttTap, ChargesTraceWriteBandwidth)
{
    mem::Dram dram(16);
    mem::MemCtrl mc(dram);
    Hmtt hmtt(dram);
    mc.attach(&hmtt);
    for (int i = 0; i < 10; ++i)
        mc.demandRead(PhysAddr{i * lineBytes}, Tick{});
    EXPECT_EQ(dram.traffic(mem::TrafficSource::TraceWrite), 80u);
}

TEST(HmttTap, SequenceNumbersWrapContinuously)
{
    mem::Dram dram(16);
    mem::MemCtrl mc(dram);
    HmttConfig cfg;
    cfg.ringCapacity = 1 << 12;
    Hmtt hmtt(dram, cfg);
    mc.attach(&hmtt);
    for (int i = 0; i < 300; ++i)
        mc.demandRead(PhysAddr{}, Tick{});
    std::uint8_t expect = 0;
    while (auto r = hmtt.ring().pop())
        EXPECT_EQ(r->seq, expect++);
}

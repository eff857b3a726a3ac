/**
 * @file
 * Unit tests for the prefetch execution engine (§III-F): dedup,
 * injection, adoption accounting, per-tier stats and policy feedback.
 */

#include <gtest/gtest.h>

#include "hopp/exec_engine.hh"
#include "prefetch/prefetcher.hh"
#include "vm/vms.hh"

using namespace hopp;
using namespace hopp::core;

namespace
{

class ExecTest : public ::testing::Test
{
  protected:
    static constexpr Pid pid{1};
    /// The one backend of a live pipeline.
    static constexpr CellMask cell0 = 1;

    ExecTest()
    {
        vm::VmsConfig vcfg;
        vcfg.kswapdEnabled = false;
        eq = std::make_unique<sim::EventQueue>();
        dram = std::make_unique<mem::Dram>(64);
        mc = std::make_unique<mem::MemCtrl>(*dram);
        llc = std::make_unique<mem::Llc>(mem::LlcConfig{64 << 10, 4});
        fabric =
            std::make_unique<net::RdmaFabric>(*eq, net::LinkConfig{});
        node = std::make_unique<remote::RemoteNode>(1 << 16);
        backend = std::make_unique<remote::SwapBackend>(*fabric, *node);
        vms = std::make_unique<vm::Vms>(*eq, *dram, *mc, *llc, *backend,
                                        vcfg);
        vms->createProcess(pid, 8);
        policy = std::make_unique<PolicyEngine>();
        exec = std::make_unique<ExecEngine>(*vms, *policy);
    }

    Duration
    touch(Vpn v, Tick now = Tick{})
    {
        return vms->access(pid, pageBase(v), false, now);
    }

    /** Touch pages [0, n), swapping out the early ones. */
    Tick
    fill(std::uint64_t n)
    {
        Tick t{};
        for (std::uint64_t v = 0; v < n; ++v)
            t += touch(Vpn{v}, t);
        return t;
    }

    std::unique_ptr<sim::EventQueue> eq;
    std::unique_ptr<mem::Dram> dram;
    std::unique_ptr<mem::MemCtrl> mc;
    std::unique_ptr<mem::Llc> llc;
    std::unique_ptr<net::RdmaFabric> fabric;
    std::unique_ptr<remote::RemoteNode> node;
    std::unique_ptr<remote::SwapBackend> backend;
    std::unique_ptr<vm::Vms> vms;
    std::unique_ptr<PolicyEngine> policy;
    std::unique_ptr<ExecEngine> exec;
};

} // namespace

TEST_F(ExecTest, IssuesInjectionForSwappedPage)
{
    Tick t = fill(9); // page 0 swapped out
    exec->request(pid, Vpn{0}, /*stream=*/7, Tier::Ssp, t, cell0);
    EXPECT_EQ(exec->tierStats(Tier::Ssp).issued, 1u);
    EXPECT_EQ(exec->outstanding(), 1u);
    eq->run();
}

TEST_F(ExecTest, DedupsResidentAndUntouchedPages)
{
    Tick t = fill(4);
    exec->request(pid, Vpn{2}, 7, Tier::Ssp, t, cell0);    // resident
    exec->request(pid, Vpn{9999}, 7, Tier::Ssp, t, cell0); // untouched
    EXPECT_EQ(exec->deduped(), 2u);
    EXPECT_EQ(exec->tierStats(Tier::Ssp).issued, 0u);
}

TEST_F(ExecTest, DedupsInflightRequests)
{
    Tick t = fill(9);
    exec->request(pid, Vpn{0}, 7, Tier::Ssp, t, cell0);
    exec->request(pid, Vpn{0}, 7, Tier::Ssp, t, cell0); // duplicate while in flight
    EXPECT_EQ(exec->deduped(), 1u);
    EXPECT_EQ(exec->tierStats(Tier::Ssp).issued, 1u);
    eq->run();
}

TEST_F(ExecTest, AdoptsSwapCachedPageInstantly)
{
    Tick t = fill(9);
    ASSERT_TRUE(vms->prefetchToSwapCache(pid, Vpn{0}, 2, t));
    eq->run();
    exec->request(pid, Vpn{0}, 7, Tier::Lsp, eq->now(), cell0);
    const auto &ts = exec->tierStats(Tier::Lsp);
    EXPECT_EQ(ts.issued, 1u);
    EXPECT_EQ(ts.completed, 1u); // instantly complete
    EXPECT_TRUE(vms->pageTable().present(pid, Vpn{0}));
    EXPECT_EQ(vms->stats().adoptions, 1u);
}

TEST_F(ExecTest, HitFeedsPolicyAndCountsPerTier)
{
    Tick t = fill(9);
    exec->request(pid, Vpn{0}, /*stream=*/42, Tier::Rsp, t, cell0);
    eq->run(); // injection completes
    // Wire the VMS listener path manually: first touch fires
    // onPrefetchHit, which the HoppSystem would route to exec->onHit.
    struct Router : vm::PageEventListener
    {
        ExecEngine *exec;
        void
        onPrefetchHit(Pid p, Vpn v, vm::Origin o, Tick r, Tick h,
                      bool) override
        {
            if (o == prefetch::origin::hopp)
                exec->onHit(p, v, r, h);
        }
    } router;
    router.exec = exec.get();
    vms->addListener(&router);
    touch(Vpn{0}, eq->now() + 1000); // immediate touch: T ~ 0 -> late
    EXPECT_EQ(exec->tierStats(Tier::Rsp).hits, 1u);
    EXPECT_EQ(exec->outstanding(), 0u);
    EXPECT_EQ(policy->stats().feedbacks, 1u);
    // One sample does not move the offset (epoch averaging), but it
    // is accumulated toward the next adjustment.
    EXPECT_DOUBLE_EQ(policy->offsetOf(42), 1.0);
}

TEST_F(ExecTest, EvictionCountsUnused)
{
    Tick t = fill(9);
    exec->request(pid, Vpn{0}, 7, Tier::Ssp, t, cell0);
    eq->run();
    struct Router : vm::PageEventListener
    {
        ExecEngine *exec;
        void
        onPrefetchEvicted(Pid p, Vpn v, vm::Origin o, Tick) override
        {
            if (o == prefetch::origin::hopp)
                exec->onEvicted(p, v);
        }
    } router;
    router.exec = exec.get();
    vms->addListener(&router);
    // Stream fresh pages so page 0 (injected, never touched) evicts.
    Tick now = eq->now();
    for (std::uint64_t v = 100; v < 130; ++v)
        now += touch(Vpn{v}, now);
    EXPECT_EQ(exec->tierStats(Tier::Ssp).evictedUnused, 1u);
    EXPECT_EQ(exec->outstanding(), 0u);
}

#include "runner/replay_engine.hh"

#include <bit>
#include <cstdio>
#include <iterator>

#include "vm/page.hh"

namespace hopp::runner
{

namespace
{

/**
 * The hardware half of a HoppConfig — everything that shapes the
 * shared frontend (and the drain schedule). Cells of one fan-out must
 * agree on all of it, or the "probe once, fan out hot pages" premise
 * breaks.
 */
bool
sameHardware(const core::HoppConfig &a, const core::HoppConfig &b)
{
    return a.hpd.sets == b.hpd.sets && a.hpd.ways == b.hpd.ways &&
           a.hpd.threshold == b.hpd.threshold &&
           a.rptCache.capacityBytes == b.rptCache.capacityBytes &&
           a.rptCache.ways == b.rptCache.ways &&
           a.rptCache.entryBytes == b.rptCache.entryBytes &&
           a.rptCache.missFillBytes == b.rptCache.missFillBytes &&
           a.channels == b.channels &&
           a.channelInterleaved == b.channelInterleaved &&
           a.scaleThresholdWithChannels ==
               b.scaleThresholdWithChannels &&
           a.ringCapacity == b.ringCapacity &&
           a.trainerDelay == b.trainerDelay &&
           a.evictionAdvisor == b.evictionAdvisor &&
           a.warmWindow == b.warmWindow &&
           a.warmEntriesCap == b.warmEntriesCap;
}

} // namespace

void
ReplayEngine::request(Pid pid, Vpn vpn, std::uint64_t, core::Tier,
                      Tick now, core::CellMask cells)
{
    oracleRequest(pid, vpn, now, cells);
}

unsigned
ReplayEngine::requestBatch(Pid pid, Vpn vpn, unsigned count,
                           std::uint64_t, core::Tier, Tick now,
                           core::CellMask cells)
{
    for (unsigned i = 0; i < count; ++i)
        oracleRequest(pid, vpn + i, now, cells);
    return count;
}

std::size_t
ReplayEngine::outstanding() const
{
    return cells_[0].outstanding;
}

ReplayEngine::ReplayEngine(const ReplayConfig &cfg)
    : ReplayEngine(std::vector<ReplayConfig>{cfg})
{
}

ReplayEngine::ReplayEngine(const std::vector<ReplayConfig> &cells)
    : dram_(/*frames=*/1),
      policy_([&cells] {
          hopp_assert(!cells.empty(), "need at least one replay cell");
          hopp_assert(cells.size() <= maxReplayCells,
                      "too many replay cells for one fan-out");
          return cells[0].hopp.policy;
      }()),
      pipeline_(eq_, dram_, policy_, *this, cells[0].hopp)
{
    cells_.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const ReplayConfig &c = cells[i];
        hopp_assert(sameHardware(cells[0].hopp, c.hopp),
                    "fan-out cells must share the hardware configuration");
        cells_.push_back(Cell{c.arrivalDelay, c.useWindow, {}});
        if (i != 0)
            pipeline_.addReplayBackend(c.hopp);
    }
}

std::uint32_t
ReplayEngine::probePage(std::uint64_t key)
{
    const std::size_t known = pages_.size();
    std::uint32_t &slot = pages_[key];
    if (pages_.size() != known) {
        slot = static_cast<std::uint32_t>(oracle_.size());
        // Geometric growth: one slot per distinct page, reaching the
        // trace's page count in O(log n) reallocations. hopp-analyze: allow(hotpath-alloc)
        oracle_.emplace_back();
    }
    return slot;
}

std::uint32_t
ReplayEngine::pageIndex(std::uint64_t key)
{
    // pages_ only ever grows and a page keeps its slot for the whole
    // run, so a memo hit is the answer the probe would give. The hit
    // path is kept apart from the probe so that it stays small enough
    // to inline into the per-cell request.
    PageMemo &memo =
        pageMemo_[(key ^ (key >> 48)) & (pageMemoSlots - 1)];
    if (memo.key != key || memo.slot == noSlot)
        memo = PageMemo{key, probePage(key)};
    return memo.slot;
}

std::uint32_t
ReplayEngine::takeBlock()
{
    if (!freeBlocks_.empty()) {
        std::uint32_t block = freeBlocks_.back();
        freeBlocks_.pop_back();
        return block;
    }
    const std::size_t width = cells_.size();
    auto block = static_cast<std::uint32_t>(ready_.size() / width);
    // Geometric growth: the ledger reaches the high-water count of
    // pages with a pending prediction in O(log n) reallocations, then
    // steady state recycles freed blocks. hopp-analyze: allow(hotpath-alloc)
    ready_.resize(ready_.size() + width);
    // The free list never holds more blocks than exist, so sizing it
    // with the ledger keeps every release allocation-free.
    freeBlocks_.reserve(ready_.capacity() / width);
    return block;
}

void
ReplayEngine::oracleRequest(Pid pid, Vpn vpn, Tick now,
                            core::CellMask cells)
{
    PageOracle &po = oracle_[pageIndex(vm::pageKey(pid, vpn))];
    if (po.pendingMask == 0)
        po.block = takeBlock();
    Tick *ready = &ready_[po.block * cells_.size()];
    // Cells already pending on the page are re-requesting it.
    const core::CellMask again = cells & po.pendingMask;
    po.pendingMask |= cells;
    for (core::CellMask m = cells; m != 0; m &= m - 1) {
        const auto i = static_cast<unsigned>(std::countr_zero(m));
        Cell &c = cells_[i];
        ++c.result.requested;
        if (again & (core::CellMask{1} << i)) {
            // Re-requesting a page whose prediction was never consumed
            // means the earlier prediction did not get used; charge it
            // now so the ledger cannot double-count one demand against
            // two requests.
            if (ready[i] != Tick{})
                ++c.result.unused;
        } else {
            ++c.outstanding;
        }
        ready[i] = now + c.arrivalDelay;
    }
}

void
ReplayEngine::oracleDemand(PageOracle &po, Tick now)
{
    std::uint32_t pending = po.pendingMask;
    if (pending != 0) {
        po.pendingMask = 0;
        const Tick *ready = &ready_[po.block * cells_.size()];
        // Only cells with a prediction outstanding on this page pay
        // anything here; per record, cells that did not predict it
        // cost nothing — that is the fan-out's scaling property.
        for (std::uint32_t m = pending; m != 0; m &= m - 1) {
            const auto i = static_cast<unsigned>(std::countr_zero(m));
            Cell &c = cells_[i];
            if (now < ready[i])
                ++c.result.late;
            else if (now - ready[i] <= c.useWindow)
                ++c.result.used;
            else
                ++c.result.unused;
            --c.outstanding;
        }
        freeBlocks_.push_back(po.block);
    }
    if (!po.seen) {
        po.seen = true;
        ++demandPages_;
        for (std::uint32_t m = pending; m != 0; m &= m - 1)
            ++cells_[std::countr_zero(m)].result.coveredPages;
    }
}

void
ReplayEngine::dispatch(const trace::ReplayRecord &r)
{
    switch (r.kind) {
      case trace::ReplayKind::Mc: {
        ++mcAccesses_;
        if (!r.isWrite) {
            const Ppn ppn = pageOf(r.pa);
            if (ppn != demandPpn_) {
                const std::uint32_t *page = shadow_.find(ppn.raw()); // hopp-analyze: allow(raw) map key
                demandPpn_ = ppn;
                demandSlot_ = page ? *page : noSlot;
            }
            if (demandSlot_ != noSlot)
                oracleDemand(oracle_[demandSlot_], r.tick);
        }
        pipeline_.onMcAccess(r.pa, r.isWrite, r.tick);
        break;
      }
      case trace::ReplayKind::PteInit:
        demandPpn_ = noPpn;
        // The recorder's initial page-table snapshot: build the RPT
        // directly, exactly as HoppSystem::start() does — NOT through
        // onPteSet, which would inflate RPT-cache update counters the
        // live run never charged.
        ++pteEvents_;
        pipeline_.rpt().store(
            r.ppn, core::RptEntry{r.pid, r.vpn, r.shared,
                                  static_cast<std::uint8_t>(
                                      r.huge ? 1 : 0)});
        shadow_[r.ppn.raw()] = pageIndex(vm::pageKey(r.pid, r.vpn)); // hopp-analyze: allow(raw) map key
        break;
      case trace::ReplayKind::PteSet:
        demandPpn_ = noPpn;
        ++pteEvents_;
        pipeline_.onPteSet(r.pid, r.vpn, r.ppn, r.shared, r.huge,
                           r.tick);
        shadow_[r.ppn.raw()] = pageIndex(vm::pageKey(r.pid, r.vpn)); // hopp-analyze: allow(raw) map key
        break;
      case trace::ReplayKind::PteClear:
        demandPpn_ = noPpn;
        ++pteEvents_;
        pipeline_.onPteClear(r.pid, r.vpn, r.ppn, r.tick);
        shadow_.erase(r.ppn.raw()); // hopp-analyze: allow(raw) map key
        break;
    }
    ++records_;
    lastTick_ = r.tick;
}

trace::TraceIoStatus
ReplayEngine::run(trace::TraceReader &reader)
{
    hopp_assert(!ran_, "ReplayEngine::run may only be called once");
    ran_ = true;
    // Batched decode mirroring AccessGenerator::nextBatch: one refill
    // amortizes the reader call over a block of records.
    trace::ReplayRecord block[512];
    std::size_t n;
    while ((n = reader.nextBatch(block, std::size(block))) != 0) {
        for (std::size_t i = 0; i < n; ++i) {
            const trace::ReplayRecord &r = block[i];
            // The live pump dispatches a due event before the access
            // when nextTime() <= the access tick (event-first on
            // ties); replay must interleave identically or trainer
            // drains shift relative to the access stream.
            while (eq_.nextTime() <= r.tick)
                eq_.runOne();
            dispatch(r);
        }
    }
    // End of trace: drain the queue (the live run's pump exits only
    // when no events remain).
    while (eq_.runOne()) {
    }
    for (Cell &cell : cells_) {
        ReplayResult &res = cell.result;
        res.records = records_;
        res.mcAccesses = mcAccesses_;
        res.pteEvents = pteEvents_;
        res.lastTick = lastTick_;
        res.demandPages = demandPages_;
        // Whatever is still outstanding was never consumed by a
        // demand.
        res.unused += cell.outstanding;
    }
    return reader.status();
}

std::string
ReplayEngine::mcStatsJson(std::size_t cell)
{
    return core::mcSideStatsJson(pipeline_, cell);
}

std::string
ReplayEngine::oracleJson(std::size_t cell) const
{
    const ReplayResult &result = cells_.at(cell).result;
    std::string out;
    char buf[128];
    auto put = [&](const char *key, std::uint64_t v) {
        std::snprintf(buf, sizeof(buf), "  \"%s\": %llu,\n", key,
                      static_cast<unsigned long long>(v));
        out += buf;
    };
    out += "{\n";
    put("replay_records", result.records);
    put("replay_mc_accesses", result.mcAccesses);
    put("replay_pte_events", result.pteEvents);
    put("replay_last_tick", result.lastTick.raw()); // hopp-analyze: allow(raw) stats boundary
    put("oracle_requested", result.requested);
    put("oracle_used", result.used);
    put("oracle_late", result.late);
    put("oracle_unused", result.unused);
    put("oracle_demand_pages", result.demandPages);
    put("oracle_covered_pages", result.coveredPages);
    std::snprintf(buf, sizeof(buf),
                  "  \"oracle_accuracy\": %.17g,\n"
                  "  \"oracle_coverage\": %.17g\n",
                  result.accuracy(), result.coverage());
    out += buf;
    out += "}\n";
    return out;
}

} // namespace hopp::runner

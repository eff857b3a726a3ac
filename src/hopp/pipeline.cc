#include "hopp/pipeline.hh"

#include <algorithm>
#include <cstdio>

#include "obs/blackbox.hh"
#include "obs/profiler.hh"
#include "vm/page.hh"

namespace hopp::core
{

HotPagePipeline::HotPagePipeline(sim::EventQueue &eq, mem::Dram &dram,
                                 PolicyEngine &policy,
                                 PrefetchSink &sink,
                                 const HoppConfig &cfg)
    : eq_(eq), dram_(dram), cfg_(cfg), ring_(cfg.ringCapacity),
      sink_(sink), trainer_(sink)
{
    trainer_.addBackend(policy, cfg_.stt, cfg_.tierMask, cfg_.batch,
                        cfg_.markov);
    hopp_assert(cfg_.channels >= 1, "need at least one channel");
    hopp_assert((cfg_.channels & (cfg_.channels - 1)) == 0,
                "channel count must be a power of two");
    HpdConfig hpd_cfg = cfg_.hpd;
    if (cfg_.channelInterleaved && cfg_.scaleThresholdWithChannels &&
        cfg_.channels > 1) {
        // §III-B: with interleaving every MC sees only 1/channels of a
        // page's lines, so N must shrink to keep extraction timely.
        hpd_cfg.threshold =
            std::max(1u, cfg_.hpd.threshold / cfg_.channels);
    }
    // Reserve up front: RptCache holds reference members, so it is
    // move-constructible but not assignable — the vectors must never
    // relocate after this.
    hpds_.reserve(cfg_.channels);
    rptCaches_.reserve(cfg_.channels);
    for (unsigned c = 0; c < cfg_.channels; ++c) {
        hpds_.emplace_back(hpd_cfg);
        rptCaches_.emplace_back(rpt_, dram, cfg_.rptCache);
    }
    warmPruneAt_ = cfg_.warmEntriesCap;
}

std::size_t
HotPagePipeline::addReplayBackend(const HoppConfig &soft)
{
    // The frontend must not have run yet: a backend attached after the
    // first extraction would miss hot pages a solo run of its cell
    // would have seen, silently breaking the fidelity contract.
    hopp_assert(hotPagesSeen_ == 0 && ring_.pushed() == 0,
                "backends must be attached before the first access");
    return trainer_.addBackend(trainer_.sharedPolicy(soft.policy),
                               soft.stt, soft.tierMask, soft.batch,
                               soft.markov);
}

HpdStats
HotPagePipeline::hpdTotals() const
{
    HpdStats total;
    for (const Hpd &h : hpds_) {
        const HpdStats &s = h.stats();
        total.reads += s.reads;
        total.writesIgnored += s.writesIgnored;
        total.hotPages += s.hotPages;
        total.suppressed += s.suppressed;
        total.evictions += s.evictions;
    }
    return total;
}

bool
HotPagePipeline::keepWarm(Pid pid, Vpn vpn, Tick now)
{
    // Recency alone would pin every page of a hot stream; require
    // *repeated* hotness within the window, which only reuse-heavy
    // pages (graph vertex sets, recursion working sets) exhibit.
    const Hotness *h = lastHot_.find(vm::pageKey(pid, vpn));
    if (!h)
        return false;
    return h->prev != Tick{} && now - h->last < cfg_.warmWindow &&
           h->last - h->prev < cfg_.warmWindow;
}

void
HotPagePipeline::onHotPage(unsigned channel, Ppn ppn, Tick now)
{
    auto entry = rptCaches_[channel].lookup(ppn);
    if (!entry) {
        // Frame not (or no longer) mapped: nothing to tell software.
        ++unmapped_;
        return;
    }
    HotPage hp;
    hp.pid = entry->pid;
    hp.vpn = entry->vpn;
    hp.ppn = ppn;
    hp.shared = entry->shared;
    hp.huge = entry->hugeBits != 0;
    hp.time = now;
    ring_.push(hp);
    ++hotPagesSeen_;
    if (trace_ && hotPagesSeen_ % 64 == 0) {
        trace_->counter("hopp", "hot_pages", now, hotPagesSeen_);
        trace_->counter("hopp", "rpt_unmapped", now, unmapped_);
        trace_->counter("hopp", "ring_occupancy", now, ring_.size());
    }
    dram_.recordTraffic(mem::TrafficSource::HotPageWrite,
                        hotPageRecordBytes);
    if (!drainScheduled_) {
        drainScheduled_ = true;
        Tick when = std::max(now, eq_.now()) + cfg_.trainerDelay;
        eq_.schedule(when, [this] { drainRing(); });
    }
}

void
HotPagePipeline::drainRing()
{
    HOPP_PROF(HoppDrain);
    drainScheduled_ = false;
    // The drain runs inside one event callback, so eq_.now() is fixed
    // for its duration and the B/E pair below is trivially balanced.
    std::uint64_t drained = ring_.size();
    if (drained != 0) {
        // Black box: one entry per drain batch (a = batch size).
        obs::blackbox().record(obs::BbKind::HoppDrain, eq_.now(), 0,
                               drained, 0);
    }
    if (trace_ && drained)
        trace_->begin("hopp", "trainer.drain", eq_.now(),
                      obs::track::hopp);
    while (auto hp = ring_.pop()) {
        if (cfg_.evictionAdvisor) {
            Hotness &h = lastHot_[vm::pageKey(hp->pid, hp->vpn)];
            h.prev = h.last;
            h.last = hp->time;
            if (lastHot_.size() >= warmPruneAt_)
                pruneWarm(eq_.now());
        }
        trainer_.onHotPage(*hp, eq_.now());
    }
    if (trace_ && drained) {
        trace_->end("hopp", "trainer.drain", eq_.now(),
                    obs::track::hopp);
        trace_->counter("hopp", "drain_batch", eq_.now(), drained);
        trace_->counter("hopp", "exec_outstanding", eq_.now(),
                        sink_.outstanding());
    }
}

void
HotPagePipeline::pruneWarm(Tick now)
{
    // Age-based prune (instead of a wholesale clear, which would
    // silently disable keepWarm for every stream at once): an entry
    // whose last hot extraction fell out of the warm window can never
    // satisfy keepWarm again until re-extracted, so dropping exactly
    // those is behaviour-preserving. One O(n) rebuild per pass.
    ++warmPrunePasses_;
    warmPruned_ += lastHot_.eraseIf(
        [this, now](std::uint64_t, const Hotness &h) {
            return now - h.last >= cfg_.warmWindow;
        });
    // If (nearly) everything is genuinely warm the table legitimately
    // exceeds the cap; back the next trigger off so a hot phase does
    // not rescan the table on every insertion.
    warmPruneAt_ = std::max(cfg_.warmEntriesCap, lastHot_.size() * 2);
}

void
HotPagePipeline::onPteSet(Pid pid, Vpn vpn, Ppn ppn, bool shared,
                          bool huge, Tick)
{
    RptEntry entry{pid, vpn, shared,
                   static_cast<std::uint8_t>(huge ? 1 : 0)};
    if (cfg_.channelInterleaved) {
        // Any channel's HPD can extract this page: every MC's RPT
        // cache receives the update.
        for (RptCache &cache : rptCaches_)
            cache.update(ppn, entry);
    } else {
        rptCaches_[channelOf(pageBase(ppn))].update(ppn, entry);
    }
}

void
HotPagePipeline::onPteClear(Pid, Vpn, Ppn ppn, Tick)
{
    if (cfg_.channelInterleaved) {
        for (unsigned c = 0; c < cfg_.channels; ++c) {
            rptCaches_[c].invalidate(ppn);
            // The frame will be recycled: a stale send bit must not
            // suppress hot-page detection of its next tenant.
            hpds_[c].invalidate(ppn);
        }
    } else {
        unsigned c = channelOf(pageBase(ppn));
        rptCaches_[c].invalidate(ppn);
        hpds_[c].invalidate(ppn);
    }
}

void
HotPagePipeline::resetStats()
{
    for (unsigned c = 0; c < cfg_.channels; ++c) {
        hpds_[c].resetStats();
        rptCaches_[c].resetStats();
    }
    trainer_.resetStats();
    ring_.resetStats();
    unmapped_ = 0;
    hotPagesSeen_ = 0;
    warmPruned_ = 0;
    warmPrunePasses_ = 0;
}

std::string
mcSideStatsJson(HotPagePipeline &p, std::size_t backend)
{
    std::string out;
    out.reserve(2048);
    char buf[96];
    auto put = [&](const char *key, std::uint64_t v, bool last = false) {
        std::snprintf(buf, sizeof(buf), "  \"%s\": %llu%s\n", key,
                      static_cast<unsigned long long>(v),
                      last ? "" : ",");
        out += buf;
    };
    out += "{\n";
    HpdStats hpd = p.hpdTotals();
    put("hpd_reads", hpd.reads);
    put("hpd_writes_ignored", hpd.writesIgnored);
    put("hpd_hot_pages", hpd.hotPages);
    put("hpd_suppressed", hpd.suppressed);
    put("hpd_evictions", hpd.evictions);
    for (unsigned c = 0; c < p.config().channels; ++c) {
        const RptCacheStats &rc = p.rptCache(c).stats();
        char key[64];
        auto putc = [&](const char *name, std::uint64_t v) {
            std::snprintf(key, sizeof(key), "rpt_cache.c%u.%s", c,
                          name);
            put(key, v);
        };
        putc("lookups", rc.lookups);
        putc("hits", rc.hits);
        putc("misses", rc.misses);
        putc("miss_unmapped", rc.missUnmapped);
        putc("updates", rc.updates);
        putc("invalidates", rc.invalidates);
        putc("writebacks", rc.writebacks);
    }
    put("ring_pushed", p.ring().pushed());
    put("ring_dropped", p.ring().dropped());
    const SttStats &stt = p.stt(backend).stats();
    put("stt_fed", stt.fed);
    put("stt_appended", stt.appended);
    put("stt_duplicates", stt.duplicates);
    put("stt_seeded", stt.seeded);
    put("stt_evicted", stt.evicted);
    put("stt_full_views", stt.fullViews);
    const TrainerStats &tr = p.trainer().stats(backend);
    put("trainer_hot_pages", tr.hotPages);
    put("trainer_pred_ssp", tr.predictions[0]);
    put("trainer_pred_lsp", tr.predictions[1]);
    put("trainer_pred_rsp", tr.predictions[2]);
    put("trainer_pred_mkv", tr.predictions[3]);
    put("trainer_no_pattern", tr.noPattern);
    put("unmapped_hot_pages", p.unmappedHotPages(), true);
    out += "}\n";
    return out;
}

} // namespace hopp::core

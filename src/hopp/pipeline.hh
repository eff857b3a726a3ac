/**
 * @file
 * The MC-side HoPP pipeline (Figure 4's hardware plane plus the
 * trainer): per-channel HPD tables and RPT caches tapped into the
 * memory-access stream, the reserved-DRAM hot-page ring, the STT, and
 * the training loop that turns hot pages into prefetch requests
 * through a PrefetchSink.
 *
 * Everything here is driven purely by (access, PTE-event, tick)
 * streams — there is no VMS reference — so the identical pipeline
 * serves both live simulation (HoppSystem feeds it from the machine's
 * MC and page-table hooks, ExecEngine as the sink) and trace replay
 * (ReplayEngine feeds it decoded records, an accounting sink). That
 * one-pipeline property is the replay fidelity contract: a recorded
 * stream replayed through this class reproduces the live run's
 * MC-side statistics byte for byte (DESIGN.md §15).
 */

#pragma once

#include <string>
#include <vector>

#include "common/flat_map.hh"
#include "hopp/hot_page.hh"
#include "hopp/hpd.hh"
#include "hopp/markov.hh"
#include "hopp/policy.hh"
#include "hopp/prefetch_sink.hh"
#include "hopp/rpt.hh"
#include "hopp/stt.hh"
#include "hopp/trainer.hh"
#include "mem/dram.hh"
#include "obs/tracer.hh"
#include "sim/event_queue.hh"

namespace hopp::core
{

/** Assembly-level configuration of the whole HoPP system. */
struct HoppConfig
{
    HpdConfig hpd;
    RptCacheConfig rptCache;
    SttConfig stt;
    PolicyConfig policy;

    /** Enabled prefetch tiers (Fig. 18-20 ablations). */
    unsigned tierMask = tiers::all;

    /**
     * Memory channels (§III-B "impact of multiple memory channels").
     * Each channel's MC carries its own HPD table and RPT cache; the
     * prefetch training framework merges (non-interleaved) or
     * de-duplicates (interleaved) their hot-page outputs.
     */
    unsigned channels = 1;

    /**
     * Interleaved channels: consecutive cachelines of a page live in
     * distinct channels, so each HPD sees only 64/channels lines of a
     * page — the paper notes N must shrink accordingly.
     */
    bool channelInterleaved = true;

    /**
     * Divide the HPD threshold by the channel count under
     * interleaving, as §III-B prescribes ("we need to reduce N").
     */
    bool scaleThresholdWithChannels = true;

    /** Huge-batch prefetching of long streams (§IV extension). */
    BatchConfig batch;

    /**
     * Correlation (Markov) tier parameters; enable it by adding
     * tiers::markov to tierMask. The §III-D "ML-based designs enabled
     * by full trace" direction.
     */
    MarkovConfig markov;

    /**
     * Use the hot-page trace to advise kernel reclaim (§IV: improving
     * page eviction with full memory traces).
     */
    bool evictionAdvisor = false;

    /** Pages hot within this window are kept from eviction. */
    Duration warmWindow = 2'000'000; // 2 ms

    /**
     * Advisor hotness-table size that triggers an age-based prune:
     * entries whose last hot extraction fell out of warmWindow are
     * dropped (they can no longer satisfy keepWarm), fresh ones
     * survive. Sized so prunes are rare outside adversarial sweeps.
     */
    std::size_t warmEntriesCap = 1 << 20;

    /** Latency from hot-page extraction to software processing. */
    Duration trainerDelay = 500;

    /** Hot-page ring capacity (reserved DRAM area). */
    std::size_t ringCapacity = 1 << 16;
};

/**
 * The MC-side pipeline: HPD → RPT cache → hot-page ring → STT →
 * trainer → PrefetchSink, plus the eviction-advisor hotness table.
 *
 * The pipeline splits along HoPP's own hardware/software boundary.
 * The *frontend* (per-channel HPD tables, the RPT and its caches, the
 * hot-page ring) is fixed hardware: its behaviour depends only on the
 * access/PTE stream and the hardware config. The *backend* (STT,
 * trainer, policy, sink) is the software half, held by one Trainer.
 * Because the frontend never observes the backend, one frontend can
 * feed several backends — that is how trace replay sweeps software
 * policies in a single pass over a recorded stream (addReplayBackend
 * below): every cell sees byte-identical frontend statistics, and each
 * cell's trainer stats match what a solo run of that cell would
 * produce. Each ring drain hands every hot page to the Trainer once;
 * it sends each distinct request once, with the CellMask of the
 * backends it serves (bit 0 alone in a live run).
 */
class HotPagePipeline
{
  public:
    /**
     * @p dram is charged the HoPP hardware traffic (hot-page ring
     * writes, RPT-cache fills and write-backs); @p policy and @p sink
     * are owned by the caller — the policy feedback loop (timeliness)
     * is live-simulation-only and deliberately outside the pipeline.
     */
    HotPagePipeline(sim::EventQueue &eq, mem::Dram &dram,
                    PolicyEngine &policy, PrefetchSink &sink,
                    const HoppConfig &cfg);

    // --- hardware data path -------------------------------------
    /**
     * Feed one MC access: steer it to its channel's HPD. Defined
     * inline — it runs behind every LLC miss, and only the rare
     * hot-page extraction leaves the header (onHotPage).
     */
    void
    onMcAccess(PhysAddr pa, bool is_write, Tick now)
    {
        const unsigned channel = channelOf(pa);
        if (auto hot = hpds_[channel].access(pa, is_write))
            onHotPage(channel, *hot, now);
    }

    // --- RPT maintenance (§V: set_pte_at / pte_clear) ------------
    void onPteSet(Pid pid, Vpn vpn, Ppn ppn, bool shared, bool huge,
                  Tick now);
    void onPteClear(Pid pid, Vpn vpn, Ppn ppn, Tick now);

    // --- trace-informed eviction advice (§IV) --------------------
    bool keepWarm(Pid pid, Vpn vpn, Tick now);

    /** Channel an MC access routes to. */
    unsigned
    channelOf(PhysAddr pa) const
    {
        if (cfg_.channels == 1)
            return 0;
        // Interleaved: consecutive cachelines round-robin the channels.
        // Non-interleaved: a whole page lives in one channel.
        // Channel steering hashes the line/frame number's low bits.
        std::uint64_t unit = cfg_.channelInterleaved
                                 ? lineOf(pa)
                                 : pageOf(pa).raw(); // hopp-analyze: allow(raw)
        return static_cast<unsigned>(unit & (cfg_.channels - 1));
    }

    /** Component access for tests and benches (channel 0 views). */
    Hpd &hpd() { return hpds_[0]; }
    Rpt &rpt() { return rpt_; }
    RptCache &rptCache() { return rptCaches_[0]; }

    /** Per-channel hardware (size = config().channels). */
    Hpd &hpd(unsigned channel) { return hpds_.at(channel); }
    RptCache &rptCache(unsigned channel)
    {
        return rptCaches_.at(channel);
    }

    /** Aggregate HPD statistics over all channels. */
    HpdStats hpdTotals() const;

    /** The configuration in effect. */
    const HoppConfig &config() const { return cfg_; }
    Stt &stt() { return stt(0); }
    /** The training loop of every backend (stats(i) per backend). */
    Trainer &trainer() { return trainer_; }
    HotPageRing &ring() { return ring_; }

    /**
     * Attach one more software backend to the shared hardware
     * frontend. @p soft supplies the software half of the cell's
     * configuration (stt, tierMask, batch, markov, policy); the
     * hardware half (hpd, rptCache, channels, ring) is fixed by this
     * pipeline and the caller must not vary it across cells. Every
     * ring drain feeds every backend, so each backend sees exactly
     * the hot-page stream a solo pipeline would. The backend reads its
     * offsets from Trainer::sharedPolicy — backend 0's engine when the
     * configs match — which marks that engine shared: feedback into
     * it panics, so replay backends only go on a pipeline whose policy
     * receives no timeliness feedback. Backends must be added before
     * the first access. @return backend index.
     */
    std::size_t addReplayBackend(const HoppConfig &soft);

    /** Number of software backends (1 unless fanned out). */
    std::size_t backendCount() const { return trainer_.backends(); }
    Stt &stt(std::size_t backend) { return trainer_.stt(backend); }

    /** Hot pages whose PPN the RPT could not map (dropped). */
    std::uint64_t unmappedHotPages() const { return unmapped_; }

    /** Live advisor hotness entries (gauge). */
    std::uint64_t warmEntriesLive() const { return lastHot_.size(); }

    /** Stale advisor entries aged out by pruning (counter). */
    std::uint64_t warmPruned() const { return warmPruned_; }

    /** Advisor prune passes executed (counter). */
    std::uint64_t warmPrunePasses() const { return warmPrunePasses_; }

    /**
     * Reset every statistic the pipeline owns: per-channel HPD and
     * RPT-cache counters, STT/trainer stats, ring drop counters, and
     * the unmapped/advisor-prune totals. Structural state — the RPT,
     * the advisor hotness table, stream state — is untouched:
     * resetting stats must not change simulated behaviour.
     */
    void resetStats();

    /**
     * Attach the flight recorder: ring-drain batch spans on the HoPP
     * software track, hot-page extraction counters and RPT-lookup
     * outcome counters. nullptr detaches.
     */
    void setTracer(obs::Tracer *tracer) { trace_ = tracer; }

  private:
    /** The HPD of @p channel extracted @p ppn: map it through the RPT
     *  cache, push it to the ring and schedule a drain. */
    void onHotPage(unsigned channel, Ppn ppn, Tick now);
    void drainRing();
    void pruneWarm(Tick now);

    sim::EventQueue &eq_;
    mem::Dram &dram_;
    HoppConfig cfg_;
    // By-value per-channel hardware: channel dispatch indexes straight
    // into contiguous storage instead of chasing unique_ptrs.
    std::vector<Hpd> hpds_;           // one per channel
    Rpt rpt_;
    std::vector<RptCache> rptCaches_; // one per MC
    HotPageRing ring_;
    PrefetchSink &sink_;
    Trainer trainer_;
    bool drainScheduled_ = false;
    std::uint64_t unmapped_ = 0;
    obs::Tracer *trace_ = nullptr;
    std::uint64_t hotPagesSeen_ = 0;

    /** Advisor state: last two hot-extraction times per page. */
    struct Hotness
    {
        Tick last;
        Tick prev;
    };

    /// Keyed by pageKey(pid, vpn); open-addressed so the per-hot-page
    /// advisor update is a flat probe, not a node allocation.
    FlatU64Map<Hotness> lastHot_;
    std::uint64_t warmPruned_ = 0;
    std::uint64_t warmPrunePasses_ = 0;
    /// Next prune trigger; starts at cfg_.warmEntriesCap and backs off
    /// when the table is genuinely warm (see pruneWarm).
    std::size_t warmPruneAt_ = 0;
};

/**
 * The MC-side statistics the replay fidelity contract covers, as a
 * deterministic flat JSON document: HPD totals, per-channel RPT-cache
 * counters, ring, STT, trainer predictions (batchesIssued excluded —
 * it depends on VMS bundling feedback), and the unmapped-drop count.
 * A recorded run and its replay must produce byte-identical output.
 * @p backend selects the software cell: the frontend keys are shared
 * (byte-identical across cells by construction); the STT/trainer keys
 * come from that cell.
 */
std::string mcSideStatsJson(HotPagePipeline &p,
                            std::size_t backend = 0);

} // namespace hopp::core

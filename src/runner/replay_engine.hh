/**
 * @file
 * Trace-driven replay (ROADMAP item 4): drive the MC-side HoPP
 * pipeline straight from a recorded (or imported) trace — no workload
 * generation, no VMS, no page walk — so one captured scenario can be
 * swept against many policy configurations at memory speed.
 *
 * Fidelity contract (DESIGN.md §15): for the stats the pipeline owns
 * (HPD, RPT cache, ring, STT, trainer predictions, unmapped drops) a
 * replayed trace reproduces the recording run byte for byte — the
 * pipeline is the same class, fed the same (access, PTE, tick) stream
 * with the same event/record interleaving rule as Machine::pump.
 * Prefetch *execution* has no VMS behind it here, so the engine
 * instead keeps an oracle ledger: what the trainer asked for, and
 * whether a later demand read in the trace touched the predicted page
 * (approximate accuracy/coverage, standard stats JSON).
 *
 * Policy fan-out: an engine built from several ReplayConfigs that
 * share the hardware half (HPD geometry/threshold, RPT cache,
 * channels, ring, trainer delay) replays all of them in ONE pass —
 * the decode and the per-access HPD/RPT frontend are paid once, and
 * each hot page goes to one Trainer that serves every cell
 * (HotPagePipeline::addReplayBackend). Per cell, both the MC-side
 * stats document and the oracle ledger are byte-identical to a solo
 * replay of that cell; the per-record cost of an extra cell is zero.
 * Cells only pay per hot page and per prediction, and even there the
 * work that does not depend on the cell is shared: the STT feed and
 * tier results once per distinct STT config, the correlation table
 * once per distinct Markov config, and each request once per group of
 * cells that would send it — the trainer hands the engine, which is
 * the pipeline's PrefetchSink, one request with a CellMask, and the
 * ledger updates every masked cell's arrival tick and counters in one
 * loop over the mask. Each page lookup is paid once per distinct page
 * or frame, not once per cell or per record: a direct-mapped memo in
 * front of the page table answers repeated requests for a page, and a
 * run of demand reads of one frame shares one shadow probe (DESIGN.md
 * §15 gives the exactness argument for each). This is what makes a
 * software-policy sweep run at memory speed rather than at simulation
 * speed.
 */

#pragma once

#include <string>
#include <vector>

#include "hopp/pipeline.hh"
#include "trace/trace_file.hh"

namespace hopp::runner
{

/** Replay-run configuration: the pipeline plus the oracle model. */
struct ReplayConfig
{
    /** The HoPP configuration under evaluation. */
    core::HoppConfig hopp;

    /**
     * Modeled prefetch arrival latency: a prediction counts as timely
     * only for demand reads at least this much later (a stand-in for
     * the fabric transfer the live ExecEngine would have issued).
     */
    Duration arrivalDelay = 8'300;

    /** A prediction unused for this long no longer counts as a hit. */
    Duration useWindow = 5'000'000;
};

/** Outcome of one replay. */
struct ReplayResult
{
    std::uint64_t records = 0;
    std::uint64_t mcAccesses = 0;
    std::uint64_t pteEvents = 0;
    Tick lastTick;

    // Oracle prefetch ledger (see file comment).
    std::uint64_t requested = 0; //!< pages the trainer asked for
    std::uint64_t used = 0;      //!< demanded within the use window
    std::uint64_t late = 0;      //!< demanded before modeled arrival
    std::uint64_t unused = 0;    //!< stale or never demanded
    std::uint64_t demandPages = 0;  //!< distinct mapped pages read
    std::uint64_t coveredPages = 0; //!< first read preceded by request

    double
    accuracy() const
    {
        return requested ? static_cast<double>(used) /
                               static_cast<double>(requested)
                         : 0.0;
    }

    double
    coverage() const
    {
        return demandPages ? static_cast<double>(coveredPages) /
                                 static_cast<double>(demandPages)
                           : 0.0;
    }
};

/** Fan-out width limit (one CellMask bit per cell). */
inline constexpr std::size_t maxReplayCells = core::maxBackends;

/**
 * One replay run: owns its own event queue, a traffic-accounting DRAM
 * shell, and the HotPagePipeline under test; with several cells, one
 * shared frontend, one software backend per cell, and one oracle
 * ledger the cells' grouped requests update by CellMask. The engine
 * is the pipeline's PrefetchSink.
 */
class ReplayEngine final : private core::PrefetchSink
{
  public:
    ReplayEngine() : ReplayEngine(ReplayConfig{}) {}
    explicit ReplayEngine(const ReplayConfig &cfg);

    /**
     * Fan-out constructor: every cell must share the hardware half of
     * the configuration with cells[0] (asserted); the software half
     * (tierMask, batch, markov, stt, policy, oracle windows) may vary
     * freely.
     */
    explicit ReplayEngine(const std::vector<ReplayConfig> &cells);

    /**
     * Replay every record @p reader yields. May be called once per
     * engine. @return the reader's final status: Ok means the whole
     * trace was consumed.
     */
    trace::TraceIoStatus run(trace::TraceReader &reader);

    /** The pipeline under test (for stats extraction). */
    core::HotPagePipeline &pipeline() { return pipeline_; }

    /** HoPP hardware DRAM traffic accounting (ring + RPT). */
    mem::Dram &dram() { return dram_; }

    /** Number of policy cells sharing the frontend. */
    std::size_t cells() const { return cells_.size(); }

    /** Replay counters and oracle metrics for one cell. */
    const ReplayResult &result(std::size_t cell = 0) const
    {
        return cells_.at(cell).result;
    }

    /**
     * The MC-side fidelity-contract document for one cell —
     * byte-identical to `hopp-run --mc-stats-json` for the run that
     * recorded the trace (DESIGN.md §15), and to a solo replay of the
     * cell's configuration when fanned out.
     */
    std::string mcStatsJson(std::size_t cell = 0);

    /** The oracle accuracy/coverage block as one JSON object. */
    std::string oracleJson(std::size_t cell = 0) const;

  private:
    // PrefetchSink: a group of cells' trainer requests land here.
    void request(Pid pid, Vpn vpn, std::uint64_t stream_id,
                 core::Tier tier, Tick now,
                 core::CellMask cells) override;
    unsigned requestBatch(Pid pid, Vpn vpn, unsigned count,
                          std::uint64_t stream_id, core::Tier tier,
                          Tick now, core::CellMask cells) override;
    /** Cell 0's pages with an un-demanded prediction. */
    std::size_t outstanding() const override;

    /** Per-cell oracle windows and counters, kept by value. */
    struct Cell
    {
        Duration arrivalDelay;
        Duration useWindow;
        ReplayResult result;
        /// Pages with an un-demanded prediction of this cell.
        std::uint64_t outstanding = 0;
    };

    /**
     * Shared per-page oracle state: which cells have a pending
     * prediction (so a demand read probes only flagged cells), where
     * their modeled arrival ticks live, and whether the page already
     * counted toward demandPages.
     */
    struct PageOracle
    {
        std::uint32_t pendingMask = 0;
        /// Block of ready_ holding the arrival ticks, one per cell;
        /// owned by the page while pendingMask != 0.
        std::uint32_t block = 0;
        bool seen = false;
    };

    void dispatch(const trace::ReplayRecord &r);
    /** Record a prediction of (pid, vpn) for every cell in @p cells. */
    void oracleRequest(Pid pid, Vpn vpn, Tick now, core::CellMask cells);
    void oracleDemand(PageOracle &po, Tick now);
    /** The oracle_ slot of @p key, appended on its first sight. */
    std::uint32_t pageIndex(std::uint64_t key);
    /** pageIndex() behind a pageMemo_ miss: the pages_ probe. */
    std::uint32_t probePage(std::uint64_t key);
    /** A ready_ block for a page whose first prediction arrived. */
    std::uint32_t takeBlock();

    sim::EventQueue eq_;
    /// Traffic accounting only — no frame is ever allocated from it.
    mem::Dram dram_;
    /// Cell 0's offsets; never fed back, so the other cells' backends
    /// share it when their PolicyConfig matches.
    core::PolicyEngine policy_;
    std::vector<Cell> cells_;
    core::HotPagePipeline pipeline_;

    // Stream-level counters (identical for every cell; copied into
    // each cell's result when the run finishes).
    std::uint64_t records_ = 0;
    std::uint64_t mcAccesses_ = 0;
    std::uint64_t pteEvents_ = 0;
    std::uint64_t demandPages_ = 0;
    Tick lastTick_;

    static constexpr std::uint32_t noSlot = ~std::uint32_t{0};
    static constexpr Ppn noPpn{~std::uint64_t{0}};

    /// ppn -> oracle_ slot of the page mapped there: a shadow of the
    /// replayed mappings the oracle uses (not the lazily written-back
    /// Rpt) to resolve demand reads.
    FlatU64Map<std::uint32_t> shadow_;
    /// The last demand read's shadow_ answer: its ppn and the slot
    /// mapped there (noSlot when unmapped). Consecutive reads mostly
    /// hit one frame, so they share one probe. Every PTE record can
    /// change shadow_ and resets it to noPpn.
    Ppn demandPpn_ = noPpn;
    std::uint32_t demandSlot_ = noSlot;
    /// pageKey -> oracle_ slot, for trainer requests.
    FlatU64Map<std::uint32_t> pages_;
    /// A direct-mapped, L1-resident memo of pages_ (16 KB), indexed by
    /// the low key bits folded with the pid: every cell that requests
    /// a page after the first finds its slot here.
    struct PageMemo
    {
        std::uint64_t key = 0;
        std::uint32_t slot = noSlot;
    };
    static constexpr std::size_t pageMemoSlots = 1024;
    std::vector<PageMemo> pageMemo_ =
        std::vector<PageMemo>(pageMemoSlots);
    /// Shared per-page oracle state in first-sight order: a demand
    /// read costs one shadow_ probe and one indexed load, and pages
    /// mapped or predicted together sit side by side.
    std::vector<PageOracle> oracle_;
    /// The cell-major ledger: cells() modeled arrival ticks per block,
    /// one block per page with a pending prediction. A tick is
    /// meaningful only while its cell's pendingMask bit is set.
    std::vector<Tick> ready_;
    /// Blocks released by demand reads, reused before ready_ grows.
    std::vector<std::uint32_t> freeBlocks_;
    bool ran_ = false;
};

} // namespace hopp::runner

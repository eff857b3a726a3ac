/**
 * @file
 * Prefetch training framework (§III-D): consumes the hot-page records
 * the MC hardware deposits in reserved DRAM, clusters them into
 * streams via the STT, runs the enabled prefetch tiers, and forwards
 * policy-expanded prefetch requests to the execution engine.
 *
 * One Trainer runs the training loop of every software backend of a
 * pipeline: one backend in a live run, one per policy cell in a
 * replay fan-out. Per hot page it does each distinct piece of work
 * once: one STT feed and tier scan per distinct SttConfig, one table
 * update per distinct MarkovConfig, and one request list per group of
 * backends that would emit the same list, sent once with the mask of
 * the backends it serves (DESIGN.md §15 lists the grouping keys and
 * why each is exact).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_map.hh"
#include "hopp/algorithms.hh"
#include "hopp/hot_page.hh"
#include "hopp/markov.hh"
#include "hopp/policy.hh"
#include "hopp/prefetch_sink.hh"
#include "hopp/stt.hh"

namespace hopp::core
{

/** Trainer counters. */
struct TrainerStats
{
    std::uint64_t hotPages = 0;
    std::uint64_t predictions[tierCount] = {}; //!< per tier
    std::uint64_t noPattern = 0;
    std::uint64_t batchesIssued = 0;

    std::uint64_t
    totalPredictions() const
    {
        std::uint64_t sum = 0;
        for (auto p : predictions)
            sum += p;
        return sum;
    }
};

/**
 * Huge-batch prefetching (§IV): once a simple stream has proven long,
 * swap many consecutive future pages in a single request instead of
 * page-by-page, amortizing the per-transfer latency — the software
 * side of the paper's 2 MB-reservation direction.
 */
struct BatchConfig
{
    bool enabled = false;

    /** Pages bundled per batch request (the paper suggests 512). */
    unsigned batchPages = 64;

    /** Stream length (pages) before batching kicks in. */
    std::uint64_t minStreamLen = 192;

    /** Issue a batch every this many hot pages of the stream. */
    unsigned everyHotPages = 32;

    bool operator==(const BatchConfig &) const = default;
};

/**
 * The software training loop of every backend of one pipeline.
 *
 * A backend is one software configuration: STT geometry, tier mask,
 * huge-batch and Markov parameters, and the policy engine its offsets
 * come from. Backends are grouped statically when attached — by STT
 * config, then by (policy engine, batch config) for the tier path and
 * by (Markov table, policy engine) for the correlation path — and
 * dynamically per hot page by the tier each one resolves, so every
 * request goes out once per group with the group's CellMask.
 */
class Trainer
{
  public:
    explicit Trainer(PrefetchSink &sink) : sink_(sink) {}

    /**
     * Attach one backend; @return its index (its bit in every
     * CellMask). Backends given the same @p policy engine read the
     * same offsets and so may share requests. Backends must all be
     * attached before the first hot page.
     */
    std::size_t addBackend(PolicyEngine &policy, const SttConfig &stt,
                           unsigned tier_mask, const BatchConfig &batch,
                           const MarkovConfig &markov);

    /**
     * The engine a backend that receives no timeliness feedback reads
     * its offsets from: an attached engine with configuration @p cfg,
     * else a new one owned here. Without feedback an engine's offsets
     * depend only on its configuration, so sharing it is exact; the
     * engine is marked shared, and feedback into it panics.
     */
    PolicyEngine &sharedPolicy(const PolicyConfig &cfg);

    /**
     * Process one hot-page record for every backend: feed each
     * distinct STT and train each distinct correlation table once,
     * then send each distinct request list once.
     */
    void onHotPage(const HotPage &hp, Tick now);

    /** Number of backends. */
    std::size_t backends() const { return backends_.size(); }

    /** Counters of one backend. */
    const TrainerStats &
    stats(std::size_t backend = 0) const
    {
        return backends_.at(backend).stats;
    }

    /** The STT one backend reads (shared by equal SttConfigs). */
    Stt &
    stt(std::size_t backend = 0)
    {
        return *sttGroups_[backends_.at(backend).sttGroup].stt;
    }

    /** Zero every backend's counters and the STT counters. */
    void resetStats();

  private:
    /** One software cell: its STT group and counters. */
    struct Backend
    {
        std::size_t sttGroup;
        TrainerStats stats;
    };

    /** The backends of an STT group whose three-tier mask is @c mask. */
    struct MaskCells
    {
        unsigned mask;
        CellMask cells;
    };

    /**
     * Backends of one STT group with the same policy engine and the
     * same effective batch config (disabled unless SSP is enabled):
     * those that resolve the same tier on a hot page emit the same
     * requests. The huge-batch countdowns are shared too: every
     * member with batching on has SSP enabled, so all of them issue
     * batches on exactly the hot pages SSP identifies, with the same
     * view, prediction, offset and sink answer — one countdown
     * evolves as each private one would.
     */
    struct TierClass
    {
        PolicyEngine *policy;
        BatchConfig batch;
        CellMask cells = 0;
        FlatU64Map<std::uint64_t> batchCountdown;
    };

    /**
     * One shared stream table: backends whose SttConfigs are equal see
     * byte-identical STT behaviour on the shared hot-page stream, so
     * they share one table and the per-hot-page clustering scan runs
     * once per distinct config. The memo holds the feed result for the
     * current hot page and the tier results computed on it so far:
     * each tier runs at most once per hot page for the whole group.
     */
    struct SttGroup
    {
        SttConfig cfg;
        std::unique_ptr<Stt> stt;
        TierMemo tiers;
        CellMask cells = 0;      //!< every backend of the group
        CellMask noTierCells = 0; //!< backends with no three-tier bit
        std::vector<MaskCells> masks;
        std::vector<TierClass> classes;
    };

    /**
     * One shared correlation table per distinct MarkovConfig, with the
     * per-PID last hot page it learns transitions from. Training reads
     * only the hot-page stream, and prediction only peeks, so every
     * backend of the group reads exactly the table a private copy
     * would hold; it is trained once per hot page, before any request.
     */
    struct MarkovGroup
    {
        MarkovConfig cfg;
        std::unique_ptr<MarkovTable> table;
        /// Keyed by the raw pid.
        FlatU64Map<Vpn> lastHot;

        /** Learn the transition into @p hp of its pid's sequence. */
        void train(const HotPage &hp);
    };

    /** Markov backends sharing one table and one policy engine. */
    struct MarkovClass
    {
        MarkovTable *table;
        PolicyEngine *policy;
        CellMask cells = 0;
    };

    /** The group serving @p cfg, created if new. */
    std::size_t sttGroupFor(const SttConfig &cfg);

    /** The shared table serving @p cfg, created if new. */
    MarkovTable &markovTableFor(const MarkovConfig &cfg);

    /** Tier-path requests of @p cells, which resolved @p pred. */
    void serveTier(TierClass &c, const StreamView &view,
                   const Prediction &pred, const HotPage &hp, Tick now,
                   CellMask cells);

    /** Issue a huge batch for long unit-stride simple streams.
     *  @return true when a batch went out. */
    bool maybeBatch(TierClass &c, const StreamView &view,
                    const Prediction &pred, Tick now, CellMask cells);

    /**
     * Correlation-path requests of @p cells: chase the learned
     * successor chain as deep as the policy offset asks. Cells in
     * @p viewed had a stream view, so a miss counts as no pattern.
     */
    void serveMarkov(const MarkovClass &c, const HotPage &hp, Tick now,
                     CellMask cells, CellMask viewed);

    PrefetchSink &sink_;
    std::vector<Backend> backends_;
    std::vector<SttGroup> sttGroups_;
    std::vector<MarkovGroup> markovGroups_;
    std::vector<MarkovClass> markovClasses_;
    CellMask markovCells_ = 0; //!< backends with the Markov tier
    /// Every engine a backend reads; owned_ holds those made here.
    std::vector<PolicyEngine *> policies_;
    std::vector<std::unique_ptr<PolicyEngine>> owned_;
};

} // namespace hopp::core

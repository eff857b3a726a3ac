/**
 * @file
 * Prefetch training framework (§III-D): consumes the hot-page records
 * the MC hardware deposits in reserved DRAM, clusters them into
 * streams via the STT, runs the enabled prefetch tiers, and forwards
 * policy-expanded prefetch requests to the execution engine.
 */

#pragma once

#include <cstdint>

#include "common/flat_map.hh"
#include "common/logging.hh"
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
};

/**
 * The software training loop of one policy cell. Everything it reads
 * per hot page that does not depend on the cell is computed once by
 * the pipeline and shared: the STT feed and the tier results (a
 * TierMemo per distinct STT config), and the trained correlation
 * table (one MarkovTable per distinct MarkovConfig, see
 * HotPagePipeline). The trainer keeps only cell-private state: the
 * counters and the huge-batch countdowns.
 */
class Trainer
{
  public:
    /**
     * @p markov is the shared, already-trained correlation table, or
     * nullptr when @p tier_mask lacks tiers::markov.
     */
    Trainer(PolicyEngine &policy, PrefetchSink &exec,
            unsigned tier_mask = tiers::all, BatchConfig batch = {},
            MarkovTable *markov = nullptr)
        : policy_(policy), exec_(exec), tierMask_(tier_mask),
          batch_(batch), markov_(markov)
    {
        hopp_assert((markov_ != nullptr) ==
                        ((tierMask_ & tiers::markov) != 0),
                    "the Markov tier needs a table, and only it");
    }

    /**
     * Process one hot-page record. The STT feed already happened:
     * @p memo holds its view and the tier results computed so far,
     * and the correlation table already learned this hot page.
     * Identical to feeding a private STT, running runThreeTier on the
     * view and training a private table first.
     */
    void
    onHotPage(const HotPage &hp, TierMemo &memo, Tick now)
    {
        ++stats_.hotPages;
        const std::optional<StreamView> &view = memo.view();
        if (!view) {
            // No stream context yet; the correlation tier can still
            // act on a learned transition.
            if (markov_)
                predictMarkov(hp, now);
            return;
        }
        auto pred = memo.runThreeTier(tierMask_);
        if (!pred) {
            if (markov_ && predictMarkov(hp, now))
                return;
            ++stats_.noPattern;
            return;
        }
        ++stats_.predictions[static_cast<unsigned>(pred->tier)];
        if (batch_.enabled) {
            // Supplemental far-ahead coverage; the per-page path below
            // still serves the near window (batched pages dedup).
            maybeBatch(*view, *pred, now);
        }
        for (std::uint64_t off : policy_.offsets(view->streamId)) {
            if (auto target = pred->target(off)) {
                exec_.request(hp.pid, *target, view->streamId,
                              pred->tier, now);
            }
        }
    }

    /** Counters. */
    const TrainerStats &stats() const { return stats_; }

    /** Zero the counters. */
    void resetStats() { stats_ = TrainerStats{}; }

    /** Enabled tiers. */
    unsigned tierMask() const { return tierMask_; }

  private:
    /** Issue a huge batch for long unit-stride simple streams. */
    void
    maybeBatch(const StreamView &view, const Prediction &pred, Tick now)
    {
        if (pred.tier != Tier::Ssp ||
            (pred.step != 1 && pred.step != -1) ||
            view.length < batch_.minStreamLen) {
            return;
        }
        std::uint64_t &countdown = batchCountdown_[view.streamId];
        if (countdown > 0) {
            --countdown;
            return; // a recent batch still covers the far window
        }
        // A batch's data arrives only after the whole bundle
        // serializes, so it must start at least one batch-width ahead
        // of the consumption front or its leading pages arrive late.
        std::uint64_t off = std::max<std::uint64_t>(
            policy_.offsets(view.streamId).front(),
            batch_.batchPages);
        auto start = pred.target(off);
        if (!start)
            return;
        Vpn first = pred.step > 0
                        ? *start
                        : (*start - Vpn{} >= batch_.batchPages - 1
                               ? *start - (batch_.batchPages - 1)
                               : Vpn{});
        unsigned bundled = exec_.requestBatch(
            view.pid, first, batch_.batchPages, view.streamId,
            Tier::Ssp, now);
        if (bundled == 0)
            return;
        ++stats_.batchesIssued;
        countdown = batch_.everyHotPages;
        if (batchCountdown_.size() > 4096)
            batchCountdown_.clear();
    }

    /**
     * Correlation-tier prediction: chase the learned successor chain
     * as deep as the stream-agnostic policy offset asks.
     * @return true when at least one target was requested.
     */
    bool
    predictMarkov(const HotPage &hp, Tick now)
    {
        // The correlation tier has no STT stream; key the policy
        // offset on a per-PID pseudo-stream and chase the successor
        // chain as deep as the adaptive offset asks.
        // Pseudo-stream id packing. hopp-analyze: allow(raw)
        std::uint64_t stream_id = (1ull << 62) | hp.pid.raw();
        auto depth = static_cast<unsigned>(std::min<std::uint64_t>(
            16, std::max<std::uint64_t>(
                    2, policy_.offsets(stream_id).front())));
        auto targets = markov_->predict(hp.pid, hp.vpn, depth);
        if (targets.empty())
            return false;
        ++stats_.predictions[static_cast<unsigned>(Tier::Mkv)];
        for (Vpn t : targets)
            exec_.request(hp.pid, t, stream_id, Tier::Mkv, now);
        return true;
    }

    PolicyEngine &policy_;
    PrefetchSink &exec_;
    unsigned tierMask_;
    BatchConfig batch_;
    MarkovTable *markov_;
    FlatU64Map<std::uint64_t> batchCountdown_;
    TrainerStats stats_;
};

} // namespace hopp::core


#include "hopp/trainer.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace hopp::core
{

namespace
{

/** Call @p fn with the index of every backend in @p cells. */
template <typename Fn>
void
forEachCell(CellMask cells, Fn &&fn)
{
    for (; cells != 0; cells &= cells - 1)
        fn(static_cast<unsigned>(std::countr_zero(cells)));
}

} // namespace

std::size_t
Trainer::sttGroupFor(const SttConfig &cfg)
{
    for (std::size_t i = 0; i < sttGroups_.size(); ++i) {
        if (sttGroups_[i].cfg == cfg)
            return i;
    }
    SttGroup g;
    g.cfg = cfg;
    g.stt = std::make_unique<Stt>(cfg);
    sttGroups_.push_back(std::move(g));
    return sttGroups_.size() - 1;
}

MarkovTable &
Trainer::markovTableFor(const MarkovConfig &cfg)
{
    for (MarkovGroup &g : markovGroups_) {
        if (g.cfg == cfg)
            return *g.table;
    }
    markovGroups_.push_back(
        MarkovGroup{cfg, std::make_unique<MarkovTable>(cfg), {}});
    return *markovGroups_.back().table;
}

void
Trainer::MarkovGroup::train(const HotPage &hp)
{
    const std::size_t known = lastHot.size();
    Vpn &last = lastHot[hp.pid.raw()]; // hopp-analyze: allow(raw) map key
    if (lastHot.size() == known && last != hp.vpn)
        table->train(hp.pid, last, hp.vpn);
    last = hp.vpn;
}

PolicyEngine &
Trainer::sharedPolicy(const PolicyConfig &cfg)
{
    auto p = std::find_if(policies_.begin(), policies_.end(),
                          [&cfg](const PolicyEngine *e) {
                              return e->config() == cfg;
                          });
    if (p == policies_.end()) {
        owned_.push_back(std::make_unique<PolicyEngine>(cfg));
        p = policies_.insert(p, owned_.back().get());
    }
    (*p)->markShared();
    return **p;
}

std::size_t
Trainer::addBackend(PolicyEngine &policy, const SttConfig &stt,
                    unsigned tier_mask, const BatchConfig &batch,
                    const MarkovConfig &markov)
{
    hopp_assert(backends_.size() < maxBackends,
                "too many backends for one cell mask");
    const std::size_t index = backends_.size();
    const CellMask bit = CellMask{1} << index;
    if (std::find(policies_.begin(), policies_.end(), &policy) ==
        policies_.end())
        policies_.push_back(&policy);

    const std::size_t group = sttGroupFor(stt);
    SttGroup &g = sttGroups_[group];
    g.cells |= bit;
    const unsigned three = tier_mask & tiers::all;
    if (three == 0) {
        g.noTierCells |= bit;
    } else {
        auto m = std::find_if(
            g.masks.begin(), g.masks.end(),
            [three](const MaskCells &mc) { return mc.mask == three; });
        if (m == g.masks.end())
            m = g.masks.insert(m, MaskCells{three, 0});
        m->cells |= bit;
        // Batching acts only on SSP predictions: without SSP the
        // batch config cannot change a request.
        const BatchConfig effective =
            batch.enabled && (three & tiers::ssp) ? batch : BatchConfig{};
        auto c = std::find_if(
            g.classes.begin(), g.classes.end(),
            [&](const TierClass &tc) {
                return tc.policy == &policy && tc.batch == effective;
            });
        if (c == g.classes.end())
            c = g.classes.insert(c, TierClass{&policy, effective, 0, {}});
        c->cells |= bit;
    }

    if (tier_mask & tiers::markov) {
        MarkovTable *table = &markovTableFor(markov);
        auto c = std::find_if(
            markovClasses_.begin(), markovClasses_.end(),
            [&](const MarkovClass &mc) {
                return mc.table == table && mc.policy == &policy;
            });
        if (c == markovClasses_.end())
            c = markovClasses_.insert(c, MarkovClass{table, &policy, 0});
        c->cells |= bit;
        markovCells_ |= bit;
    }
    backends_.push_back(Backend{group, {}});
    return index;
}

void
Trainer::onHotPage(const HotPage &hp, Tick now)
{
    for (Backend &b : backends_)
        ++b.stats.hotPages;
    for (MarkovGroup &m : markovGroups_)
        m.train(hp);
    CellMask markov = 0; // backends taking the correlation path
    CellMask viewed = 0; // backends whose STT group had a stream view
    for (SttGroup &g : sttGroups_) {
        g.tiers.reset(g.stt->feed(hp.pid, hp.vpn));
        const std::optional<StreamView> &view = g.tiers.view();
        if (!view) {
            // No stream context yet; the correlation tier can still
            // act on a learned transition.
            markov |= g.cells & markovCells_;
            continue;
        }
        viewed |= g.cells;
        // Resolve every backend's tier: one memo query per distinct
        // three-tier mask, whatever the number of backends.
        CellMask resolved[3] = {};
        std::optional<Prediction> preds[3];
        CellMask unresolved = g.noTierCells;
        for (const MaskCells &m : g.masks) {
            auto pred = g.tiers.runThreeTier(m.mask);
            if (!pred) {
                unresolved |= m.cells;
                continue;
            }
            const auto t = static_cast<unsigned>(pred->tier);
            resolved[t] |= m.cells;
            preds[t] = pred;
        }
        for (unsigned t = 0; t < 3; ++t) {
            if (resolved[t] == 0)
                continue;
            forEachCell(resolved[t], [&](unsigned i) {
                ++backends_[i].stats.predictions[t];
            });
            for (TierClass &c : g.classes) {
                if (const CellMask cells = resolved[t] & c.cells)
                    serveTier(c, *view, *preds[t], hp, now, cells);
            }
        }
        markov |= unresolved & markovCells_;
        forEachCell(unresolved & ~markovCells_, [&](unsigned i) {
            ++backends_[i].stats.noPattern;
        });
    }
    if (markov == 0)
        return;
    for (const MarkovClass &c : markovClasses_) {
        if (const CellMask cells = markov & c.cells)
            serveMarkov(c, hp, now, cells, viewed);
    }
}

void
Trainer::serveTier(TierClass &c, const StreamView &view,
                   const Prediction &pred, const HotPage &hp, Tick now,
                   CellMask cells)
{
    // Supplemental far-ahead coverage; the per-page path below still
    // serves the near window (batched pages dedup).
    if (c.batch.enabled && maybeBatch(c, view, pred, now, cells)) {
        forEachCell(cells,
                    [&](unsigned i) { ++backends_[i].stats.batchesIssued; });
    }
    for (std::uint64_t off : c.policy->offsets(view.streamId)) {
        if (auto target = pred.target(off)) {
            sink_.request(hp.pid, *target, view.streamId, pred.tier, now,
                          cells);
        }
    }
}

bool
Trainer::maybeBatch(TierClass &c, const StreamView &view,
                    const Prediction &pred, Tick now, CellMask cells)
{
    const BatchConfig &batch = c.batch;
    if (pred.tier != Tier::Ssp || (pred.step != 1 && pred.step != -1) ||
        view.length < batch.minStreamLen) {
        return false;
    }
    std::uint64_t &countdown = c.batchCountdown[view.streamId];
    if (countdown > 0) {
        --countdown;
        return false; // a recent batch still covers the far window
    }
    // A batch's data arrives only after the whole bundle serializes,
    // so it must start at least one batch-width ahead of the
    // consumption front or its leading pages arrive late.
    std::uint64_t off = std::max<std::uint64_t>(
        c.policy->offsets(view.streamId).front(), batch.batchPages);
    auto start = pred.target(off);
    if (!start)
        return false;
    Vpn first = pred.step > 0
                    ? *start
                    : (*start - Vpn{} >= batch.batchPages - 1
                           ? *start - (batch.batchPages - 1)
                           : Vpn{});
    unsigned bundled = sink_.requestBatch(view.pid, first,
                                          batch.batchPages, view.streamId,
                                          Tier::Ssp, now, cells);
    if (bundled == 0)
        return false;
    countdown = batch.everyHotPages;
    if (c.batchCountdown.size() > 4096)
        c.batchCountdown.clear();
    return true;
}

void
Trainer::serveMarkov(const MarkovClass &c, const HotPage &hp, Tick now,
                     CellMask cells, CellMask viewed)
{
    // The correlation tier has no STT stream; key the policy offset
    // on a per-PID pseudo-stream and chase the successor chain as deep
    // as the adaptive offset asks.
    // Pseudo-stream id packing. hopp-analyze: allow(raw)
    std::uint64_t stream_id = (1ull << 62) | hp.pid.raw();
    auto depth = static_cast<unsigned>(std::min<std::uint64_t>(
        maxMarkovDepth, std::max<std::uint64_t>(
                            2, c.policy->offsets(stream_id).front())));
    const MarkovTargets targets =
        c.table->predict(hp.pid, hp.vpn, depth,
                         static_cast<unsigned>(std::popcount(cells)));
    if (targets.empty()) {
        forEachCell(cells & viewed,
                    [&](unsigned i) { ++backends_[i].stats.noPattern; });
        return;
    }
    forEachCell(cells, [&](unsigned i) {
        ++backends_[i].stats.predictions[static_cast<unsigned>(Tier::Mkv)];
    });
    for (Vpn t : targets)
        sink_.request(hp.pid, t, stream_id, Tier::Mkv, now, cells);
}

void
Trainer::resetStats()
{
    for (SttGroup &g : sttGroups_)
        g.stt->resetStats();
    for (Backend &b : backends_)
        b.stats = TrainerStats{};
}

} // namespace hopp::core

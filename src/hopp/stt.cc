#include "hopp/stt.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace hopp::core
{

Stt::Stt(const SttConfig &cfg)
    : cfg_(cfg), table_(cfg.entries), keys_(cfg.entries)
{
    hopp_assert(cfg_.entries > 0, "STT needs entries");
    hopp_assert(cfg_.historyLen >= 4, "history too short to train");
    hopp_assert(cfg_.historyLen <= maxTrainHistory,
                "history exceeds the stack-scratch training cap");
    for (auto &e : table_) {
        e.vpns.reserve(cfg_.historyLen);
        e.strides.reserve(cfg_.historyLen - 1);
    }
}

std::optional<StreamView>
Stt::append(std::size_t i, Vpn vpn)
{
    Entry &e = table_[i];
    Key &k = keys_[i];
    k.lastUse = ++clock_;
    Vpn last = k.lastVpn;
    if (vpn == last) {
        // Repeated extraction of the same page (multi-channel dedup,
        // §III-B): refresh recency only.
        ++stats_.duplicates;
        return std::nullopt;
    }
    std::int64_t stride = signedDelta(last, vpn);
    if (e.vpns.size() == cfg_.historyLen) {
        e.vpns.erase(e.vpns.begin());
        e.strides.erase(e.strides.begin());
    }
    e.vpns.push_back(vpn);
    e.strides.push_back(stride);
    k.lastVpn = vpn;
    ++e.length;
    ++stats_.appended;
    if (e.vpns.size() == cfg_.historyLen) {
        ++stats_.fullViews;
        return StreamView{k.pid, e.id, e.length, &e.vpns, &e.strides};
    }
    return std::nullopt;
}

std::optional<StreamView>
Stt::feed(Pid pid, Vpn vpn)
{
    ++stats_.fed;
    // Find the best matching stream: same PID and last VPN within
    // Δ_stream; prefer the closest last VPN, the first one on ties.
    // Only the valid prefix can match. An other-pid entry scores the
    // largest distance, and starting the running best at Δ_stream + 1
    // folds the Δ test into the one comparison, so each step is a
    // distance and a compare-and-select, and the running minimum is
    // the only loop-carried value.
    constexpr std::uint64_t far = ~std::uint64_t(0);
    std::size_t best = live_;
    std::uint64_t best_dist =
        cfg_.streamDelta == far ? far : cfg_.streamDelta + 1;
    for (std::size_t i = 0; i < live_; ++i) {
        const Key &k = keys_[i];
        const std::uint64_t dist =
            vpn > k.lastVpn ? vpn - k.lastVpn : k.lastVpn - vpn;
        const std::uint64_t score = k.pid == pid ? dist : far;
        const bool closer = score < best_dist;
        best = closer ? i : best;
        best_dist = closer ? score : best_dist;
    }
    if (best != live_)
        return append(best, vpn);

    // Seed a new stream in the first invalid entry, else in the LRU
    // one (the first smallest lastUse; stamps are unique anyway).
    std::size_t slot = live_;
    if (live_ < keys_.size()) {
        ++live_;
    } else {
        std::uint64_t lru_use = ~std::uint64_t(0);
        for (std::size_t i = 0; i < keys_.size(); ++i) {
            const bool older = keys_[i].lastUse < lru_use;
            slot = older ? i : slot;
            lru_use = older ? keys_[i].lastUse : lru_use;
        }
        ++stats_.evicted;
    }
    ++stats_.seeded;
    Entry &e = table_[slot];
    e.id = nextId_++;
    e.length = 1;
    e.vpns.clear();
    e.strides.clear();
    e.vpns.push_back(vpn);
    keys_[slot] = Key{vpn, ++clock_, pid};
    return std::nullopt;
}

} // namespace hopp::core

#include "hopp/markov.hh"

#include "common/logging.hh"

namespace hopp::core
{

namespace
{

std::size_t
setsFor(const MarkovConfig &cfg)
{
    std::size_t sets = cfg.entries / cfg.ways;
    hopp_assert(sets > 0, "Markov table too small");
    while (sets & (sets - 1))
        sets &= sets - 1;
    return sets;
}

} // namespace

MarkovTable::MarkovTable(const MarkovConfig &cfg)
    : cfg_(cfg), table_(setsFor(cfg), cfg.ways)
{
    hopp_assert(cfg.chainDepth <= maxMarkovDepth,
                "Markov chain depth too large");
}

void
MarkovTable::train(Pid pid, Vpn prev, Vpn cur)
{
    ++stats_.trained;
    std::uint64_t key = vm::pageKey(pid, prev);
    Entry *e = table_.touch(key);
    if (!e) {
        Entry fresh;
        fresh.succ[0] = cur;
        fresh.count[0] = 1;
        table_.insert(key, fresh);
        return;
    }
    // Known successor: bump its count (saturating).
    for (unsigned s = 0; s < MarkovConfig::slots; ++s) {
        if (e->count[s] > 0 && e->succ[s] == cur) {
            if (e->count[s] < 0xFFFF)
                ++e->count[s];
            return;
        }
    }
    // New successor: take an empty slot or decay the weakest slot
    // (frequency-biased replacement, as Markov predictors do).
    unsigned weakest = 0;
    for (unsigned s = 0; s < MarkovConfig::slots; ++s) {
        if (e->count[s] == 0) {
            weakest = s;
            break;
        }
        if (e->count[s] < e->count[weakest])
            weakest = s;
    }
    if (e->count[weakest] > 0) {
        --e->count[weakest];
        if (e->count[weakest] > 0)
            return; // not yet displaced
        ++stats_.replaced;
    }
    e->succ[weakest] = cur;
    e->count[weakest] = 1;
}

bool
MarkovTable::dominant(Pid pid, Vpn vpn, Vpn &out)
{
    Entry *e = table_.peek(vm::pageKey(pid, vpn));
    if (!e)
        return false;
    unsigned best = 0;
    for (unsigned s = 1; s < MarkovConfig::slots; ++s) {
        if (e->count[s] > e->count[best])
            best = s;
    }
    if (e->count[best] < cfg_.minCount)
        return false;
    out = e->succ[best];
    return true;
}

MarkovTargets
MarkovTable::predict(Pid pid, Vpn vpn, unsigned depth, unsigned readers)
{
    if (depth == 0)
        depth = cfg_.chainDepth;
    hopp_assert(depth <= maxMarkovDepth, "Markov chain depth too large");
    MarkovTargets out;
    // Runner-up of the first hop, if it is also confident.
    if (Entry *e = table_.peek(vm::pageKey(pid, vpn))) {
        for (unsigned s = 0; s < MarkovConfig::slots; ++s) {
            if (e->count[s] >= cfg_.minCount)
                out.push_back(e->succ[s]);
        }
    }
    if (out.empty()) {
        stats_.misses += readers;
        return out;
    }
    // Greedy chain along dominant successors.
    Vpn cur = out.front();
    for (unsigned d = 1; d < depth; ++d) {
        Vpn next;
        if (!dominant(pid, cur, next))
            break;
        out.push_back(next);
        cur = next;
    }
    stats_.predictions += out.size() * readers;
    return out;
}

} // namespace hopp::core

#include "mem/llc.hh"

namespace hopp::mem
{

namespace
{

std::size_t
setsFor(const LlcConfig &cfg)
{
    std::uint64_t lines = cfg.capacityBytes / lineBytes;
    std::uint64_t sets = lines / cfg.ways;
    hopp_assert(sets > 0, "LLC too small for its associativity");
    // Round down to a power of two as real indexing requires.
    while (sets & (sets - 1))
        sets &= sets - 1;
    return static_cast<std::size_t>(sets);
}

} // namespace

Llc::Llc(const LlcConfig &cfg) : tags_(setsFor(cfg), cfg.ways) {}

void
Llc::invalidatePage(Ppn ppn)
{
    // Frame number as dense per-frame vector index. hopp-analyze: allow(raw)
    std::uint64_t frame = ppn.raw();
    if (frame >= epochs_.size())
        // Dense per-frame epoch vector grows monotonically to the peak
        // frame index, then never again: a handful of reallocations
        // early in a run. hopp-analyze: allow(hotpath-alloc)
        epochs_.resize(frame + 1, 0);
    ++epochs_[frame];
}

} // namespace hopp::mem

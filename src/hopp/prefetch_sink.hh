/**
 * @file
 * The interface the training framework issues prefetch requests
 * through. Live simulation plugs in ExecEngine (RDMA reads + PTE
 * injection via the VMS); trace replay plugs in an accounting-only
 * sink. Keeping the trainer on this seam is what lets the entire
 * MC-side pipeline (HPD → RPT cache → ring → STT → trainer) run
 * without a VMS behind it.
 */

#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.hh"
#include "hopp/algorithms.hh"

namespace hopp::core
{

/**
 * The software backends one request serves, one bit per backend index.
 * A live pipeline has a single backend, so its requests carry bit 0.
 */
using CellMask = std::uint32_t;

/** Most backends one pipeline can carry (the bits of a CellMask). */
inline constexpr std::size_t maxBackends = 32;

/** Receiver of the trainer's prefetch decisions. */
class PrefetchSink
{
  public:
    virtual ~PrefetchSink() = default;

    /**
     * Request a prefetch of (pid, vpn) on behalf of a stream, for
     * every backend in @p cells.
     */
    virtual void request(Pid pid, Vpn vpn, std::uint64_t stream_id,
                         Tier tier, Tick now, CellMask cells) = 0;

    /**
     * Bundle up to @p count consecutive pages from @p vpn into one
     * transfer for every backend in @p cells. @return pages actually
     * bundled.
     */
    virtual unsigned requestBatch(Pid pid, Vpn vpn, unsigned count,
                                  std::uint64_t stream_id, Tier tier,
                                  Tick now, CellMask cells) = 0;

    /** Prefetches currently in flight (observability gauge). */
    virtual std::size_t outstanding() const { return 0; }
};

} // namespace hopp::core

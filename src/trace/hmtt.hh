/**
 * @file
 * HMTT emulation: a bump-in-the-wire tracer between the memory
 * controller and DRAM (§V). It converts every MC access into an
 * HmttRecord, pushes it into the reserved-DRAM ring, and charges the
 * record-write bandwidth — reproducing the prototype in which HPD runs
 * in *software* over the full raw trace (unlike the §III-B design, in
 * which HPD lives inside the MC and only hot pages are written out).
 */

#pragma once

#include <cstdint>

#include "common/types.hh"
#include "mem/dram.hh"
#include "mem/memctrl.hh"
#include "trace/record.hh"
#include "trace/trace_buffer.hh"

namespace hopp::trace
{

/** HMTT configuration. */
struct HmttConfig
{
    /** Ring capacity in records (reserved area in DRAM 1). */
    std::size_t ringCapacity = 1 << 20;

    /** Bytes written to DRAM per record (packed record, padded). */
    std::uint64_t bytesPerRecord = 8;

    /** Coarse timestamp granularity of the 8-bit wrapping stamp. */
    Duration timestampQuantum = 100;
};

/**
 * DIMM-snooping tracer emulation.
 */
class Hmtt : public mem::McObserver
{
  public:
    Hmtt(mem::Dram &trace_dram, const HmttConfig &cfg = {})
        : dram_(trace_dram), cfg_(cfg), ring_(cfg.ringCapacity)
    {
    }

    /** MC tap: record every access. */
    void
    onMcAccess(PhysAddr pa, bool is_write, Tick now) override
    {
        HmttRecord r;
        r.seq = seq_++;
        // Wrapping 8-bit wire timestamp quantisation. hopp-analyze: allow(raw)
        r.timestamp =
            static_cast<std::uint8_t>(now.raw() / cfg_.timestampQuantum);
        r.isWrite = is_write;
        r.addr29 = toAddr29(pa);
        r.fullTime = now;
        r.fullAddr = pa;
        ring_.push(r);
        dram_.recordTraffic(mem::TrafficSource::TraceWrite,
                            cfg_.bytesPerRecord);
    }

    /** The reserved-DRAM ring the software consumes. */
    RingBuffer<HmttRecord> &ring() { return ring_; }

    /** Records captured so far (including dropped). */
    std::uint64_t
    captured() const
    {
        return ring_.pushed() + ring_.dropped();
    }

  private:
    mem::Dram &dram_;
    HmttConfig cfg_;
    RingBuffer<HmttRecord> ring_;
    std::uint8_t seq_ = 0;
};

} // namespace hopp::trace


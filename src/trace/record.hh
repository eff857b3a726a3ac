/**
 * @file
 * HMTT trace record format (§V): each record carries an 8-bit sequence
 * number, an 8-bit (wrapping) timestamp, a read/write flag and a 29-bit
 * physical address (cacheline granularity). We keep the exact field
 * widths so the packed encoding round-trips the way the hardware's
 * does, and carry a full-resolution shadow timestamp for analysis.
 *
 * This file is a designated raw boundary: packing addresses and times
 * into the fixed-width wire format is exactly what .raw() exists for.
 */

// Wire-format packing boundary. hopp-analyze: allow-file(raw, page-shift)

#pragma once

#include <cstdint>

#include "common/types.hh"

namespace hopp::trace
{

/** One HMTT memory-bus record. */
struct HmttRecord
{
    /** 8-bit wrapping sequence number (drop detection). */
    std::uint8_t seq = 0;

    /** 8-bit wrapping coarse timestamp. */
    std::uint8_t timestamp = 0;

    /** True for a write transaction. */
    bool isWrite = false;

    /** 29-bit cacheline-granular physical address field. */
    std::uint32_t addr29 = 0;

    /** Full-resolution simulation time (not part of the wire format). */
    Tick fullTime;

    /** Full physical address (not part of the wire format). */
    PhysAddr fullAddr;

    /** Pack the 46-bit wire format into the low bits of a uint64. */
    std::uint64_t
    pack() const
    {
        return (static_cast<std::uint64_t>(seq) << 38) |
               (static_cast<std::uint64_t>(timestamp) << 30) |
               (static_cast<std::uint64_t>(isWrite) << 29) |
               (addr29 & ((1u << 29) - 1));
    }

    /** Unpack the wire format. Full-resolution fields stay zero. */
    static HmttRecord
    unpack(std::uint64_t bits)
    {
        HmttRecord r;
        r.seq = static_cast<std::uint8_t>(bits >> 38);
        r.timestamp = static_cast<std::uint8_t>(bits >> 30);
        r.isWrite = (bits >> 29) & 1;
        r.addr29 = static_cast<std::uint32_t>(bits & ((1u << 29) - 1));
        return r;
    }

    /** Physical page number from the 29-bit cacheline address. */
    Ppn
    ppn() const
    {
        return Ppn{static_cast<std::uint64_t>(addr29) >>
                   (pageShift - lineShift)};
    }
};

/** Encode a physical byte address into the 29-bit cacheline field. */
constexpr std::uint32_t
toAddr29(PhysAddr pa)
{
    return static_cast<std::uint32_t>(lineOf(pa) & ((1u << 29) - 1));
}

} // namespace hopp::trace


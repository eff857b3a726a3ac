// Analyzer self-test fixture (header): raw 64-bit integers whose
// names carry address/page/tick vocabulary must use the tagged types
// from common/types.hh. The raw-int-addr rule fires only in headers,
// which is where public signatures live. This file is never compiled.

#pragma once
// (One guard style: the guard-style pass checks fixture trees too.)

#include <cstdint>

struct TypeFixture
{
    std::uint64_t lookupPage(std::uint64_t vpn); // hopp-analyze-expect(raw-int-addr)

    void schedule(std::uint64_t tick); // hopp-analyze-expect(raw-int-addr)

    unsigned long long translate(unsigned long long fault_addr); // hopp-analyze-expect(raw-int-addr)

    std::uint64_t pa_; // hopp-analyze-expect(raw-int-addr)

    // Clean: counts and seeds are genuine integers, not address-space
    // values, so vocabulary matching must leave them alone.
    std::uint64_t footprintPages();
    void setSeed(std::uint64_t seed);
    std::uint64_t hotPages_ = 0;
};

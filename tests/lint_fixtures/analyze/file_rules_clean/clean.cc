// Analyzer self-test fixture: every hazard below carries a justified
// allow comment, so the file must analyze clean (zero diagnostics and
// zero expect markers). This file is never compiled.

// Fixture-wide suppression: this hypothetical file wraps the host
// clock behind the trace-capture boundary, outside simulated time.
// hopp-analyze: allow-file(wall-clock)

#include <chrono>
#include <cstdlib>
#include <unordered_map>

struct CleanFixture
{
    std::unordered_map<int, long> histogram_;

    long
    run()
    {
        // Order-insensitive reduction: summation commutes, so the
        // unspecified iteration order cannot leak into results.
        // hopp-analyze: allow(unordered-iter)
        long sum = 0;
        for (const auto &kv : histogram_) // hopp-analyze: allow(unordered-iter)
            sum += kv.second;

        // Interop shim for a third-party library that insists on
        // seeding the global RNG; never used for simulation state.
        std::srand(1); // hopp-analyze: allow(raw-rand)

        // Covered by the allow-file(wall-clock) directive above.
        auto t0 = std::chrono::steady_clock::now();
        (void)t0;
        return sum;
    }

    unsigned long long
    serialize(Vpn vpn)
    {
        // Serialization boundary: the record layout is defined in raw
        // page numbers, so unwrapping here is the point.
        auto packed = vpn.raw(); // hopp-analyze: allow(raw)
        // Wire format packs the page number into the address field.
        return packed << pageShift; // hopp-analyze: allow(page-shift)
    }
};

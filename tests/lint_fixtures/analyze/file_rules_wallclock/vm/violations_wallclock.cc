/**
 * @file
 * Lint fixture: the tree-wide wall-clock rule. steady_clock /
 * system_clock anywhere outside obs/profiler.* (the host
 * self-profiler) is an error — simulated components must take time
 * from sim::EventQueue ticks, never the host. Every violating line
 * carries a hopp-analyze-expect marker; the self-test verifies the tool
 * reports exactly these, and the plain-run ctest asserts a nonzero
 * exit.
 */

#include <chrono>

namespace hopp::vm
{

inline std::uint64_t
fakeFaultTimestamp()
{
    auto t = std::chrono::steady_clock::now(); // hopp-analyze-expect(wall-clock)
    auto s = std::chrono::system_clock::now(); // hopp-analyze-expect(wall-clock)
    return static_cast<std::uint64_t>(
        t.time_since_epoch().count() + s.time_since_epoch().count());
}

inline std::uint64_t
fakeEpochSeconds()
{
    return static_cast<std::uint64_t>(time(nullptr)); // hopp-analyze-expect(wall-clock)
}

} // namespace hopp::vm

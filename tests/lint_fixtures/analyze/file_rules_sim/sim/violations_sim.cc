/**
 * @file
 * Lint fixture: the sim-std-function rule forbids std::function in
 * any sim/ directory — the event core is allocation-free by design
 * (closures live in sim::InlineEvent's fixed inline storage), and a
 * type-erased heap closure on the schedule/dispatch path would
 * silently reintroduce a per-event allocation. Every violating line
 * carries a hopp-analyze-expect marker; the self-test verifies the tool
 * reports exactly these, and the plain-run ctest asserts a nonzero
 * exit. The allow escape hatch is exercised at the bottom.
 */

#include <functional>

namespace hopp::sim
{

using BadEventFn = std::function<void()>; // hopp-analyze-expect(sim-std-function)

inline void
scheduleLater(std::function<void()> fn) // hopp-analyze-expect(sim-std-function)
{
    fn();
}

// Cold-path glue outside the dispatch loop may justify the escape
// hatch, spelled exactly like the other rules':
// hopp-analyze: allow(sim-std-function)
// One allow covers every line of the wrapped statement below it.
using ColdPathFn =
    std::function<void(int)>;

} // namespace hopp::sim

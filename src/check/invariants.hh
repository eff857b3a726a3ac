/**
 * @file
 * Periodic structural validators for the simulator's core state
 * machines (the runtime half of the correctness-tooling layer; see
 * DESIGN.md "Correctness tooling").
 *
 * Each validator cross-checks one subsystem's redundant state — LRU
 * lists against page-table flags, cgroup charge counters against
 * per-page charge bits, RPT contents against present PTEs — and
 * records human-readable violations into a Report instead of aborting,
 * so tests can prove that injected corruption is detected. Production
 * callers (runner::Machine's debug hook) call Report::enforce(), which
 * panics with the full list.
 *
 * Validators only read simulator state. They run between events, where
 * every subsystem is quiescent, so any violation is a real bug rather
 * than a mid-transition artefact.
 */

#pragma once

#include <string>
#include <vector>

#include "check/check.hh"
#include "common/types.hh"

namespace hopp::sim
{
class EventQueue;
}
namespace hopp::mem
{
class Llc;
}
namespace hopp::vm
{
class Vms;
}
namespace hopp::core
{
class HoppSystem;
}

namespace hopp::check
{

/** Grants validators and test tampers access to private state. */
class Access;

/**
 * Accumulates violations from one validation pass.
 */
class Report
{
  public:
    /** Record one violation against a subsystem. */
    void fail(const char *subsystem, std::string what);

    /** True when no violations were recorded. */
    bool ok() const { return violations_.empty(); }

    /** All recorded violations. */
    const std::vector<std::string> &violations() const
    {
        return violations_;
    }

    /** One line per violation, newline-joined (empty when ok). */
    std::string summary() const;

    /** True when some violation mentions `needle` (test helper). */
    bool mentions(const std::string &needle) const;

    /** Panic with the full violation list unless ok(). */
    void enforce() const;

  private:
    std::vector<std::string> violations_;
};

/**
 * Cross-observation state for event-queue monotonicity: simulated time
 * and the executed-event counter must never move backwards between two
 * validation passes over the same queue.
 */
struct EventQueueWatch
{
    Tick lastNow;
    std::uint64_t lastExecuted = 0;
};

/** Event-queue invariants: timestamp monotonicity, no past events. */
void validateEventQueue(const sim::EventQueue &eq, EventQueueWatch &w,
                        Report &r);

/**
 * VM-subsystem invariants: page-state flag legality, LRU/page-table
 * cross-linking, cgroup charge accounting, frame aliasing, DRAM
 * occupancy.
 */
void validateVms(const vm::Vms &vms, Report &r);

/**
 * LLC invariants: tag-array occupancy accounting, set placement,
 * per-way tag fingerprints and the shape of every set's recency list.
 */
void validateLlc(const mem::Llc &llc, Report &r);

/**
 * HoPP hardware-table invariants: every present PTE is mapped by the
 * RPT cache hierarchy, RPT entry-count bounds, STT entry bounds and
 * counter accounting. Requires a started HoppSystem.
 */
void validateHopp(core::HoppSystem &hopp, const vm::Vms &vms, Report &r);

namespace testing
{

/**
 * Corruption injectors for validator tests: each breaks an invariant
 * the corresponding validator must catch. Never called outside tests.
 */

/** Schedule a no-op event at `when`, bypassing the past-check. */
void pushEventInPast(sim::EventQueue &eq, Tick when);

/** Invalidate one LLC line without fixing occupancy accounting. */
void leakLlcOccupancy(mem::Llc &llc);

/** Flip the fingerprint byte of one valid LLC line. */
void staleLlcFingerprint(mem::Llc &llc);

/** Break one prev link of set 0's LLC recency list. */
void breakLlcRecencyLink(mem::Llc &llc);

} // namespace testing

} // namespace hopp::check


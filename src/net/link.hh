/**
 * @file
 * Bandwidth/latency model of one direction of an RDMA fabric.
 *
 * A transfer entering at tick t completes at
 *   max(t, link_free) + bytes/bandwidth + base_latency,
 * i.e. FIFO serialization on the wire plus a fixed propagation +
 * NIC/switch processing latency. With the paper's 56 Gbps link and a
 * 3.4 us base latency, a 4 KB page costs ~4 us uncontended (§II-A
 * step 4), and queueing delay emerges naturally under prefetch bursts.
 */

#pragma once

#include <cstdint>

#include "common/types.hh"
#include "obs/blackbox.hh"
#include "obs/profiler.hh"
#include "obs/tracer.hh"
#include "stats/stats.hh"

namespace hopp::net
{

/** Link parameters. */
struct LinkConfig
{
    /** Wire rate in gigabits per second (paper testbed: 56 Gbps IB). */
    double gbps = 56.0;

    /** Fixed one-way latency added after serialization. */
    Duration baseLatency = 3400;

    /**
     * Per-transfer issue overhead occupying the engine (doorbell, WQE
     * processing). Makes one 32-page batch cheaper than 32 single-page
     * reads, as on real NICs.
     */
    Duration perTransferOverhead = 150;
};

/**
 * One simplex link with FIFO queueing.
 */
class Link
{
  public:
    explicit Link(const LinkConfig &cfg)
        : cfg_(cfg),
          milliGbps_(static_cast<std::uint64_t>(cfg.gbps * 1000.0 + 0.5))
    {
        hopp_assert(milliGbps_ > 0, "link rate must be positive");
    }

    /**
     * Enqueue a transfer of @p bytes at time @p now.
     * @return the absolute tick at which the last byte arrives.
     */
    Tick
    transfer(Bytes bytes, Tick now)
    {
        HOPP_PROF(LinkTransfer);
        Tick start = busyUntil_ > now ? busyUntil_ : now;
        Duration ser =
            cfg_.perTransferOverhead + serializationDelay(bytes);
        busyUntil_ = start + ser;
        bytesSent_ += bytes;
        ++transfers_;
        queueDelay_.sample(static_cast<double>(start - now));
        if (trace_) {
            // Queueing (wait for the wire) + serialization as one
            // complete span; backlog = how far busyUntil_ runs ahead
            // of the issue tick.
            trace_->complete(cat_, "transfer", now, busyUntil_ - now,
                             tid_);
            trace_->counter(cat_, backlogName_, now, busyUntil_ - now);
        }
        // Black box: link completions are where remote latency comes
        // from; the last few tell a post-mortem what the wire was
        // doing. hopp-analyze: allow(raw) payload serialization
        obs::blackbox().record(obs::BbKind::LinkTransfer, now, tid_,
                               bytes,
                               (busyUntil_ + cfg_.baseLatency).raw());
        return busyUntil_ + cfg_.baseLatency;
    }

    /**
     * Pure serialization time of @p bytes at the configured rate.
     *
     * Computed in exact integer arithmetic so the result is identical
     * on every compiler/FPU configuration: the configured rate is
     * quantised once (at construction) to milli-gigabits per second,
     * and the delay is round-half-up of bytes*8000 / milliGbps. With
     * bytes < 2^50 the numerator cannot overflow 64 bits.
     */
    Duration
    serializationDelay(Bytes bytes) const
    {
        std::uint64_t millibits = bytes * 8000ull;
        return (millibits + milliGbps_ / 2) / milliGbps_;
    }

    /** Earliest tick a new transfer could start serialization. */
    Tick busyUntil() const { return busyUntil_; }

    /** Total payload bytes accepted. */
    std::uint64_t bytesSent() const { return bytesSent_; }

    /** Number of transfers accepted. */
    std::uint64_t transfers() const { return transfers_; }

    /** Distribution of per-transfer queueing delay. */
    const stats::Average &queueDelay() const { return queueDelay_; }

    /** Configured parameters. */
    const LinkConfig &config() const { return cfg_; }

    /** Zero traffic counters (busyUntil_ is sim state, kept). */
    void
    resetStats()
    {
        bytesSent_ = 0;
        transfers_ = 0;
        queueDelay_.reset();
    }

    /**
     * Attach the flight recorder: one complete span per transfer
     * (queueing + serialization) plus a backlog counter, on the given
     * track. @p cat and @p backlog_name must outlive the link (use
     * string literals); backlog counters need distinct names because
     * the trace viewer keys counter series by name.
     */
    void
    setTracer(obs::Tracer *tracer, const char *cat,
              const char *backlog_name, std::uint32_t tid)
    {
        trace_ = tracer;
        cat_ = cat;
        backlogName_ = backlog_name;
        tid_ = tid;
    }

  private:
    LinkConfig cfg_;
    std::uint64_t milliGbps_; //!< wire rate quantised to integer mGbps
    Tick busyUntil_;
    std::uint64_t bytesSent_ = 0;
    std::uint64_t transfers_ = 0;
    stats::Average queueDelay_;
    obs::Tracer *trace_ = nullptr;
    const char *cat_ = "net";
    const char *backlogName_ = "backlog_ns";
    std::uint32_t tid_ = 0;
};

} // namespace hopp::net


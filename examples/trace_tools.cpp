/**
 * @file
 * HMTT trace tooling (§V): capture a full MC access trace of a running
 * workload with the bump-in-the-wire tracer emulation, persist it as a
 * Raw16 trace file (the 16-byte HMTT wire records), reload it, and run
 * the paper's §VI-D style offline analysis (stride census over the
 * page-level read trace).
 */

#include <cstdio>
#include <map>
#include <vector>

#include "runner/machine.hh"
#include "stats/table.hh"
#include "trace/hmtt.hh"
#include "trace/trace_file.hh"

using namespace hopp;
using namespace hopp::runner;

int
main()
{
    // 1. Build the machine, attach the tracer to the MC *before* the
    //    workload starts, then run.
    MachineConfig cfg;
    cfg.system = SystemKind::NoPrefetch;
    cfg.localMemRatio = 0.5;
    Machine m(cfg);
    m.addWorkload(workloads::makeWorkload("npb-mg", {}));
    m.prepare();

    trace::HmttConfig hcfg;
    hcfg.ringCapacity = 1 << 22;
    trace::Hmtt tracer(m.dram(), hcfg);
    m.memCtrl().attach(&tracer);
    m.run();

    // 2. Drain the ring to a trace file, as the prototype persists
    //    HMTT traces for offline study. The Raw16 codec keeps the
    //    records exactly as they came off the wire.
    const std::string path = "/tmp/hopp_npb_mg.trace";
    trace::TraceWriter::Options wopt;
    wopt.codec = trace::TraceCodec::Raw16;
    trace::TraceWriter writer(path, wopt);
    while (auto r = tracer.ring().pop())
        writer.appendRaw(*r);
    if (!writer.finish()) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    std::printf("captured %llu MC accesses (%llu dropped by the ring),"
                " wrote %llu records to %s\n",
                static_cast<unsigned long long>(tracer.captured()),
                static_cast<unsigned long long>(
                    tracer.ring().dropped()),
                static_cast<unsigned long long>(writer.records()),
                path.c_str());

    // 3. Reload and analyse: page-level stride census of READ misses,
    //    the raw material of the paper's stream-pattern taxonomy.
    trace::TraceReader reader;
    if (auto st = reader.open(path); st != trace::TraceIoStatus::Ok) {
        std::fprintf(stderr, "cannot read %s back: %s\n", path.c_str(),
                     trace::traceIoStatusName(st));
        return 1;
    }
    std::map<std::int64_t, std::uint64_t> stride_census;
    std::uint64_t reads = 0;
    Ppn last{};
    bool have_last = false;
    std::vector<trace::ReplayRecord> batch(4096);
    while (std::size_t n = reader.nextBatch(batch.data(), batch.size())) {
        for (std::size_t i = 0; i < n; ++i) {
            const trace::ReplayRecord &rec = batch[i];
            if (rec.isWrite)
                continue;
            ++reads;
            Ppn ppn = pageOf(rec.pa);
            if (have_last && ppn != last) {
                std::int64_t stride = signedDelta(last, ppn);
                if (stride >= -8 && stride <= 8)
                    ++stride_census[stride];
                else
                    ++stride_census[stride < 0 ? -9 : 9]; // |s| > 8 bucket
            }
            last = ppn;
            have_last = true;
        }
    }
    if (reader.status() != trace::TraceIoStatus::Ok) {
        std::fprintf(stderr, "cannot read %s back: %s\n", path.c_str(),
                     trace::traceIoStatusName(reader.status()));
        return 1;
    }

    stats::Table table("Page-stride census of the NPB-MG read trace");
    table.header({"stride", "count", "share"});
    for (const auto &[stride, count] : stride_census) {
        std::string label = stride == 9    ? "> +8"
                            : stride == -9 ? "< -8"
                                           : std::to_string(stride);
        table.row({label, std::to_string(count),
                   stats::Table::pct(static_cast<double>(count) /
                                         static_cast<double>(reads),
                                     1)});
    }
    table.print();
    std::puts("The mass at small +/- strides with net forward progress"
              " is the ripple signature (paper Fig. 3) that RSP"
              " exploits. Physical-address strides are noisier than"
              " virtual ones — which is exactly why HoPP adds the"
              " reverse page table.");
    std::remove(path.c_str());
    return 0;
}

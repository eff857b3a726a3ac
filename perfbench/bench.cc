/**
 * @file
 * The repository benchmark (README.md beside this file explains the
 * workloads and the metric prediction table). Every number is taken
 * from outside the simulator, through its public entry points only:
 * Machine::run, AccessGenerator::nextBatch, McObserver::onMcAccess,
 * ReplayEngine::run, TraceReader::nextBatch / TraceWriter::append,
 * mem::Llc::access, vm::PageTable / vm::Tlb and runner::statsJson.
 *
 *   hoppbench --workload stream|colocated|replay [--seed N]
 *             [--seconds S] [--trace 0|1] [--size full|small]
 *             [--scratch DIR]
 *
 * --trace 0 measures the end-to-end metrics with nothing attached to
 * the simulator; --trace 1 alternates untraced runs with traced ones
 * (timing decorators around the generators and the HoPP frontend)
 * and prints the per-layer metrics. Both check the simulator's output:
 * statsJson must be byte-identical across every repetition, traced or
 * not, and every replay must reproduce the recording run's MC-side
 * stats. The last line of standard output is one JSON object with the
 * keys correct, attempted, failed and metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "mem/llc.hh"
#include "obs/json.hh"
#include "runner/machine.hh"
#include "runner/replay_engine.hh"
#include "runner/stats_report.hh"
#include "trace/trace_file.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"
#include "workloads/apps.hh"

namespace
{

using namespace hopp;
using Clock = std::chrono::steady_clock;

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return nsBetween(a, b) * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Inter-quartile range over the median, for the human-readable log. */
double
relativeIqr(std::vector<double> v)
{
    if (v.size() < 2)
        return 0.0;
    std::sort(v.begin(), v.end());
    auto at = [&](double q) {
        double pos = q * static_cast<double>(v.size() - 1);
        auto lo = static_cast<std::size_t>(pos);
        std::size_t hi = std::min(lo + 1, v.size() - 1);
        return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
    };
    double m = median(v);
    return m != 0.0 ? (at(0.75) - at(0.25)) / m : 0.0;
}

// ---------------------------------------------------------------------
// Host-speed reference
// ---------------------------------------------------------------------

/** Where the reference kernel leaves a result, so its sorts stay. */
volatile std::uint32_t referenceSink;

/**
 * Rate of the reference kernel, in kernels per second: ten sorts of
 * 64Ki pseudo-random 32-bit keys (256 KiB, branchy), ~50 ms. It is
 * benchmark code, so no change to the simulator moves it; what moves
 * it is the host, whose speed drifts by 20-30% over minutes.
 */
double
referenceRate()
{
    std::vector<std::uint32_t> keys(std::size_t{1} << 16);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    auto t0 = Clock::now();
    for (int round = 0; round < 10; ++round) {
        for (auto &k : keys) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            k = static_cast<std::uint32_t>(x);
        }
        std::sort(keys.begin(), keys.end());
    }
    double s = secondsBetween(t0, Clock::now());
    referenceSink = keys[keys.size() / 2];
    return 1.0 / s;
}

/**
 * Scales host-time samples to a host running the reference kernel at
 * kNominal per second (about what the 4-CPU test host gives when it is
 * quiet). The reference runs before the first timed span and after
 * each one; a span is scaled by the mean of the two readings around it,
 * so the drift the simulator shares with the reference cancels.
 */
class HostSpeed
{
  public:
    static constexpr double kNominal = 20.0;

    HostSpeed() : last_(referenceRate()) {}

    /**
     * Measure the reference again. @return the factor that scales a
     * rate measured since the previous call to the nominal host; a
     * duration is scaled by its inverse.
     */
    double
    scale()
    {
        double now = referenceRate();
        double f = kNominal / (0.5 * (last_ + now));
        last_ = now;
        readings_.push_back(now);
        return f;
    }

    const std::vector<double> &
    readings() const
    {
        return readings_;
    }

  private:
    double last_;
    std::vector<double> readings_;
};

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    bool small = false;
    std::string scratch = ".";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "hoppbench: %s\n"
                 "usage: hoppbench --workload stream|colocated|replay"
                 " [--seed N] [--seconds S] [--trace 0|1]"
                 " [--size full|small] [--scratch DIR]\n",
                 why);
    std::exit(2);
}

bool
parseU64(const char *s, std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (errno || end == s || *end || *s == '-')
        return false;
    out = v;
    return true;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *val = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            o.workload = val;
        } else if (flag == "--seed") {
            if (!parseU64(val, o.seed))
                usage("--seed takes a non-negative integer");
        } else if (flag == "--seconds") {
            if (!parseU64(val, n) || n == 0 || n > 600)
                usage("--seconds takes an integer in [1, 600]");
            o.seconds = static_cast<double>(n);
        } else if (flag == "--trace") {
            if (std::strcmp(val, "0") && std::strcmp(val, "1"))
                usage("--trace takes 0 or 1");
            o.trace = val[0] == '1';
        } else if (flag == "--size") {
            if (std::strcmp(val, "full") && std::strcmp(val, "small"))
                usage("--size takes full or small");
            o.small = val[0] == 's';
        } else if (flag == "--scratch") {
            o.scratch = val;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (o.workload != "stream" && o.workload != "colocated" &&
        o.workload != "replay") {
        usage("--workload takes stream, colocated or replay");
    }
    return o;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** One machine's worth of input: its configuration and applications. */
struct Spec
{
    runner::MachineConfig cfg;
    std::vector<workloads::Workload> apps;
};

/**
 * Build the workload's inputs from the seed. Why these three, and what
 * each stresses, is recorded in README.md.
 */
Spec
makeSpec(const Options &o)
{
    Spec s;
    s.cfg.system = runner::SystemKind::Hopp;
    workloads::WorkloadScale scale;
    if (o.workload == "stream") {
        // microbench's generator takes no seed, so the seed lengthens
        // each thread's array by 0-7/512 (0-56 of 4096 pages): every
        // seed is a distinct input of the same all-miss streaming
        // shape.
        double base = o.small ? 0.5 : 4.0;
        scale.footprint =
            base * (1.0 + static_cast<double>(o.seed % 8) / 512.0);
        scale.iterations = base;
        s.cfg.localMemRatio = 0.5;
        s.apps.push_back(workloads::makeWorkload("microbench", scale,
                                                 o.seed));
    } else if (o.workload == "colocated") {
        scale.footprint = o.small ? 0.3 : 1.0;
        scale.iterations = o.small ? 0.3 : 1.0;
        s.cfg.localMemRatio = 0.25;
        s.apps.push_back(
            workloads::makeWorkload("graphx-pr", scale, o.seed));
        s.apps.push_back(workloads::makeWorkload("npb-mg", scale, o.seed));
    } else {
        scale.iterations = o.small ? 1.0 : 16.0;
        s.cfg.localMemRatio = 0.5;
        s.apps.push_back(workloads::makeWorkload("npb-mg", scale, o.seed));
    }
    return s;
}

/**
 * The replay policy grid: cell 0 is the recorded configuration (so the
 * fidelity check applies to it), the rest cross every non-empty subset
 * of the three tiers with the Markov tier and huge-batch issue on and
 * off — 28 cells sharing one hardware frontend.
 */
std::vector<runner::ReplayConfig>
policyGrid()
{
    std::vector<runner::ReplayConfig> cells(1);
    const core::HoppConfig dflt;
    for (unsigned mask = 1; mask <= core::tiers::all; ++mask) {
        for (unsigned mkv : {0u, core::tiers::markov}) {
            for (bool batch : {false, true}) {
                if (mask == dflt.tierMask && mkv == 0 &&
                    batch == dflt.batch.enabled) {
                    continue;
                }
                runner::ReplayConfig c;
                c.hopp.tierMask = mask | mkv;
                c.hopp.batch.enabled = batch;
                cells.push_back(c);
            }
        }
    }
    return cells;
}

// ---------------------------------------------------------------------
// Tracing from outside: decorators around public entry points
// ---------------------------------------------------------------------

/**
 * Cost of one back-to-back pair of clock reads, subtracted from the
 * generator spans (each covers a whole block, so its error is small).
 */
double
clockPairNs()
{
    std::vector<double> batches;
    for (int b = 0; b < 7; ++b) {
        constexpr int n = 20000;
        double total = 0.0;
        for (int i = 0; i < n; ++i) {
            auto a = Clock::now();
            auto c = Clock::now();
            total += nsBetween(a, c);
        }
        batches.push_back(total / n);
    }
    return median(batches);
}

/** Host time spent inside the application generators. */
struct GenTally
{
    std::uint64_t calls = 0;
    std::uint64_t accesses = 0;
    double ns = 0.0;
};

/** Times every block refill of one thread's generator. */
class TimedGen final : public workloads::AccessGenerator
{
  public:
    TimedGen(workloads::GeneratorPtr inner, GenTally &tally)
        : inner_(std::move(inner)), tally_(tally)
    {
    }

    bool
    next(workloads::Access &out) override
    {
        auto a = Clock::now();
        bool ok = inner_->next(out);
        tally_.ns += nsBetween(a, Clock::now());
        ++tally_.calls;
        tally_.accesses += ok;
        return ok;
    }

    std::size_t
    nextBatch(workloads::Access *out, std::size_t n) override
    {
        auto a = Clock::now();
        std::size_t got = inner_->nextBatch(out, n);
        tally_.ns += nsBetween(a, Clock::now());
        ++tally_.calls;
        tally_.accesses += got;
        return got;
    }

    void reset() override { inner_->reset(); }

  private:
    workloads::GeneratorPtr inner_;
    GenTally &tally_;
};

/** @p w with every thread's generator wrapped in a TimedGen. */
workloads::Workload
timedWorkload(const workloads::Workload &w, GenTally &tally)
{
    workloads::Workload out = w;
    for (auto &make : out.threads) {
        make = [inner = make, &tally] {
            return std::make_unique<TimedGen>(inner(), tally);
        };
    }
    return out;
}

/** Host time spent in HoPP's MC-side frontend (HPD, RPT cache, ring). */
struct FrontendTally
{
    std::uint64_t calls = 0;
    std::uint64_t timed = 0;
    std::uint64_t empty = 0;
    double timedNs = 0.0; //!< spans around a forwarded call
    double emptyNs = 0.0; //!< spans around nothing, at the same site

    /** Mean cost of one forwarded call, the clock's own cost removed. */
    double
    callNs() const
    {
        if (!timed || !empty)
            return 0.0;
        return timedNs / static_cast<double>(timed) -
               emptyNs / static_cast<double>(empty);
    }
};

/**
 * Stands in for HoppSystem on the memory controller and forwards every
 * access to it. The frontend costs tens of ns per access, about as much
 * as a clock read, so one call in sampleEvery is timed, and every other
 * sample times an empty span at the same site instead: the clock's cost
 * depends on the cache state the simulator leaves, so it is measured
 * where it is paid.
 */
class TimedFrontend final : public mem::McObserver
{
  public:
    static constexpr std::uint64_t sampleEvery = 128;

    TimedFrontend(core::HoppSystem &hopp, FrontendTally &tally)
        : hopp_(hopp), tally_(tally)
    {
    }

    void
    onMcAccess(PhysAddr pa, bool is_write, Tick now) override
    {
        std::uint64_t n = ++tally_.calls;
        if (n % sampleEvery != 0) {
            hopp_.onMcAccess(pa, is_write, now);
        } else if (n / sampleEvery % 2) {
            auto a = Clock::now();
            tally_.emptyNs += nsBetween(a, Clock::now());
            ++tally_.empty;
            hopp_.onMcAccess(pa, is_write, now);
        } else {
            auto a = Clock::now();
            hopp_.onMcAccess(pa, is_write, now);
            tally_.timedNs += nsBetween(a, Clock::now());
            ++tally_.timed;
        }
    }

  private:
    core::HoppSystem &hopp_;
    FrontendTally &tally_;
};

// ---------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------

/** One live Machine::run and what the benchmark keeps of it. */
struct LiveRep
{
    double setupS = 0.0; //!< makeWorkload .. prepared Machine
    double runS = 0.0;   //!< Machine::run
    runner::RunResult result;
    std::uint64_t accesses = 0;
    std::uint64_t events = 0;
    std::string stats;  //!< runner::statsJson
    std::string mcSide; //!< MC-side stats (recorded runs only)
    std::uint64_t traceRecords = 0;
    std::uint64_t traceBytes = 0;
    bool traceOk = true;
    GenTally gen;         //!< traced runs only
    FrontendTally front;  //!< traced runs only
};

/**
 * Build and run the workload's machine once. @p traced wraps the
 * generators and the HoPP frontend; @p record, when non-empty, records
 * the MC-side trace there.
 */
LiveRep
runLive(const Options &o, bool traced, const std::string &record)
{
    LiveRep rep;
    // Declared before the machine so it outlives the observer list.
    std::optional<TimedFrontend> frontend;
    auto t0 = Clock::now();
    Spec s = makeSpec(o);
    s.cfg.recordTracePath = record;
    runner::Machine m(s.cfg);
    for (const auto &w : s.apps)
        m.addWorkload(traced ? timedWorkload(w, rep.gen) : w);
    m.prepare();
    auto t1 = Clock::now();
    if (traced) {
        core::HoppSystem *h = m.hoppSystem();
        frontend.emplace(*h, rep.front);
        m.memCtrl().detach(h);
        m.memCtrl().attach(&*frontend);
    }
    auto t2 = Clock::now();
    rep.result = m.run();
    auto t3 = Clock::now();
    rep.setupS = secondsBetween(t0, t1);
    rep.runS = secondsBetween(t2, t3);
    for (const auto &a : rep.result.apps)
        rep.accesses += a.accesses;
    rep.events = m.eventQueue().executed();
    rep.stats = runner::statsJson(m);
    if (!record.empty()) {
        rep.mcSide = core::mcSideStatsJson(m.hoppSystem()->pipeline());
        rep.traceRecords = m.traceWriter()->records();
        rep.traceBytes = m.traceWriter()->bytesWritten();
        rep.traceOk = m.traceRecordOk();
    }
    return rep;
}

/** One ReplayEngine pass over a recorded trace. */
struct ReplayPass
{
    bool ok = false;
    double setupS = 0.0; //!< engine construction
    double runS = 0.0;   //!< ReplayEngine::run
    std::uint64_t records = 0;
    std::uint64_t hotPages = 0; //!< hot pages fanned out to the cells
    std::string cell0;          //!< cell 0's MC-side stats
    std::string all;            //!< every cell's stats + oracle ledger
    double accuracy = 0.0;      //!< cell 0 oracle
    double coverage = 0.0;      //!< cell 0 oracle
    Tick lastTick;
};

ReplayPass
replayOnce(const std::string &path,
           const std::vector<runner::ReplayConfig> &cells)
{
    ReplayPass p;
    trace::TraceReader reader;
    if (reader.open(path) != trace::TraceIoStatus::Ok)
        return p;
    auto t0 = Clock::now();
    runner::ReplayEngine engine(cells);
    auto t1 = Clock::now();
    trace::TraceIoStatus st = engine.run(reader);
    auto t2 = Clock::now();
    p.ok = st == trace::TraceIoStatus::Ok;
    p.setupS = secondsBetween(t0, t1);
    p.runS = secondsBetween(t1, t2);
    p.records = engine.result(0).records;
    p.hotPages = engine.pipeline().ring().pushed();
    p.cell0 = engine.mcStatsJson(0);
    for (std::size_t c = 0; c < engine.cells(); ++c)
        p.all += engine.mcStatsJson(c) + engine.oracleJson(c);
    p.accuracy = engine.result(0).accuracy();
    p.coverage = engine.result(0).coverage();
    p.lastTick = engine.result(0).lastTick;
    return p;
}

/** FNV-1a over a whole file; 0 when it cannot be read. */
std::uint64_t
hashFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return 0;
    std::uint64_t h = 1469598103934665603ull;
    std::vector<unsigned char> buf(1 << 16);
    std::size_t n;
    while ((n = std::fread(buf.data(), 1, buf.size(), f)) > 0) {
        for (std::size_t i = 0; i < n; ++i)
            h = (h ^ buf[i]) * 1099511628211ull;
    }
    std::fclose(f);
    return h;
}

/** Decode the whole trace; @return ns per record (0 on error). */
double
decodeNsPerRecord(const std::string &path)
{
    trace::TraceReader reader;
    if (reader.open(path) != trace::TraceIoStatus::Ok)
        return 0.0;
    std::vector<trace::ReplayRecord> buf(4096);
    std::uint64_t n = 0;
    auto t0 = Clock::now();
    while (std::size_t got = reader.nextBatch(buf.data(), buf.size()))
        n += got;
    auto t1 = Clock::now();
    if (reader.status() != trace::TraceIoStatus::Ok || n == 0)
        return 0.0;
    return nsBetween(t0, t1) / static_cast<double>(n);
}

/**
 * Re-encode the trace at @p path into @p out, timing only the writer.
 * @return ns per record; @p identical says whether the re-encoded file
 * equals the original byte for byte.
 */
double
encodeNsPerRecord(const std::string &path, const std::string &out,
                  bool &identical)
{
    identical = false;
    trace::TraceReader reader;
    if (reader.open(path) != trace::TraceIoStatus::Ok)
        return 0.0;
    std::vector<trace::ReplayRecord> buf(4096);
    std::uint64_t n = 0;
    double ns = 0.0;
    {
        trace::TraceWriter w(out);
        while (std::size_t got = reader.nextBatch(buf.data(), buf.size())) {
            auto t0 = Clock::now();
            for (std::size_t i = 0; i < got; ++i)
                w.append(buf[i]);
            ns += nsBetween(t0, Clock::now());
            n += got;
        }
        auto t0 = Clock::now();
        bool ok = w.finish();
        ns += nsBetween(t0, Clock::now());
        identical = ok && reader.status() == trace::TraceIoStatus::Ok &&
                    hashFile(out) == hashFile(path);
    }
    std::remove(out.c_str());
    return n ? ns / static_cast<double>(n) : 0.0;
}

// ---------------------------------------------------------------------
// Standalone layer probes over the workload's own access stream
// ---------------------------------------------------------------------

/**
 * A prefix of the workload's generated stream, interleaved across its
 * threads one pump block at a time, with pages mapped to frames in
 * first-touch order (no reclaim: every page stays resident).
 */
struct StreamSample
{
    std::vector<workloads::Access> acc;
    std::vector<std::uint8_t> thread; //!< per access, index into pids
    std::vector<Pid> pids;            //!< per thread
    std::vector<PhysAddr> pa;         //!< per access
    vm::PageTable pt;
};

void
buildSample(const Options &o, std::size_t limit, StreamSample &s)
{
    Spec spec = makeSpec(o);
    std::vector<workloads::GeneratorPtr> gens;
    for (std::size_t a = 0; a < spec.apps.size(); ++a) {
        for (const auto &make : spec.apps[a].threads) {
            gens.push_back(make());
            s.pids.push_back(Pid{a + 1});
        }
    }
    const std::size_t block = spec.cfg.quantum;
    std::vector<workloads::Access> buf(block);
    std::vector<bool> done(gens.size(), false);
    std::size_t live = gens.size();
    while (live > 0 && s.acc.size() < limit) {
        for (std::size_t t = 0; t < gens.size() && s.acc.size() < limit;
             ++t) {
            if (done[t])
                continue;
            std::size_t got = gens[t]->nextBatch(
                buf.data(), std::min(block, limit - s.acc.size()));
            if (got == 0) {
                done[t] = true;
                --live;
                continue;
            }
            s.acc.insert(s.acc.end(), buf.begin(), buf.begin() + got);
            s.thread.insert(s.thread.end(), got,
                            static_cast<std::uint8_t>(t));
        }
    }
    std::uint64_t frames = 0;
    s.pa.reserve(s.acc.size());
    for (std::size_t i = 0; i < s.acc.size(); ++i) {
        vm::PageInfo &pi =
            s.pt.get(s.pids[s.thread[i]], pageOf(s.acc[i].va));
        if (pi.state != vm::PageState::Resident) {
            pi.state = vm::PageState::Resident;
            pi.ppn = Ppn{frames++};
        }
        s.pa.push_back(pageBase(pi.ppn) + pageOffset(s.acc[i].va));
    }
}

volatile std::uint64_t probeSink;

/** ns per mem::Llc::access over the sample; @p hitRate its hit rate. */
double
llcProbeNs(const StreamSample &s, const mem::LlcConfig &cfg,
           double &hitRate)
{
    std::vector<double> ns;
    for (int rep = 0; rep < 3; ++rep) {
        mem::Llc llc(cfg);
        std::uint64_t hits = 0;
        auto t0 = Clock::now();
        for (PhysAddr a : s.pa)
            hits += llc.access(a);
        ns.push_back(nsBetween(t0, Clock::now()) /
                     static_cast<double>(s.pa.size()));
        hitRate = static_cast<double>(hits) /
                  static_cast<double>(s.pa.size());
        probeSink = hits;
    }
    return median(ns);
}

/**
 * ns per translation (per-thread vm::Tlb in front of the radix
 * vm::PageTable, as on the simulator's access path) over the sample;
 * @p hitRate is the TLB hit rate.
 */
double
translateNs(StreamSample &s, double &hitRate)
{
    std::vector<double> ns;
    for (int rep = 0; rep < 3; ++rep) {
        std::vector<vm::Tlb> tlbs(s.pids.size());
        std::uint64_t sum = 0;
        auto t0 = Clock::now();
        for (std::size_t i = 0; i < s.acc.size(); ++i) {
            std::uint8_t t = s.thread[i];
            Pid pid = s.pids[t];
            Vpn vpn = pageOf(s.acc[i].va);
            vm::PageInfo *pi = tlbs[t].lookup(pid, vpn);
            if (!pi) {
                pi = &s.pt.get(pid, vpn);
                tlbs[t].fill(pid, vpn, pi);
            }
            sum += pi->ppn.raw();
        }
        ns.push_back(nsBetween(t0, Clock::now()) /
                     static_cast<double>(s.acc.size()));
        std::uint64_t hits = 0, misses = 0;
        for (const auto &t : tlbs) {
            hits += t.hits();
            misses += t.misses();
        }
        hitRate = static_cast<double>(hits) /
                  static_cast<double>(hits + misses);
        probeSink = sum;
    }
    return median(ns);
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

/** Flat statsJson document with checked key lookup. */
class Stats
{
  public:
    explicit Stats(const std::string &text)
    {
        std::string err;
        if (!obs::json::parse(text, doc_, &err))
            std::fprintf(stderr, "hoppbench: statsJson: %s\n", err.c_str());
    }

    double
    operator[](const std::string &key) const
    {
        const obs::json::Value *v = doc_.find(key);
        if (!v || !v->isNumber()) {
            std::fprintf(stderr, "hoppbench: statsJson lacks %s\n",
                         key.c_str());
            return 0.0;
        }
        return v->number();
    }

  private:
    obs::json::Value doc_;
};

/** The output checks of one run: it fails when any of them fails. */
struct RunCheck
{
    std::vector<std::string> failures;

    void
    expect(bool ok, const std::string &what)
    {
        if (!ok)
            failures.push_back(what);
    }
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string note;
};

class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit,
        const std::string &note = "")
    {
        metrics_.push_back({name, value, unit, note});
    }

    /** Median of @p samples, with their count and spread in the note. */
    void
    addMedian(const std::string &name, const std::vector<double> &samples,
              const std::string &unit)
    {
        char note[96];
        std::snprintf(note, sizeof(note), "median of %zu, IQR %.2f%%",
                      samples.size(), 100.0 * relativeIqr(samples));
        add(name, median(samples), unit, note);
    }

    /** Count one run as attempted, and as failed when a check failed. */
    void
    count(const RunCheck &run)
    {
        ++attempted_;
        if (!run.failures.empty())
            ++failed_;
        for (const auto &f : run.failures)
            std::printf("  CHECK FAILED: %s\n", f.c_str());
    }

    void
    print() const
    {
        for (const auto &m : metrics_) {
            std::printf("  %-36s %16.6g %-10s %s\n", m.name.c_str(),
                        m.value, m.unit.c_str(), m.note.c_str());
        }
        std::printf("  runs: %llu attempted, %llu failed the output check\n",
                    static_cast<unsigned long long>(attempted_),
                    static_cast<unsigned long long>(failed_));
        std::string json = "{\"correct\": ";
        json += failed_ == 0 ? "true" : "false";
        json += ", \"attempted\": " + std::to_string(attempted_);
        json += ", \"failed\": " + std::to_string(failed_);
        json += ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          i ? ", " : "", metrics_[i].name.c_str(),
                          metrics_[i].value, metrics_[i].unit.c_str());
            json += buf;
        }
        json += "}}";
        std::printf("%s\n", json.c_str());
    }

  private:
    std::vector<Metric> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
perKilo(double count, double accesses)
{
    return accesses > 0 ? 1000.0 * count / accesses : 0.0;
}

// ---------------------------------------------------------------------
// The two modes
// ---------------------------------------------------------------------

/** statsJson of a workload's first run, which every later run must match. */
struct StatsReference
{
    std::string stats;

    void
    check(const LiveRep &r, RunCheck &c)
    {
        if (stats.empty())
            stats = r.stats;
        c.expect(!r.stats.empty() && r.stats == stats,
                 "statsJson differs from the first run's");
    }
};

/** One untraced (or, with @p traced, traced) live run, checked. */
LiveRep
liveChecked(const Options &o, bool traced, StatsReference &ref,
            Report &out)
{
    LiveRep r = runLive(o, traced, "");
    RunCheck c;
    ref.check(r, c);
    out.count(c);
    return r;
}

/**
 * Record the workload's MC-side trace to @p path, checking the run's
 * stats and, when @p traceHash is set, that the trace equals an
 * earlier recording byte for byte.
 */
LiveRep
recordChecked(const Options &o, const std::string &path,
              StatsReference &ref, std::uint64_t &traceHash, Report &out)
{
    LiveRep r = runLive(o, false, path);
    RunCheck c;
    ref.check(r, c);
    c.expect(r.traceOk && r.traceRecords > 0, "trace write failed");
    std::uint64_t h = hashFile(path);
    c.expect(!traceHash || h == traceHash,
             "recorded trace differs from the first recording");
    traceHash = h;
    out.count(c);
    return r;
}

/**
 * Drain fresh generators of the workload: the simulator must have
 * executed exactly the accesses they produce.
 */
void
checkAccessCount(const Options &o, const LiveRep &r, Report &out)
{
    Spec s = makeSpec(o);
    std::uint64_t generated = 0;
    std::vector<workloads::Access> buf(4096);
    for (const auto &w : s.apps) {
        for (const auto &make : w.threads) {
            auto g = make();
            while (std::size_t got = g->nextBatch(buf.data(), buf.size()))
                generated += got;
        }
    }
    RunCheck c;
    c.expect(r.accesses == generated &&
                 Stats(r.stats)["vms.accesses"] ==
                     static_cast<double>(generated),
             "simulated access count differs from the generated stream");
    out.count(c);
}

/**
 * One replay pass, checked against the recording run's MC-side stats
 * and, once @p reference holds a pass's output, against that.
 */
ReplayPass
replayChecked(const std::string &path,
              const std::vector<runner::ReplayConfig> &cells,
              const std::string &mcSide, std::string &reference,
              Report &out)
{
    ReplayPass p = replayOnce(path, cells);
    RunCheck c;
    c.expect(p.ok, "replay did not consume the whole trace");
    c.expect(p.cell0 == mcSide,
             "replayed MC-side stats differ from the recording run");
    c.expect(reference.empty() || p.all == reference,
             "replay output differs between passes");
    if (reference.empty())
        reference = p.all;
    out.count(c);
    return p;
}

/**
 * The measured loop repeats one cycle until the run's time is up: two
 * live repetitions and one replay pass on the live workloads, one
 * recording set-up and one replay pass on replay. Interleaving lets
 * both medians sample the whole run, so the host's slow and fast
 * phases weigh on them alike. Every host-time sample is scaled to the
 * nominal host by the reference readings around it (HostSpeed); the
 * wall-clock medians are logged beside the result.
 */
void
endToEnd(const Options &o, Report &out)
{
    const std::string trc = o.scratch + "/hoppbench.trc";
    const auto cells = policyGrid();
    const bool live = o.workload != "replay";
    StatsReference ref;
    std::vector<double> setup, aps, rcps, engineSetup, wallAps, wallRcps;
    LiveRep last, recorded;
    std::uint64_t traceHash = 0;
    std::string reference;
    ReplayPass pass;

    if (live)
        recorded = recordChecked(o, trc, ref, traceHash, out);
    HostSpeed speed;
    auto addRun = [&](const LiveRep &r, double setupS) {
        double f = speed.scale();
        double rate = static_cast<double>(r.accesses) / r.runS;
        wallAps.push_back(rate);
        aps.push_back(rate * f);
        setup.push_back(setupS / f);
    };
    auto replayPass = [&] {
        pass = replayChecked(trc, cells, recorded.mcSide, reference, out);
        double f = speed.scale();
        double rate = static_cast<double>(cells.size() * pass.records) /
                      pass.runS;
        engineSetup.push_back(pass.setupS / f);
        wallRcps.push_back(rate);
        rcps.push_back(rate * f);
    };

    auto start = Clock::now();
    do {
        if (live) {
            for (int i = 0; i < 2; ++i) {
                last = liveChecked(o, false, ref, out);
                addRun(last, last.setupS);
            }
        } else {
            // Set-up is the recording itself.
            recorded = recordChecked(o, trc, ref, traceHash, out);
            addRun(recorded, recorded.setupS + recorded.runS);
        }
        replayPass();
    } while (rcps.size() < 3 ||
             secondsBetween(start, Clock::now()) < o.seconds);
    checkAccessCount(o, live ? last : recorded, out);
    std::remove(trc.c_str());

    if (!live) {
        // Set-up also covers building the replay engine.
        double eng = median(engineSetup);
        for (double &s : setup)
            s += eng;
    }
    std::printf("  wall clock, unscaled: accesses_per_s %.6g, "
                "record_cells_per_s %.6g; reference %.4g/s (nominal %g, "
                "%zu readings)\n",
                median(wallAps), median(wallRcps), median(speed.readings()),
                HostSpeed::kNominal, speed.readings().size());
    out.addMedian("accesses_per_s", aps, "1/s");
    out.addMedian("record_cells_per_s", rcps, "1/s");
    out.addMedian("setup_s", setup, "s");
    out.add("peak_rss_mb", peakRssMb(), "MB");
    if (live) {
        out.add("sim_makespan_ms",
                static_cast<double>(last.result.makespan.raw()) / 1e6,
                "ms", "simulated");
        out.add("prefetch_accuracy", last.result.accuracy, "ratio");
        out.add("prefetch_coverage", last.result.coverage, "ratio");
    } else {
        out.add("sim_makespan_ms",
                static_cast<double>(pass.lastTick.raw()) / 1e6, "ms",
                "simulated, replayed trace");
        out.add("prefetch_accuracy", pass.accuracy, "ratio",
                "replay oracle, cell 0");
        out.add("prefetch_coverage", pass.coverage, "ratio",
                "replay oracle, cell 0");
    }
    out.add("trace_bytes_per_record",
            static_cast<double>(recorded.traceBytes) /
                static_cast<double>(recorded.traceRecords),
            "B");
}

void
perLayer(const Options &o, Report &out)
{
    const std::string trc = o.scratch + "/hoppbench.trc";
    const double clockNs = clockPairNs();
    StatsReference ref;
    std::vector<double> plainRun, tracedRun;
    std::vector<double> genNs, genFrac, feNs, feFrac;
    std::vector<LiveRep> traced;
    auto start = Clock::now();
    // Untraced and traced repetitions alternate, so drift in the host's
    // speed hits both sides of the overhead ratio alike.
    do {
        plainRun.push_back(liveChecked(o, false, ref, out).runS);
        LiveRep t = liveChecked(o, true, ref, out);
        tracedRun.push_back(t.runS);
        traced.push_back(std::move(t));
    } while (traced.size() < 2 ||
             secondsBetween(start, Clock::now()) < o.seconds);
    const LiveRep &t0 = traced.front();
    checkAccessCount(o, t0, out);
    Stats st(t0.stats);
    const double acc = static_cast<double>(t0.accesses);

    // Standalone probes: the isolated cost of one LLC probe and one
    // translation over the workload's own stream.
    StreamSample sample;
    buildSample(o, std::size_t{1} << 21, sample);
    double llcIsoHit = 0.0, tlbHit = 0.0;
    double llcNs = llcProbeNs(sample, makeSpec(o).cfg.llc, llcIsoHit);
    double xlateNs = translateNs(sample, tlbHit);
    const double llcProbes = st["llc.hits"] + st["llc.misses"];

    std::vector<double> llcFrac, xlateFrac, unattributed;
    for (const LiveRep &t : traced) {
        double runNs = t.runS * 1e9;
        double g = t.gen.ns - clockNs * static_cast<double>(t.gen.calls);
        double feCall = t.front.callNs();
        double fe = feCall * static_cast<double>(t.front.calls);
        genNs.push_back(g / static_cast<double>(t.gen.accesses));
        genFrac.push_back(g / runNs);
        feNs.push_back(feCall);
        feFrac.push_back(fe / runNs);
        llcFrac.push_back(llcNs * llcProbes / runNs);
        xlateFrac.push_back(xlateNs * acc / runNs);
        unattributed.push_back(1.0 - genFrac.back() - feFrac.back() -
                               llcFrac.back() - xlateFrac.back());
    }

    // Replay layers over this workload's own recording.
    std::uint64_t traceHash = 0;
    LiveRep recorded = recordChecked(o, trc, ref, traceHash, out);
    const auto cells = policyGrid();
    const std::vector<runner::ReplayConfig> one(cells.begin(),
                                                cells.begin() + 1);
    std::vector<double> oneS, allS, decNs;
    std::string oneRef, allRef;
    ReplayPass full;
    for (int i = 0; i < 3; ++i) {
        oneS.push_back(
            replayChecked(trc, one, recorded.mcSide, oneRef, out).runS);
        full = replayChecked(trc, cells, recorded.mcSide, allRef, out);
        allS.push_back(full.runS);
        decNs.push_back(decodeNsPerRecord(trc));
    }
    bool identical = false;
    double encNs = encodeNsPerRecord(trc, trc + ".enc", identical);
    RunCheck enc;
    enc.expect(identical, "re-encoded trace differs from the recording");
    out.count(enc);
    std::remove(trc.c_str());
    const double records = static_cast<double>(full.records);
    const double extraCellPages = static_cast<double>(full.hotPages) *
                                  static_cast<double>(cells.size() - 1);

    out.addMedian("workloads.ns_per_access", genNs, "ns");
    out.addMedian("workloads.self_frac", genFrac, "ratio");
    out.addMedian("hopp.frontend_ns_per_mc_access", feNs, "ns");
    out.addMedian("hopp.frontend_self_frac", feFrac, "ratio");
    out.add("hopp.hot_ratio", st["hopp.hpd.hot_ratio"], "ratio");
    out.add("hopp.trainer_hot_pages", st["hopp.trainer.hot_pages"],
            "count");
    out.add("hopp.tier_issued",
            st["hopp.tier.ssp.issued"] + st["hopp.tier.lsp.issued"] +
                st["hopp.tier.rsp.issued"] + st["hopp.tier.mkv.issued"],
            "count");
    out.add("hopp.ring_dropped", st["hopp.ring.dropped"], "count");
    out.add("hopp.replay_ns_per_record_1cell",
            median(oneS) * 1e9 / records, "ns");
    out.add("hopp.ns_per_hot_page_per_cell",
            extraCellPages > 0
                ? (median(allS) - median(oneS)) * 1e9 / extraCellPages
                : 0.0,
            "ns");
    out.add("trace.decode_ns_per_record", median(decNs), "ns");
    out.add("trace.encode_ns_per_record", encNs, "ns");
    out.add("mem.llc_hit_rate", llcProbes > 0 ? st["llc.hits"] / llcProbes
                                              : 0.0,
            "ratio", "in run");
    out.add("mem.llc_isolated_hit_rate", llcIsoHit, "ratio",
            "standalone, first-touch frames");
    out.add("mem.mc_reads_per_kaccess", perKilo(st["mc.reads"], acc),
            "1/kaccess");
    out.add("mem.llc_probe_ns", llcNs, "ns", "standalone");
    out.addMedian("mem.llc_est_frac", llcFrac, "ratio");
    out.add("vm.translate_ns", xlateNs, "ns", "standalone");
    out.add("vm.tlb_hit_rate", tlbHit, "ratio", "standalone");
    out.addMedian("vm.translate_est_frac", xlateFrac, "ratio");
    out.add("vm.faults_per_kaccess", perKilo(st["vms.faults"], acc),
            "1/kaccess");
    out.add("vm.evictions_per_kaccess", perKilo(st["vms.evictions"], acc),
            "1/kaccess");
    out.add("vm.reclaim_direct", st["vms.reclaim_direct"], "count");
    out.add("vm.remote_fault_p99_ns", st["latency.remote_fault.p99_ns"],
            "ns", "simulated");
    out.add("sim.events_per_kaccess",
            perKilo(static_cast<double>(t0.events), acc), "1/kaccess");
    out.add("net.read_bytes_per_kaccess", perKilo(st["net.read.bytes"], acc),
            "B/kaccess");
    out.add("net.read_queue_delay_mean_ns",
            st["net.read.queue_delay_mean_ns"], "ns", "simulated");
    out.add("remote.demand_reads", st["remote.demand_reads"], "count");
    out.add("remote.writebacks", st["remote.writebacks"], "count");
    out.add("prefetch.issued_per_kaccess",
            perKilo(st["remote.prefetch_reads"] + st["remote.batch_reads"],
                    acc),
            "1/kaccess");
    out.add("prefetch.wasted",
            st["prefetch.completed"] - st["prefetch.hits"], "count");
    out.add("prefetch.dropped", st["vms.prefetches_dropped"], "count");
    out.addMedian("runner.run_s", plainRun, "s");
    out.add("runner.trace_overhead", median(tracedRun) / median(plainRun),
            "ratio", "target <= 1.10");
    out.add("runner.unattributed_frac", median(unattributed), "ratio",
            "target <= 0.10");
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseOptions(argc, argv);
    std::printf("hoppbench workload=%s seed=%llu trace=%d size=%s "
                "seconds=%g\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.trace ? 1 : 0, o.small ? "small" : "full", o.seconds);
    Report report;
    if (o.trace)
        perLayer(o, report);
    else
        endToEnd(o, report);
    report.print();
    return 0;
}

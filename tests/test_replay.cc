/**
 * @file
 * Record->replay fidelity tests (DESIGN.md §15): a live run recorded
 * through the HMTT tap and replayed through ReplayEngine must
 * reproduce the MC-side pipeline statistics byte for byte, for both
 * hopp system flavours; the error statuses of the reader propagate
 * through the engine.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "runner/machine.hh"
#include "runner/replay_engine.hh"

using namespace hopp;
using namespace hopp::runner;

namespace
{

/** Temp path unique to this process (tests may run in parallel). */
std::string
tmpPath(const char *stem)
{
    return std::string("replay_") + stem + "_" +
           std::to_string(::getpid()) + ".trc";
}

/** Run @p workload live with recording on; return its MC-side doc. */
std::string
recordLive(const std::string &workload, SystemKind sys,
           const std::string &trace_path, core::HoppConfig hopp = {},
           double footprint = 0.1, double iterations = 0.3)
{
    MachineConfig cfg;
    cfg.system = sys;
    cfg.hopp = hopp;
    cfg.recordTracePath = trace_path;
    workloads::WorkloadScale scale;
    scale.footprint = footprint;
    scale.iterations = iterations;
    Machine machine(cfg);
    machine.addWorkload(workloads::makeWorkload(workload, scale, 43));
    machine.run();
    EXPECT_TRUE(machine.traceRecordOk());
    return core::mcSideStatsJson(machine.hoppSystem()->pipeline());
}

/** Replay @p trace_path under @p hopp; return the MC-side doc. */
std::string
replayed(const std::string &trace_path, core::HoppConfig hopp = {})
{
    trace::TraceReader reader;
    EXPECT_EQ(reader.open(trace_path), trace::TraceIoStatus::Ok);
    ReplayConfig cfg;
    cfg.hopp = hopp;
    ReplayEngine engine(cfg);
    EXPECT_EQ(engine.run(reader), trace::TraceIoStatus::Ok);
    EXPECT_GT(engine.result().records, 0u);
    EXPECT_GT(engine.result().mcAccesses, 0u);
    return engine.mcStatsJson();
}

/**
 * A fan-out grid shaped like a real policy sweep: every tier mask x
 * Markov on/off x huge-batch on/off, with every key that decides
 * whether two cells may share one request varied across cells that
 * agree on the others:
 *  - two STT geometries (mask 5 runs on the second), so the drain
 *    serves more than one STT group;
 *  - two MarkovConfigs (minCount by mask parity), so Markov cells
 *    split across two correlation tables;
 *  - two PolicyConfigs (masks 3 and 6 prefetch two pages from offset
 *    3), so cells resolving the same tier differ only in the policy;
 *  - two enabled BatchConfigs (masks 1 and 2 bundle fewer pages,
 *    more often), so batch cells differ only in the batch geometry;
 *  - two oracle arrival delays and two use windows, so ledger blocks
 *    hold ticks of different windows side by side.
 */
std::vector<ReplayConfig>
sweepGrid()
{
    std::vector<ReplayConfig> cells;
    for (unsigned mask = 1; mask <= core::tiers::all; ++mask) {
        for (unsigned mkv : {0u, core::tiers::markov}) {
            for (bool batch : {false, true}) {
                ReplayConfig cfg;
                cfg.hopp.tierMask = mask | mkv;
                cfg.hopp.batch.enabled = batch;
                cfg.hopp.markov.minCount =
                    static_cast<std::uint16_t>(2 + (mask & 1));
                if (mask == 5) {
                    cfg.hopp.stt.historyLen = 12;
                    cfg.hopp.stt.streamDelta = 16;
                }
                if (mask == 3 || mask == 6) {
                    cfg.hopp.policy.intensity = 2;
                    cfg.hopp.policy.offsetInit = 3.0;
                }
                if (batch && (mask == 1 || mask == 2)) {
                    cfg.hopp.batch.batchPages = 16;
                    cfg.hopp.batch.everyHotPages = 8;
                }
                if (cells.size() % 3 == 0)
                    cfg.arrivalDelay = 2'000;
                if (cells.size() % 4 == 1)
                    cfg.useWindow = 400'000;
                cells.push_back(cfg);
            }
        }
    }
    return cells;
}

/**
 * The benchmark's replay grid: cell 0 is the default configuration,
 * the rest cross every other tier mask with the Markov tier and
 * huge-batch issue on and off, all with default parameters — 28
 * cells on one frontend.
 */
std::vector<ReplayConfig>
benchGrid()
{
    std::vector<ReplayConfig> cells(1);
    const core::HoppConfig dflt;
    for (unsigned mask = 1; mask <= core::tiers::all; ++mask) {
        for (unsigned mkv : {0u, core::tiers::markov}) {
            for (bool batch : {false, true}) {
                if (mask == dflt.tierMask && mkv == 0 &&
                    batch == dflt.batch.enabled) {
                    continue;
                }
                ReplayConfig cfg;
                cfg.hopp.tierMask = mask | mkv;
                cfg.hopp.batch.enabled = batch;
                cells.push_back(cfg);
            }
        }
    }
    return cells;
}

/** The whole text of @p path ("" when it cannot be read). */
std::string
readFile(const std::string &path)
{
    std::string text;
    if (FILE *f = std::fopen(path.c_str(), "rb")) {
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) != 0)
            text.append(buf, n);
        std::fclose(f);
    }
    return text;
}

} // namespace

TEST(Replay, ReproducesLiveMcStatsByteForByte)
{
    std::string path = tmpPath("kmeans");
    std::string live = recordLive("kmeans-omp", SystemKind::Hopp, path);
    EXPECT_EQ(live, replayed(path));
    std::remove(path.c_str());
}

TEST(Replay, ReproducesHoppOnlyWithMarkovAndChannels)
{
    // A second flavour: no fault-driven prefetcher feeding the VMS,
    // Markov tier on, two interleaved channels — the stats must still
    // match, because the pipeline input stream alone determines them.
    core::HoppConfig hopp;
    hopp.tierMask = core::tiers::all | core::tiers::markov;
    hopp.channels = 2;
    std::string path = tmpPath("hopponly");
    std::string live =
        recordLive("microbench", SystemKind::HoppOnly, path, hopp);
    EXPECT_EQ(live, replayed(path, hopp));
    std::remove(path.c_str());
}

TEST(Replay, OracleLedgerIsConsistent)
{
    std::string path = tmpPath("oracle");
    recordLive("kmeans-omp", SystemKind::Hopp, path);

    // The solo engine and every cell of a fan-out keep their own
    // books: each must classify every request exactly once.
    std::vector<ReplayConfig> grid = sweepGrid();
    for (std::size_t width : {std::size_t{1}, grid.size()}) {
        trace::TraceReader reader;
        ASSERT_EQ(reader.open(path), trace::TraceIoStatus::Ok);
        ReplayEngine engine(std::vector<ReplayConfig>(
            grid.begin(), grid.begin() + static_cast<long>(width)));
        ASSERT_EQ(engine.run(reader), trace::TraceIoStatus::Ok);
        for (std::size_t i = 0; i < engine.cells(); ++i) {
            const ReplayResult &r = engine.result(i);
            // Every request is eventually classified, and nothing
            // else is.
            EXPECT_EQ(r.used + r.late + r.unused, r.requested)
                << "cell " << i;
            EXPECT_LE(r.coveredPages, r.demandPages) << "cell " << i;
            EXPECT_GE(r.records, r.mcAccesses + r.pteEvents);
        }
    }
    std::remove(path.c_str());
}

TEST(Replay, FanoutCellsMatchSoloReplays)
{
    // One shared-frontend pass over the trace must give every policy
    // cell the exact stats and oracle ledger a solo replay of that
    // cell produces — the fan-out, and the Markov tables, tier
    // results and ledger blocks its cells share, are an
    // optimization, not a model.
    std::string path = tmpPath("fanout");
    core::HoppConfig hopp;
    hopp.tierMask = core::tiers::all | core::tiers::markov;
    recordLive("graphx-pr", SystemKind::HoppOnly, path, hopp);

    std::vector<ReplayConfig> cells = sweepGrid();
    ASSERT_LE(cells.size(), maxReplayCells);
    trace::TraceReader reader;
    ASSERT_EQ(reader.open(path), trace::TraceIoStatus::Ok);
    ReplayEngine fanout(cells);
    ASSERT_EQ(fanout.run(reader), trace::TraceIoStatus::Ok);
    ASSERT_EQ(fanout.cells(), cells.size());

    std::uint64_t markov_predictions = 0;
    std::uint64_t batches = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        trace::TraceReader solo_reader;
        ASSERT_EQ(solo_reader.open(path), trace::TraceIoStatus::Ok);
        ReplayEngine solo(cells[i]);
        ASSERT_EQ(solo.run(solo_reader), trace::TraceIoStatus::Ok);
        EXPECT_EQ(fanout.mcStatsJson(i), solo.mcStatsJson())
            << "cell " << i;
        EXPECT_EQ(fanout.oracleJson(i), solo.oracleJson())
            << "cell " << i;
        const core::TrainerStats &tr =
            fanout.pipeline().trainer().stats(i);
        markov_predictions +=
            tr.predictions[static_cast<unsigned>(core::Tier::Mkv)];
        batches += tr.batchesIssued;
    }
    // The grid must exercise what it claims to: the shared tables
    // predict, and the huge-batch path issues.
    EXPECT_GT(markov_predictions, 0u);
    EXPECT_GT(batches, 0u);
    std::remove(path.c_str());
}

// Pins the benchmark-shaped grid across commits: every cell's MC-side
// stats and oracle ledger from one fan-out pass over a small npb-mg
// recording must match the checked-in capture byte for byte. The
// fan-out test above compares the engine with itself; this one fails
// when an optimisation changes any cell's numbers. On a mismatch the
// document is written to the working directory; refresh
// tests/golden/replay_grid28.json from it only with a deliberate
// model change.
TEST(Replay, BenchGridMatchesGolden)
{
    std::string path = tmpPath("grid28");
    recordLive("npb-mg", SystemKind::Hopp, path, {}, 0.3, 1.0);
    std::vector<ReplayConfig> cells = benchGrid();
    ASSERT_EQ(cells.size(), 28u);
    trace::TraceReader reader;
    ASSERT_EQ(reader.open(path), trace::TraceIoStatus::Ok);
    ReplayEngine engine(cells);
    ASSERT_EQ(engine.run(reader), trace::TraceIoStatus::Ok);
    std::remove(path.c_str());

    std::string doc = "[\n";
    std::uint64_t markov_predictions = 0;
    std::uint64_t batches = 0;
    for (std::size_t i = 0; i < engine.cells(); ++i) {
        doc += engine.mcStatsJson(i) + ",\n" + engine.oracleJson(i);
        doc += i + 1 < engine.cells() ? ",\n" : "]\n";
        const core::TrainerStats &tr =
            engine.pipeline().trainer().stats(i);
        markov_predictions +=
            tr.predictions[static_cast<unsigned>(core::Tier::Mkv)];
        batches += tr.batchesIssued;
    }
    // The recording must exercise the Markov and huge-batch cells.
    EXPECT_GT(markov_predictions, 0u);
    EXPECT_GT(batches, 0u);
    const std::string golden =
        readFile(HOPP_GOLDEN_DIR "/replay_grid28.json");
    if (doc != golden) {
        FILE *f = std::fopen("replay_grid28.actual.json", "wb");
        if (f) {
            std::fwrite(doc.data(), 1, doc.size(), f);
            std::fclose(f);
        }
    }
    EXPECT_EQ(doc, golden)
        << "differs from tests/golden/replay_grid28.json; the new "
           "document is replay_grid28.actual.json";
}

TEST(Replay, FanoutRejectsMixedHardwareConfigs)
{
    ReplayConfig a;
    ReplayConfig b;
    b.hopp.hpd.threshold = a.hopp.hpd.threshold * 2;
    std::vector<ReplayConfig> cells{a, b};
    EXPECT_DEATH(ReplayEngine{cells}, "hardware");
}

TEST(Replay, RunIsOnceOnly)
{
    std::string path = tmpPath("once");
    recordLive("microbench", SystemKind::Hopp, path);
    trace::TraceReader reader;
    ASSERT_EQ(reader.open(path), trace::TraceIoStatus::Ok);
    ReplayEngine engine;
    ASSERT_EQ(engine.run(reader), trace::TraceIoStatus::Ok);
    trace::TraceReader again;
    ASSERT_EQ(again.open(path), trace::TraceIoStatus::Ok);
    EXPECT_DEATH(engine.run(again), "once");
    std::remove(path.c_str());
}

TEST(Replay, MissingTracePropagatesOpenFailed)
{
    trace::TraceReader reader;
    EXPECT_EQ(reader.open("replay_no_such_file.trc"),
              trace::TraceIoStatus::OpenFailed);
    ReplayEngine engine;
    // A reader that failed to open yields nothing; the engine returns
    // the sticky status instead of inventing an empty-but-ok run.
    EXPECT_EQ(engine.run(reader), trace::TraceIoStatus::OpenFailed);
    EXPECT_EQ(engine.result().records, 0u);
}

// The demand path shares one shadow probe across a run of reads of
// one frame. A frame unmapped and remapped to another page between
// two reads must drop that shared answer: the read after the clear
// charges nothing, and the read after the remap charges the new page.
TEST(Replay, RemappedFrameChargesTheNewPage)
{
    std::string path = tmpPath("remap");
    const Pid pid{1};
    const Ppn frame{7};
    const PhysAddr line = pageBase(frame);
    auto pte = [&](trace::ReplayKind kind, Vpn vpn, std::uint64_t t) {
        trace::ReplayRecord r;
        r.kind = kind;
        r.pid = pid;
        r.vpn = vpn;
        r.ppn = frame;
        r.tick = Tick{t};
        return r;
    };
    auto read = [&](std::uint64_t offset, std::uint64_t t) {
        trace::ReplayRecord r;
        r.pa = line + offset;
        r.tick = Tick{t};
        return r;
    };
    {
        trace::TraceWriter w(path);
        w.append(pte(trace::ReplayKind::PteSet, Vpn{100}, 1));
        w.append(read(0, 2));
        w.append(read(64, 3));
        w.append(pte(trace::ReplayKind::PteClear, Vpn{100}, 4));
        w.append(read(128, 5));
        w.append(pte(trace::ReplayKind::PteSet, Vpn{200}, 6));
        w.append(read(192, 7));
        ASSERT_TRUE(w.finish());
    }
    trace::TraceReader reader;
    ASSERT_EQ(reader.open(path), trace::TraceIoStatus::Ok);
    ReplayEngine engine;
    ASSERT_EQ(engine.run(reader), trace::TraceIoStatus::Ok);
    EXPECT_EQ(engine.result().records, 7u);
    EXPECT_EQ(engine.result().mcAccesses, 4u);
    EXPECT_EQ(engine.result().pteEvents, 3u);
    // Page 100 (reads at ticks 2 and 3) and page 200 (tick 7).
    EXPECT_EQ(engine.result().demandPages, 2u);
    std::remove(path.c_str());
}

TEST(Replay, TruncatedTracePropagatesAndKeepsPrefix)
{
    std::string path = tmpPath("trunc");
    recordLive("microbench", SystemKind::Hopp, path);

    // Chop the file mid-block: the complete prefix still replays, the
    // status reports the damage.
    FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fclose(f);
    ASSERT_GT(size, 64);
    ASSERT_EQ(::truncate(path.c_str(), size - 7), 0);

    trace::TraceReader reader;
    ASSERT_EQ(reader.open(path), trace::TraceIoStatus::Ok);
    ReplayEngine engine;
    EXPECT_EQ(engine.run(reader), trace::TraceIoStatus::Truncated);
    EXPECT_GT(engine.result().records, 0u);
    std::remove(path.c_str());
}

/**
 * @file
 * hopp-replay: sweep HoPP policies over a recorded trace at memory
 * speed — record once with `hopp-run --record-trace`, then cross the
 * captured MC-side input stream against a tier-mask x HPD-threshold
 * grid without re-simulating the workload, VMS, or page walks.
 *
 *   hopp-replay --trace FILE [--tiers MASK]... [--threshold N]...
 *               [--channels N] [--no-interleave] [--markov]
 *               [--jobs N] [--out FILE] [--mc-stats-json FILE]
 *   hopp-replay --import-champsim IN --trace OUT [--pid N]
 *               [--tick-per-instr NS]
 *
 * Cells sharing an HPD threshold (the hardware axis) replay in one
 * pass: a shared frontend decodes the trace and probes the HPD once,
 * fanning each hot page out to every tier-mask cell's trainer
 * (ReplayEngine fan-out). With --jobs N the threshold groups execute
 * on N host threads through SweepPool; fragments contain no wall
 * times and are assembled in a fixed tiers-major order, so the
 * document is byte-identical for every --jobs value.
 *
 * --mc-stats-json writes the MC-side fidelity-contract document of a
 * single-cell grid; diffing it against the recording run's
 * `hopp-run --mc-stats-json` is the record->replay determinism check
 * (DESIGN.md §15).
 *
 * Examples:
 *   hopp-run --workload kmeans-omp --system hopp --record-trace k.trc
 *   hopp-replay --trace k.trc --tiers 1 --tiers 7 --tiers 15 \
 *               --threshold 4 --threshold 8 --jobs 4 --out grid.json
 *   hopp-replay --import-champsim app.champsim.bin --trace app.trc
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "obs/trace_writer.hh"
#include "runner/replay_engine.hh"
#include "runner/sweep_pool.hh"
#include "trace/champsim.hh"

using namespace hopp;
using namespace hopp::runner;

namespace
{

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s --trace FILE [options]\n"
        "  --trace FILE        recorded trace to replay (with\n"
        "                      --import-champsim: the output path)\n"
        "  --tiers MASK        tier bitmask 1..15 grid axis"
        " (repeatable; default 7)\n"
        "  --threshold N       HPD threshold >= 1 grid axis"
        " (repeatable; default 8)\n"
        "  --channels N        memory channels, a power of two"
        " 1..64 (default 1)\n"
        "  --no-interleave     per-page channel layout\n"
        "  --markov            add the Markov tier to every cell\n"
        "  --jobs N            host worker threads (default 1; 0 ="
        " all cores)\n"
        "  --out FILE          write the grid document to FILE"
        " (default stdout)\n"
        "  --mc-stats-json FILE  write the MC-side fidelity document"
        " (single-cell grids only)\n"
        "  --import-champsim IN  convert a ChampSim binary trace to"
        " the replay format and exit\n"
        "  --pid N             pid 0..65535 for imported records"
        " (default 1)\n"
        "  --tick-per-instr NS imported inter-instruction time"
        " (default 4)\n",
        argv0);
}

/** Indent every line of a rendered JSON block by @p pad spaces. */
std::string
indent(const std::string &text, int pad)
{
    std::string out;
    std::string prefix(static_cast<std::size_t>(pad), ' ');
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t nl = text.find('\n', start);
        if (nl == std::string::npos)
            nl = text.size();
        if (nl > start)
            out += prefix + text.substr(start, nl - start);
        out += '\n';
        start = nl + 1;
    }
    if (!out.empty() && out.back() == '\n')
        out.pop_back();
    return out;
}

/**
 * Parse a whole decimal integer in [@p lo, @p hi] into @p out. Signs,
 * blanks, trailing text and out-of-range values are refused, so a
 * typo never runs as 0 or as a wrapped-around huge value.
 */
bool
parseBounded(const char *text, std::uint64_t lo, std::uint64_t hi,
             std::uint64_t &out)
{
    if (*text < '0' || *text > '9')
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0' || v < lo || v > hi)
        return false;
    out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string trace_path, out_path, mc_stats_json, champsim_in;
    std::vector<unsigned> tier_masks;
    std::vector<unsigned> thresholds;
    ReplayConfig base;
    bool markov = false;
    unsigned jobs = 1;
    std::uint64_t champsim_pid = 1;
    Duration tick_per_instr = 4;

    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            usage(argv[0]);
            std::exit(2);
        }
        return argv[++i];
    };
    // The value of flag argv[i], which must be an integer in [lo, hi];
    // anything else is a usage error naming the flag.
    auto number = [&](int &i, std::uint64_t lo, std::uint64_t hi,
                      const char *what) -> std::uint64_t {
        const char *flag = argv[i];
        const char *text = need(i);
        std::uint64_t v = 0;
        if (!parseBounded(text, lo, hi, v)) {
            std::fprintf(stderr, "hopp-replay: %s '%s' is not %s\n",
                         flag, text, what);
            std::exit(2);
        }
        return v;
    };
    constexpr std::uint64_t u32max = 0xFFFFFFFFull;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--trace") {
            trace_path = need(i);
        } else if (arg == "--tiers") {
            tier_masks.push_back(static_cast<unsigned>(
                number(i, 1, 15, "a tier mask in 1..15")));
        } else if (arg == "--threshold") {
            thresholds.push_back(static_cast<unsigned>(
                number(i, 1, u32max, "a threshold >= 1")));
        } else if (arg == "--channels") {
            const std::uint64_t n =
                number(i, 1, 64, "a power of two in 1..64");
            if ((n & (n - 1)) != 0) {
                std::fprintf(stderr, "hopp-replay: --channels '%llu' is"
                                     " not a power of two in 1..64\n",
                             static_cast<unsigned long long>(n));
                return 2;
            }
            base.hopp.channels = static_cast<unsigned>(n);
        } else if (arg == "--no-interleave") {
            base.hopp.channelInterleaved = false;
        } else if (arg == "--markov") {
            markov = true;
        } else if (arg == "--jobs") {
            const std::uint64_t n =
                number(i, 0, u32max, "a worker count (0 = all cores)");
            jobs = n == 0 ? SweepPool::hardwareJobs()
                          : static_cast<unsigned>(n);
        } else if (arg == "--out") {
            out_path = need(i);
        } else if (arg == "--mc-stats-json") {
            mc_stats_json = need(i);
        } else if (arg == "--import-champsim") {
            champsim_in = need(i);
        } else if (arg == "--pid") {
            champsim_pid = number(i, 0, 0xFFFF, "a pid in 0..65535");
        } else if (arg == "--tick-per-instr") {
            tick_per_instr = static_cast<Duration>(
                number(i, 0, ~std::uint64_t{0}, "a tick count"));
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }
    if (trace_path.empty()) {
        usage(argv[0]);
        return 2;
    }

    if (!champsim_in.empty()) {
        trace::ChampSimOptions opt;
        opt.pid = champsim_pid;
        opt.tickPerInstr = tick_per_instr;
        trace::ChampSimImport imp =
            trace::importChampSim(champsim_in, trace_path, opt);
        if (imp.status != trace::TraceIoStatus::Ok) {
            std::fprintf(stderr, "champsim import failed: %s\n",
                         trace::traceIoStatusName(imp.status));
            return 1;
        }
        std::printf("imported %llu instructions -> %llu accesses over"
                    " %llu pages\n",
                    static_cast<unsigned long long>(imp.instructions),
                    static_cast<unsigned long long>(imp.accesses),
                    static_cast<unsigned long long>(imp.pages));
        return 0;
    }

    if (tier_masks.empty())
        tier_masks.push_back(core::tiers::all);
    if (thresholds.empty())
        thresholds.push_back(core::HpdConfig{}.threshold);
    if (markov) {
        for (unsigned &m : tier_masks)
            m |= core::tiers::markov;
    }
    if (!mc_stats_json.empty() &&
        (tier_masks.size() != 1 || thresholds.size() != 1)) {
        std::fprintf(stderr, "--mc-stats-json needs a single-cell"
                             " grid (one --tiers, one --threshold)\n");
        return 2;
    }

    // Grid execution: the HPD threshold is hardware, the tier mask is
    // software. Cells sharing a threshold replay in ONE pass through
    // a shared frontend (ReplayEngine fan-out) — decode and the
    // per-access HPD/RPT work are paid once per threshold, not once
    // per cell — and SweepPool spreads the threshold groups across
    // host threads. Fragments carry no wall times and are assembled
    // tiers-major below, so the document stays byte-identical for
    // every --jobs value (and to the old per-cell execution).
    struct GroupOut
    {
        std::vector<std::string> byTier;
        std::string mcStats; //!< cell 0's fidelity doc (group 0 only)
    };
    std::string mc_stats_doc;
    SweepPool pool(jobs);
    std::vector<GroupOut> groups = pool.run<GroupOut>(
        thresholds.size(), [&](std::size_t g) {
            GroupOut out;
            // Fan-outs are capped at maxReplayCells; a wider tier axis
            // simply replays in several passes.
            for (std::size_t lo = 0; lo < tier_masks.size();
                 lo += maxReplayCells) {
                std::size_t hi = std::min(
                    lo + maxReplayCells, tier_masks.size());
                std::vector<ReplayConfig> cfgs;
                cfgs.reserve(hi - lo);
                for (std::size_t c = lo; c < hi; ++c) {
                    ReplayConfig cfg = base;
                    cfg.hopp.tierMask = tier_masks[c];
                    cfg.hopp.hpd.threshold = thresholds[g];
                    cfgs.push_back(cfg);
                }
                trace::TraceReader reader;
                trace::TraceIoStatus st = reader.open(trace_path);
                ReplayEngine engine(cfgs);
                if (st == trace::TraceIoStatus::Ok)
                    st = engine.run(reader);
                for (std::size_t c = lo; c < hi; ++c) {
                    std::size_t cell = c - lo;
                    std::string frag;
                    frag += "    {\n";
                    frag += "      \"tiers\": " +
                            std::to_string(tier_masks[c]) + ",\n";
                    frag += "      \"threshold\": " +
                            std::to_string(thresholds[g]) + ",\n";
                    // A failed cell still renders (sweep documents
                    // stay complete); the post-run scan turns any
                    // non-ok status into a nonzero exit.
                    frag += "      \"status\": \"" +
                            std::string(
                                trace::traceIoStatusName(st)) +
                            "\",\n";
                    frag += "      \"mc_stats\":\n" +
                            indent(engine.mcStatsJson(cell), 6) +
                            ",\n";
                    frag += "      \"oracle\":\n" +
                            indent(engine.oracleJson(cell), 6) + "\n";
                    frag += "    }";
                    out.byTier.push_back(std::move(frag));
                }
                if (g == 0 && lo == 0 && !mc_stats_json.empty())
                    out.mcStats = engine.mcStatsJson(0);
            }
            return out;
        });
    if (!mc_stats_json.empty())
        mc_stats_doc = groups[0].mcStats;

    // Tiers-major document order, matching the submission order the
    // per-cell execution used.
    std::vector<std::string> fragments;
    fragments.reserve(tier_masks.size() * thresholds.size());
    for (std::size_t t = 0; t < tier_masks.size(); ++t)
        for (std::size_t g = 0; g < thresholds.size(); ++g)
            fragments.push_back(std::move(groups[g].byTier[t]));

    bool replay_failed = false;
    for (const std::string &f : fragments) {
        if (f.find("\"status\": \"ok\"") == std::string::npos)
            replay_failed = true;
    }

    std::string doc;
    doc += "{\n";
    doc += "  \"schema\": \"hopp-replay-v1\",\n";
    doc += "  \"trace\": ";
    obs::json::appendQuoted(doc, trace_path);
    doc += ",\n";
    doc += "  \"runs\": [\n";
    for (std::size_t i = 0; i < fragments.size(); ++i) {
        doc += fragments[i];
        doc += i + 1 < fragments.size() ? ",\n" : "\n";
    }
    doc += "  ]\n";
    doc += "}\n";

    bool io_ok = true;
    if (out_path.empty())
        std::fputs(doc.c_str(), stdout);
    else
        io_ok &= obs::writeFile(out_path, doc);
    if (!mc_stats_json.empty())
        io_ok &= obs::writeFile(mc_stats_json, mc_stats_doc);
    return (io_ok && !replay_failed) ? 0 : 1;
}

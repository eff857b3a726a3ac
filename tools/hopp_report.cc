/**
 * @file
 * hopp-report: aggregate one run's observability artifacts into a
 * single ranked report, and gate a benchmark result on its baseline.
 *
 *   hopp-report [--bench FILE] [--baseline FILE] [--spec FILE]
 *               [--stats FILE] [--metrics FILE] [--profile FILE]
 *               [--out FILE.md] [--github] [--top N]
 *
 * Inputs (all optional, at least one required):
 *   --bench FILE     a perfbench result line (the last line of
 *                    `python3 perfbench/run.py` output)
 *   --baseline FILE  the perfbench result line to diff against
 *   --spec FILE      the benchmark declaration (BENCHMARK.json)
 *   --stats FILE     hopp-run --stats-json output
 *   --metrics FILE   hopp-run --metrics-out CSV
 *   --profile FILE   hopp-run --profile-out JSON
 *
 * Outputs: a markdown report to stdout (or --out FILE.md), and with
 * --github one `::warning` annotation per regression for Actions logs.
 *
 * Regression gate: with --baseline (which needs --spec) the tool exits
 * 1 when an end-to-end metric of the spec is worse than the baseline
 * by more than its declared `bound`, in its declared `better`
 * direction, or is missing from the result, or when the result's
 * `failed` run count rose. Per-layer metrics are reported with their
 * declared direction but never gate; metrics the spec does not name
 * are informational.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "cli.hh"
#include "obs/json.hh"
#include "obs/trace_writer.hh"

namespace json = hopp::obs::json;

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--bench FILE] [--baseline FILE] [--spec FILE]\n"
        "          [--stats FILE] [--metrics FILE] [--profile FILE]\n"
        "          [--out FILE.md] [--github] [--top N]\n",
        argv0);
}

/** Print "hopp-report: @p path: @p what" and return false. */
bool
invalid(const std::string &path, const std::string &what)
{
    std::fprintf(stderr, "hopp-report: %s: %s\n", path.c_str(),
                 what.c_str());
    return false;
}

bool
loadJson(const std::string &path, json::Value &out)
{
    std::string text, err;
    if (!hopp::cli::readFile("hopp-report", path, text))
        return false;
    return json::parse(text, out, &err) || invalid(path, err);
}

/** What the benchmark declaration says about one metric. */
struct MetricSpec
{
    bool endToEnd = false; //!< gated; per-layer metrics only report
    int better = 0;        //!< +1: higher is better; -1: lower
    double bound = 0.0;    //!< tolerated worsening, fraction of baseline
};

/**
 * Read the `end_to_end` and `per_layer` lists of a benchmark
 * declaration: each entry names its metric and whether `higher` or
 * `lower` is better, and each end-to-end entry its `bound`.
 */
bool
loadSpec(const std::string &path, std::map<std::string, MetricSpec> &out)
{
    json::Value doc;
    if (!loadJson(path, doc))
        return false;
    for (const std::string list : {"end_to_end", "per_layer"}) {
        const json::Value *entries = doc.find(list);
        if (entries == nullptr || !entries->isArray())
            return invalid(path, "no '" + list + "' list");
        for (const json::Value &e : entries->items()) {
            const json::Value *name = e.find("name");
            const json::Value *better = e.find("better");
            const json::Value *bound = e.find("bound");
            if (name == nullptr || !name->isString())
                return invalid(path, "an entry of '" + list +
                                         "' has no name");
            MetricSpec m;
            m.endToEnd = list == "end_to_end";
            const std::string dir =
                better != nullptr && better->isString() ? better->str()
                                                        : "";
            m.better = dir == "higher" ? 1 : dir == "lower" ? -1 : 0;
            if (m.better == 0)
                return invalid(path, name->str() + ": 'better' is not "
                                                   "higher or lower");
            if (m.endToEnd) {
                if (bound == nullptr || !bound->isNumber() ||
                    !(bound->number() >= 0.0))
                    return invalid(path, name->str() + ": 'bound' is "
                                                       "not a number >= 0");
                m.bound = bound->number();
            }
            out[name->str()] = m;
        }
    }
    return true;
}

/** One metric of a perfbench result line. */
struct Metric
{
    std::string name, unit;
    double value = 0.0;
};

/** A perfbench result line: run counts and metrics in document order. */
struct BenchResult
{
    double attempted = 0.0, failed = 0.0;
    std::vector<Metric> metrics;

    const Metric *
    find(const std::string &name) const
    {
        for (const Metric &m : metrics) {
            if (m.name == name)
                return &m;
        }
        return nullptr;
    }
};

bool
loadBench(const std::string &path, BenchResult &out)
{
    json::Value doc;
    if (!loadJson(path, doc))
        return false;
    const json::Value *attempted = doc.find("attempted");
    const json::Value *failed = doc.find("failed");
    const json::Value *metrics = doc.find("metrics");
    if (attempted == nullptr || !attempted->isNumber() ||
        failed == nullptr || !failed->isNumber() || metrics == nullptr ||
        !metrics->isObject())
        return invalid(path, "not a perfbench result line (needs "
                             "'attempted', 'failed' and 'metrics')");
    out.attempted = attempted->number();
    out.failed = failed->number();
    for (const auto &[name, m] : metrics->members()) {
        const json::Value *value = m.find("value");
        const json::Value *unit = m.find("unit");
        if (value == nullptr || !value->isNumber())
            return invalid(path, name + ": no numeric 'value'");
        out.metrics.push_back(
            {name, unit != nullptr && unit->isString() ? unit->str() : "",
             value->number()});
    }
    return true;
}

/** One numeric leaf of a JSON document, addressed by dotted path. */
struct Leaf
{
    std::string path;
    double value = 0.0;
};

/** The numeric leaves of a stats document (nested objects of numbers). */
void
flatten(const json::Value &v, const std::string &prefix,
        std::vector<Leaf> &out)
{
    if (v.isNumber())
        out.push_back({prefix, v.number()});
    for (const auto &[k, m] : v.members())
        flatten(m, prefix.empty() ? k : prefix + "." + k, out);
}

/** One bench metric compared against the baseline. */
struct DiffRow
{
    const Metric *current = nullptr;
    const Metric *baseline = nullptr; //!< null: not in the baseline
    double deltaPct = 0.0; //!< signed change, percent of the baseline
    const MetricSpec *spec = nullptr; //!< null: the spec does not name it
    bool regressed = false; //!< gated and worse than its bound
};

std::string
fmtNum(double v)
{
    char buf[64];
    // %.6g keeps counts exact and rates readable, deterministically.
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

std::string
fmtPct(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%+.2f%%", v);
    return buf;
}

struct Options
{
    std::string bench, baseline, spec, stats, metrics, profile;
    std::string outMd;
    bool github = false;
    unsigned top = 12;
};

/** metrics CSV column summary. */
struct ColumnSummary
{
    std::string name;
    double last = 0.0, min = 0.0, max = 0.0;
    std::size_t samples = 0;
};

bool
summarizeCsv(const std::string &text, std::vector<ColumnSummary> &out)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        if (end > start)
            lines.push_back(text.substr(start, end - start));
        start = end + 1;
    }
    if (lines.empty())
        return false;
    // Header row names the columns.
    std::size_t col_start = 0;
    const std::string &hdr = lines.front();
    while (col_start <= hdr.size()) {
        std::size_t c = hdr.find(',', col_start);
        if (c == std::string::npos)
            c = hdr.size();
        ColumnSummary cs;
        cs.name = hdr.substr(col_start, c - col_start);
        out.push_back(std::move(cs));
        col_start = c + 1;
    }
    for (std::size_t r = 1; r < lines.size(); ++r) {
        std::size_t pos = 0;
        for (ColumnSummary &cs : out) {
            std::size_t c = lines[r].find(',', pos);
            if (c == std::string::npos)
                c = lines[r].size();
            double v = std::strtod(lines[r].c_str() + pos, nullptr);
            if (cs.samples == 0) {
                cs.min = cs.max = v;
            } else {
                cs.min = std::min(cs.min, v);
                cs.max = std::max(cs.max, v);
            }
            cs.last = v;
            ++cs.samples;
            pos = c + 1;
            if (c == lines[r].size())
                break;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    const hopp::cli::Flags flags("hopp-report", argc, argv, usage);
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--bench") {
            opt.bench = flags.value(i);
        } else if (arg == "--baseline") {
            opt.baseline = flags.value(i);
        } else if (arg == "--spec") {
            opt.spec = flags.value(i);
        } else if (arg == "--stats") {
            opt.stats = flags.value(i);
        } else if (arg == "--metrics") {
            opt.metrics = flags.value(i);
        } else if (arg == "--profile") {
            opt.profile = flags.value(i);
        } else if (arg == "--out") {
            opt.outMd = flags.value(i);
        } else if (arg == "--github") {
            opt.github = true;
        } else if (arg == "--top") {
            opt.top = static_cast<unsigned>(
                flags.integer(i, 0, hopp::cli::u32max, "a row count"));
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "hopp-report: unknown argument '%s'\n",
                         arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }
    if (opt.bench.empty() && opt.stats.empty() && opt.metrics.empty() &&
        opt.profile.empty()) {
        usage(argv[0]);
        return 2;
    }
    if (!opt.baseline.empty() && opt.bench.empty()) {
        std::fprintf(stderr,
                     "hopp-report: --baseline needs --bench to diff\n");
        return 2;
    }
    if (!opt.baseline.empty() && opt.spec.empty()) {
        std::fprintf(stderr, "hopp-report: --baseline needs --spec for "
                             "each metric's direction and bound\n");
        return 2;
    }

    std::map<std::string, MetricSpec> spec;
    if (!opt.spec.empty() && !loadSpec(opt.spec, spec))
        return 2;

    std::string md;
    md += "# HoPP performance report\n";

    // ---- Bench + baseline diff ------------------------------------
    std::vector<std::string> findings; //!< why the gate fails, if it does
    if (!opt.bench.empty()) {
        const bool haveBaseline = !opt.baseline.empty();
        BenchResult cur, base;
        if (!loadBench(opt.bench, cur))
            return 2;
        if (haveBaseline && !loadBench(opt.baseline, base))
            return 2;

        auto gated = [](const DiffRow &r) {
            return r.spec != nullptr && r.spec->endToEnd;
        };
        std::vector<DiffRow> rows;
        for (const Metric &m : cur.metrics) {
            DiffRow r;
            r.current = &m;
            r.baseline = base.find(m.name);
            auto it = spec.find(m.name);
            if (it != spec.end())
                r.spec = &it->second;
            if (r.baseline != nullptr && r.baseline->value != 0.0) {
                const double b = r.baseline->value;
                r.deltaPct = (m.value - b) / std::fabs(b) * 100.0;
                r.regressed = gated(r) && -r.spec->better * r.deltaPct >
                                              r.spec->bound * 100.0;
            }
            if (r.regressed)
                findings.push_back(
                    m.name + " moved " + fmtPct(r.deltaPct) +
                    " vs baseline, past its " +
                    fmtNum(r.spec->bound * 100.0) + "% bound (current " +
                    fmtNum(m.value) + ", baseline " +
                    fmtNum(r.baseline->value) + ")");
            rows.push_back(r);
        }
        // A gated metric the baseline has and the result lacks cannot
        // be checked, so it fails the gate rather than passing it.
        for (const Metric &m : base.metrics) {
            auto it = spec.find(m.name);
            if (cur.find(m.name) == nullptr && it != spec.end() &&
                it->second.endToEnd)
                findings.push_back(m.name + " is missing from the result");
        }
        if (haveBaseline && cur.failed > base.failed)
            findings.push_back("failed runs rose from " +
                               fmtNum(base.failed) + " to " +
                               fmtNum(cur.failed));

        // Ranked: regressions first, then gated metrics, then by how
        // far each moved.
        std::stable_sort(rows.begin(), rows.end(),
                         [&](const DiffRow &a, const DiffRow &b) {
                             if (a.regressed != b.regressed)
                                 return a.regressed;
                             if (gated(a) != gated(b))
                                 return gated(a);
                             return std::fabs(a.deltaPct) >
                                    std::fabs(b.deltaPct);
                         });

        md += "\n## Bench: " + opt.bench;
        if (haveBaseline)
            md += " vs baseline " + opt.baseline;
        md += "\n\nruns: " + fmtNum(cur.attempted) + " attempted, " +
              fmtNum(cur.failed) + " failed the output check";
        if (haveBaseline)
            md += " (baseline: " + fmtNum(base.attempted) + " attempted, " +
                  fmtNum(base.failed) + " failed)";
        md += "\n\n| metric | unit | current | baseline | delta | better "
              "| bound | status |\n"
              "|---|---|---:|---:|---:|---|---:|---|\n";
        for (const DiffRow &r : rows) {
            const bool diffed = r.baseline != nullptr;
            const char *status = !diffed      ? "-"
                                 : r.regressed ? "**REGRESSED**"
                                 : gated(r)    ? "ok"
                                               : "report only";
            md += "| " + r.current->name + " | " + r.current->unit +
                  " | " + fmtNum(r.current->value) + " | " +
                  (diffed ? fmtNum(r.baseline->value) : "-") + " | " +
                  (diffed ? fmtPct(r.deltaPct) : "-") + " | " +
                  (r.spec == nullptr     ? "-"
                   : r.spec->better > 0 ? "higher"
                                        : "lower") +
                  " | " +
                  (gated(r) ? fmtNum(r.spec->bound * 100.0) + "%" : "-") +
                  " | " + status + " |\n";
        }
        if (haveBaseline) {
            md += "\n" + std::to_string(findings.size()) +
                  " gate finding(s) against the declared bounds.\n";
            for (const std::string &f : findings)
                md += "- " + f + "\n";
        }
    }

    // ---- Self-profile ---------------------------------------------
    if (!opt.profile.empty()) {
        json::Value prof;
        if (!loadJson(opt.profile, prof))
            return 2;
        md += "\n## Self-profile: " + opt.profile + "\n\n";
        const json::Value *wall = prof.find("wall_ns");
        const json::Value *frac = prof.find("attributed_fraction");
        if (wall != nullptr && frac != nullptr) {
            char line[160];
            std::snprintf(line, sizeof line,
                          "wall %.3f ms, %.1f%% attributed to zones\n\n",
                          wall->number() / 1e6, frac->number() * 100.0);
            md += line;
        }
        const json::Value *zones = prof.find("zones");
        if (zones != nullptr && zones->isArray()) {
            // Rank zones by self time, largest first.
            std::vector<const json::Value *> zs;
            for (const json::Value &z : zones->items())
                zs.push_back(&z);
            auto selfNs = [](const json::Value *z) {
                const json::Value *s = z->find("self_ns");
                return s != nullptr ? s->number() : 0.0;
            };
            std::stable_sort(zs.begin(), zs.end(),
                             [&](const json::Value *a,
                                 const json::Value *b) {
                                 return selfNs(a) > selfNs(b);
                             });
            md += "| zone | self ms | total ms | self % | count |\n"
                  "|---|---:|---:|---:|---:|\n";
            const double wallNs =
                wall != nullptr && wall->number() > 0.0 ? wall->number()
                                                        : 0.0;
            unsigned listed = 0;
            for (const json::Value *z : zs) {
                if (listed++ >= opt.top)
                    break;
                const json::Value *name = z->find("zone");
                const json::Value *total = z->find("total_ns");
                const json::Value *count = z->find("count");
                if (name == nullptr || total == nullptr)
                    continue;
                char line[256];
                std::snprintf(
                    line, sizeof line,
                    "| %s | %.3f | %.3f | %.1f%% | %.0f |\n",
                    name->str().c_str(), selfNs(z) / 1e6,
                    total->number() / 1e6,
                    wallNs > 0.0 ? selfNs(z) / wallNs * 100.0 : 0.0,
                    count != nullptr ? count->number() : 0.0);
                md += line;
            }
        }
    }

    // ---- Stats ----------------------------------------------------
    if (!opt.stats.empty()) {
        json::Value stats;
        if (!loadJson(opt.stats, stats))
            return 2;
        std::vector<Leaf> leaves;
        flatten(stats, "", leaves);
        md += "\n## Stats: " + opt.stats + "\n\n";
        md += "| counter | value |\n|---|---:|\n";
        for (const Leaf &l : leaves)
            md += "| " + l.path + " | " + fmtNum(l.value) + " |\n";
    }

    // ---- Metrics CSV ----------------------------------------------
    if (!opt.metrics.empty()) {
        std::string text;
        if (!hopp::cli::readFile("hopp-report", opt.metrics, text))
            return 2;
        std::vector<ColumnSummary> cols;
        if (summarizeCsv(text, cols)) {
            md += "\n## Metrics: " + opt.metrics + "\n\n";
            md += "| gauge | last | min | max | samples |\n"
                  "|---|---:|---:|---:|---:|\n";
            for (const ColumnSummary &c : cols) {
                md += "| " + c.name + " | " + fmtNum(c.last) + " | " +
                      fmtNum(c.min) + " | " + fmtNum(c.max) + " | " +
                      std::to_string(c.samples) + " |\n";
            }
        }
    }

    // ---- Verdict --------------------------------------------------
    if (opt.github) {
        for (const std::string &f : findings)
            std::printf("::warning title=perf-regression::%s\n",
                        f.c_str());
    }
    if (!opt.outMd.empty()) {
        if (!hopp::obs::writeFile(opt.outMd, md))
            return 2;
    } else {
        std::fputs(md.c_str(), stdout);
    }

    if (!findings.empty()) {
        std::fprintf(stderr, "hopp-report: %zu gate finding(s)\n",
                     findings.size());
        return 1;
    }
    return 0;
}

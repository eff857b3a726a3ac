// hopp-analyze: allow-file(*)
/**
 * @file
 * hopp_analyze — the HoPP tree's one static analyzer. It loads each
 * root as a whole tree (tools/analysis/model.hh), lexes every file once
 * with the shared lexer, and runs its passes over it:
 *
 *   file_rules.hh     per-file determinism and type discipline (raw
 *                     RNG, wall clocks, unordered iteration, pointer
 *                     keys, tagged-type escapes, thread primitives, ...)
 *                     on every file of every root
 *   include_graph.hh  module layering against tools/analysis/layers.conf,
 *                     rooted include paths, one guard style, and
 *                     include-cycle detection
 *   stat_reset.hh     stat-reset completeness: every registered stat
 *                     backed by a counter member must be reset by its
 *                     component's reset method, and every factory that
 *                     records member-backed stats must addResetter
 *   hotpath.hh        hot-path purity: no allocation / nondeterminism
 *                     sink reachable (via the call graph built from
 *                     symbols.hh + call_graph.hh) from the roots
 *                     declared in tools/analysis/hotpaths.conf
 *
 * Usage:
 *   hopp_analyze [--layers FILE] [--hotpaths FILE] [--json]
 *                [--verbose] ROOT...
 *   hopp_analyze --self-test FIXTURE_DIR
 *
 * With no --layers, ROOT/layers.conf is used when present; with no
 * --hotpaths, ROOT/hotpaths.conf — either file being absent skips
 * that pass (the remaining passes still run). A loaded layer contract
 * also scopes the three tree passes: they run on a root only when the
 * contract declares one of its modules, so `--layers ... src tools`
 * checks tools/ with the per-file rules alone. --json prints the
 * findings as a machine-readable array (for CI annotations) instead
 * of the human lines. --self-test treats each immediate subdirectory
 * of FIXTURE_DIR as an independent tree and checks the emitted
 * diagnostics against `hopp-analyze-expect(rule)` markers.
 *
 * Exit codes: 0 clean, 1 violations (or self-test mismatch), 2 usage /
 * IO error.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "analysis/call_graph.hh"
#include "analysis/file_rules.hh"
#include "analysis/hotpath.hh"
#include "analysis/include_graph.hh"
#include "analysis/model.hh"
#include "analysis/stat_reset.hh"
#include "analysis/symbols.hh"
#include "obs/json.hh"

namespace
{

namespace fs = std::filesystem;
using namespace hopp::analysis;

struct Options
{
    std::string layersFile;
    std::string hotpathsFile;
    bool selfTest = false;
    bool verbose = false;
    bool json = false;
    std::vector<std::string> roots;
};

/** The tree passes: layering and includes, stat resets, hot paths. */
void
treePasses(SourceTree &tree, const LayerConfig &cfg,
           const HotpathConfig &hconf, const Options &opt)
{
    includeGraphPass(tree, cfg);

    SymbolIndex sym = buildSymbolIndex(tree);
    StatResetSummary stats;
    statResetPass(tree, sym.classes, stats);
    if (opt.verbose) {
        std::fprintf(stderr,
                     "hopp_analyze: %d stat factories, %d records "
                     "resolved to members, %d skipped as derived\n",
                     stats.factories, stats.recordsResolved,
                     stats.recordsSkipped);
    }

    if (hconf.loaded) {
        CallGraph cg = buildCallGraph(sym);
        HotpathSummary hp;
        hotpathPass(tree, sym, cg, hconf, hp);
        if (opt.verbose) {
            std::fprintf(
                stderr,
                "hopp_analyze: call graph %zu functions; hotpath "
                "%d/%d roots matched, %d reachable functions, %d "
                "unresolved calls, %d sink sites\n",
                cg.nodes.size(), hp.matchedRoots, hp.roots,
                hp.reachable, hp.unresolved, hp.findings);
            for (std::size_t n = 0; n < cg.nodes.size(); ++n)
                for (const auto &u : cg.unresolved[n])
                    std::fprintf(stderr,
                                 "hopp_analyze:   unresolved in %s: "
                                 "%s\n",
                                 cg.nodes[n].qual().c_str(),
                                 u.c_str());
        }
    }
}

/** Analyze one tree; returns its diagnostics, sorted. */
std::vector<Diag>
analyzeRoot(const fs::path &root, const Options &opt)
{
    SourceTree tree = loadTree(root);

    fs::path conf = opt.layersFile.empty() ? root / "layers.conf"
                                           : fs::path(opt.layersFile);
    LayerConfig cfg = loadLayerConfig(conf);
    if (!cfg.error.empty()) {
        std::fprintf(stderr, "hopp_analyze: %s: %s\n",
                     conf.string().c_str(), cfg.error.c_str());
        std::exit(2);
    }
    fs::path hconf_path = opt.hotpathsFile.empty()
                              ? root / "hotpaths.conf"
                              : fs::path(opt.hotpathsFile);
    HotpathConfig hconf = loadHotpathConfig(hconf_path);
    if (!hconf.error.empty()) {
        std::fprintf(stderr, "hopp_analyze: %s\n", hconf.error.c_str());
        std::exit(2);
    }
    // A layer contract describes the tree whose modules it declares;
    // another root (tools/ beside src/) gets the per-file rules only.
    bool in_scope = !cfg.loaded ||
                    std::any_of(tree.files.begin(), tree.files.end(),
                                [&](const SourceFile &f) {
                                    return cfg.layerOf.count(f.module) != 0;
                                });
    if (opt.verbose) {
        std::fprintf(
            stderr,
            "hopp_analyze: %s: %zu files, layers.conf %s, "
            "hotpaths.conf %s%s\n",
            root.string().c_str(), tree.files.size(),
            cfg.loaded ? "loaded" : "absent (layering skipped)",
            hconf.loaded ? "loaded" : "absent (hotpath skipped)",
            in_scope ? "" : "; no declared module, per-file rules only");
    }

    fileRulesPass(tree);
    if (in_scope)
        treePasses(tree, cfg, hconf, opt);
    std::sort(tree.diags.begin(), tree.diags.end());
    return tree.diags;
}

void
printDiags(const std::vector<Diag> &diags, const std::string &prefix)
{
    for (const auto &d : diags)
        std::printf("%s%s:%d: [%s] %s\n", prefix.c_str(),
                    d.file.c_str(), d.line, d.rule.c_str(),
                    d.message.c_str());
}

/**
 * Machine-readable findings: a JSON array, one object per diagnostic.
 * `path` is the repo-relative location CI can annotate (`file` is
 * root-relative as printed by the human output; hotpath-root diags
 * already carry the config path).
 */
void
printJson(const std::vector<std::pair<std::string, std::vector<Diag>>>
              &by_root)
{
    using hopp::obs::json::appendQuoted;
    std::string out = "[";
    bool first = true;
    for (const auto &[root, diags] : by_root) {
        for (const auto &d : diags) {
            std::string path = d.rule == "hotpath-root" || root == "."
                                   ? d.file
                                   : root + "/" + d.file;
            out += first ? "\n  {\"root\": " : ",\n  {\"root\": ";
            appendQuoted(out, root);
            out += ", \"file\": ";
            appendQuoted(out, d.file);
            out += ", \"path\": ";
            appendQuoted(out, path);
            out += ", \"line\": " + std::to_string(d.line);
            out += ", \"rule\": ";
            appendQuoted(out, d.rule);
            out += ", \"message\": ";
            appendQuoted(out, d.message);
            out += "}";
            first = false;
        }
    }
    out += first ? "]\n" : "\n]\n";
    std::fputs(out.c_str(), stdout);
}

/**
 * Self-test over fixture trees: each immediate subdirectory of
 * `fixture_dir` is analyzed on its own (with its own layers.conf /
 * hotpaths.conf, when present) and the diagnostics must match the
 * `hopp-analyze-expect` markers in its files, line by line and rule
 * by rule.
 */
int
runSelfTest(const fs::path &fixture_dir, bool verbose)
{
    if (!fs::is_directory(fixture_dir)) {
        std::fprintf(stderr, "hopp_analyze: --self-test: %s is not a "
                             "directory\n",
                     fixture_dir.string().c_str());
        return 2;
    }
    int expected = 0, emitted = 0, mismatches = 0;
    std::vector<fs::path> subdirs;
    for (const auto &entry : fs::directory_iterator(fixture_dir))
        if (entry.is_directory())
            subdirs.push_back(entry.path());
    std::sort(subdirs.begin(), subdirs.end());

    for (const auto &dir : subdirs) {
        SourceTree tree = loadTree(dir);
        std::set<std::pair<std::string, std::pair<int, std::string>>>
            want;
        for (const auto &f : tree.files)
            for (const auto &[line, rule] : f.directives.expects)
                want.insert({f.rel, {line, rule}});
        expected += static_cast<int>(want.size());

        Options fixture_opt;
        fixture_opt.verbose = verbose;
        auto diags = analyzeRoot(dir, fixture_opt);
        emitted += static_cast<int>(diags.size());
        auto left = want;
        for (const auto &d : diags) {
            std::pair<std::string, std::pair<int, std::string>> key{
                d.file, {d.line, d.rule}};
            if (left.erase(key))
                continue;
            ++mismatches;
            std::printf("SPURIOUS %s/%s:%d: [%s] %s\n",
                        dir.filename().string().c_str(),
                        d.file.c_str(), d.line, d.rule.c_str(),
                        d.message.c_str());
        }
        for (const auto &[file, at] : left) {
            ++mismatches;
            std::printf("MISSING  %s/%s:%d: [%s] expected but not "
                        "emitted\n",
                        dir.filename().string().c_str(), file.c_str(),
                        at.first, at.second.c_str());
        }
    }
    std::printf("hopp_analyze self-test: %d expected, %d emitted, %d "
                "mismatches\n",
                expected, emitted, mismatches);
    return mismatches == 0 ? 0 : 1;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: hopp_analyze [--layers FILE] [--hotpaths "
                 "FILE] [--json] [--verbose] ROOT...\n"
                 "       hopp_analyze --self-test FIXTURE_DIR\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--layers" && i + 1 < argc) {
            opt.layersFile = argv[++i];
        } else if (arg == "--hotpaths" && i + 1 < argc) {
            opt.hotpathsFile = argv[++i];
        } else if (arg == "--self-test") {
            opt.selfTest = true;
        } else if (arg == "--verbose") {
            opt.verbose = true;
        } else if (arg == "--json") {
            opt.json = true;
        } else if (arg.rfind("--", 0) == 0) {
            return usage();
        } else {
            opt.roots.push_back(arg);
        }
    }
    if (opt.roots.empty())
        return usage();

    if (opt.selfTest) {
        if (opt.roots.size() != 1)
            return usage();
        return runSelfTest(opt.roots[0], opt.verbose);
    }

    int total = 0;
    std::vector<std::pair<std::string, std::vector<Diag>>> by_root;
    for (const auto &root : opt.roots) {
        if (!fs::exists(root)) {
            std::fprintf(stderr, "hopp_analyze: %s: no such path\n",
                         root.c_str());
            return 2;
        }
        auto diags = analyzeRoot(root, opt);
        if (!opt.json)
            printDiags(diags, opt.roots.size() > 1 ? root + ": " : "");
        total += static_cast<int>(diags.size());
        by_root.emplace_back(root, std::move(diags));
    }
    if (opt.json)
        printJson(by_root);
    if (total)
        std::fprintf(stderr, "hopp_analyze: %d violation%s\n", total,
                     total == 1 ? "" : "s");
    return total == 0 ? 0 : 1;
}

/**
 * @file
 * Hot-path purity pass: no allocation and no nondeterminism reachable
 * from the declared simulator hot loops.
 *
 * PR 4 made the event core allocation-free and PR 5 made the access
 * path TLB-fast; per-file token lints and one zero-alloc test guard
 * those wins, but neither sees through a call. This pass walks the
 * conservative call graph (call_graph.hh) from a set of declared
 * *roots* and reports every *forbidden sink* reachable from them,
 * with the full call chain in the diagnostic.
 *
 * Roots and sink families come from `hotpaths.conf` (default:
 * `<root>/hotpaths.conf`, override with --hotpaths):
 *
 *   # comment
 *   root EventQueue::runOne      # Cls::method or a free function
 *   sink alloc                   # enable a sink family
 *
 * Families and their rules:
 *
 *   alloc      hotpath-alloc      `new`, make_unique/make_shared,
 *                                 to_string, container growth
 *                                 (push_back & co) on a receiver with
 *                                 no reserve() call in scope
 *   func       hotpath-func       std::function construction
 *   clock      hotpath-clock      chrono, and the wall-clock readers
 *                                 of clockTokens() (file_rules.hh)
 *   rng        hotpath-rng        mt19937 engines, and the host
 *                                 randomness of rngTokens() —
 *                                 hopp::Pcg32 is the blessed
 *                                 deterministic source
 *   unordered  hotpath-unordered  iteration over unordered containers
 *                                 (host-hash ordering leaks into
 *                                 event order)
 *   thread     hotpath-thread     the std:: primitives of
 *                                 threadTokens()
 *   io         hotpath-io         iostream/stdio on the hot path
 *
 * Every diagnostic prints the complete root→sink call chain plus the
 * root's unresolved-call count (the honest-conservatism contract: a
 * clean run with a high unresolved count is weaker evidence than a
 * clean run with zero, and the reader gets to know which they have).
 * Suppression uses the one justified-allow syntax (model.hh) on or
 * above the sink statement; a missing config file skips the pass
 * (trees without declared hot paths have nothing to check).
 *
 * Extra rule outside the families: `hotpath-root` fires when a
 * declared root matches no function in the tree — a renamed hot loop
 * must not silently disarm the watchdog.
 */

#pragma once

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/call_graph.hh"
#include "analysis/file_rules.hh"
#include "analysis/model.hh"
#include "analysis/symbols.hh"

namespace hopp::analysis
{

/** Parsed hotpaths.conf. */
struct HotpathConfig
{
    bool loaded = false;
    std::string file; //!< path as given, for diagnostics
    /// (root spec, conf line) in declaration order.
    std::vector<std::pair<std::string, int>> roots;
    std::set<std::string> families;
    std::string error; //!< nonempty when the file failed to parse
};

/** Counters of the pass, surfaced by --verbose. */
struct HotpathSummary
{
    int roots = 0;
    int matchedRoots = 0;
    int reachable = 0;   //!< functions reachable from any root
    int findings = 0;
    int unresolved = 0;  //!< unresolved calls under any root
};

inline bool
knownSinkFamily(const std::string &f)
{
    return f == "alloc" || f == "func" || f == "clock" || f == "rng" ||
           f == "unordered" || f == "thread" || f == "io";
}

/** Load hotpaths.conf; `loaded` false when the file does not exist. */
inline HotpathConfig
loadHotpathConfig(const std::filesystem::path &path)
{
    HotpathConfig conf;
    conf.file = path.generic_string();
    std::ifstream in(path);
    if (!in)
        return conf;
    conf.loaded = true;
    std::string line;
    for (int lineno = 1; std::getline(in, line); ++lineno) {
        std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream ss(line);
        std::string kw, arg, extra;
        if (!(ss >> kw))
            continue;
        if (!(ss >> arg) || (ss >> extra)) {
            conf.error = conf.file + ":" + std::to_string(lineno) +
                         ": expected '<root|sink> <arg>'";
            return conf;
        }
        if (kw == "root") {
            conf.roots.emplace_back(arg, lineno);
        } else if (kw == "sink") {
            if (!knownSinkFamily(arg)) {
                conf.error = conf.file + ":" +
                             std::to_string(lineno) +
                             ": unknown sink family '" + arg + "'";
                return conf;
            }
            conf.families.insert(arg);
        } else {
            conf.error = conf.file + ":" + std::to_string(lineno) +
                         ": unknown directive '" + kw + "'";
            return conf;
        }
    }
    return conf;
}

namespace hotpath_detail
{

using namespace callgraph_detail;

/** One forbidden-sink site inside a function body. */
struct Sink
{
    std::string family;
    int line = 0;
    std::string desc;
};

/** Does `tokens` contain `name . reserve (`? */
inline bool
hasReserveCall(const std::vector<CodeToken> &tokens,
               const std::string &name)
{
    for (std::size_t i = 0; i + 3 < tokens.size(); ++i)
        if (isIdent(tokens[i]) && tokens[i].text == name &&
            tokens[i + 1].text == "." &&
            tokens[i + 2].text == "reserve" &&
            tokens[i + 3].text == "(")
            return true;
    return false;
}

/**
 * Is container growth on `recv` excused by a reserve() call in scope —
 * same body for locals, any method of the enclosing class for
 * members?
 */
inline bool
reservedExempt(const SymbolIndex &sym, const TypeEnv &env,
               const std::vector<CodeToken> &body,
               const std::string &recv)
{
    if (hasReserveCall(body, recv))
        return true;
    // Not a local: class state (a member, or a field reached through
    // a parameter/member — `e.vpns`); a reserve() anywhere in the
    // class's methods manages its capacity.
    if (env.cls && env.vars.count(recv) == 0) {
        for (const auto &m : env.cls->methods)
            if (hasReserveCall(m.body, recv))
                return true;
    }
    (void)sym;
    return false;
}

/** Growth calls that imply allocation on any container type. */
inline bool
unambiguousGrowth(const std::string &m)
{
    return m == "push_back" || m == "emplace_back" || m == "append";
}

/**
 * Growth calls that imply allocation on std container receivers.
 * reserve() is deliberately absent: it is the controlled sizing call
 * the exemption rewards, so flagging it would make the safe idiom
 * unwritable.
 */
inline bool
containerGrowth(const std::string &m)
{
    return m == "insert" || m == "emplace" || m == "resize" ||
           m == "assign" || m == "push_front" || m == "push" ||
           m == "emplace_front";
}

/** Growth calls the reserve() exemption may excuse. */
inline bool
exemptableGrowth(const std::string &m)
{
    return m == "push_back" || m == "emplace_back" || m == "push" ||
           m == "emplace" || m == "insert" || m == "append" ||
           m == "emplace_front" || m == "push_front";
}

inline bool
unorderedBase(const std::string &b)
{
    return b.rfind("unordered_", 0) == 0;
}

/** Scan one function body for forbidden sinks of enabled families. */
inline std::vector<Sink>
collectSinks(const SymbolIndex &sym, const CallNode &node,
             const std::set<std::string> &families)
{
    std::vector<Sink> sinks;
    const auto &body = *node.body;
    TypeEnv env = buildTypeEnv(sym, node);
    auto want = [&](const char *f) { return families.count(f) != 0; };

    for (std::size_t i = 0; i < body.size(); ++i) {
        if (!isIdent(body[i]))
            continue;
        const std::string &x = body[i].text;
        const std::string next =
            i + 1 < body.size() ? body[i + 1].text : "";
        bool called = next == "(";
        bool stdQual = i >= 1 && body[i - 1].text == ":";

        // --- alloc ---------------------------------------------------
        if (want("alloc")) {
            // `new (buf) T` is placement new into existing storage —
            // the event core's inline-callable idiom — not a heap
            // allocation.
            if (x == "new" && next != "(") {
                sinks.push_back({"alloc", body[i].line,
                                 "heap allocation via 'new'"});
                continue;
            }
            if ((x == "make_unique" || x == "make_shared" ||
                 x == "to_string") &&
                (called || next == "<")) {
                sinks.push_back({"alloc", body[i].line,
                                 "heap allocation via 'std::" + x +
                                     "'"});
                continue;
            }
            // Container growth: `recv.m(` / `recv->m(`.
            if (called &&
                (unambiguousGrowth(x) || containerGrowth(x)) && i >= 2 &&
                (body[i - 1].text == "." ||
                 (body[i - 1].text == ">" && i >= 3 &&
                  body[i - 2].text == "-"))) {
                std::size_t recv_at =
                    body[i - 1].text == "." ? i - 2 : i - 3;
                std::string recv, base;
                if (isIdent(body[recv_at])) {
                    recv = body[recv_at].text;
                    base = env.canonical(
                        resolveReceiver(sym, env, node.cls, body,
                                        recv_at)
                            .base);
                }
                bool project = !base.empty() &&
                               sym.findClass(base) != nullptr;
                bool container = containerBases().count(base) != 0;
                bool unknown = base.empty();
                bool growth =
                    !project && (container ||
                                 (unknown && unambiguousGrowth(x)));
                if (growth && exemptableGrowth(x) && !recv.empty() &&
                    reservedExempt(sym, env, body, recv))
                    growth = false;
                if (growth) {
                    std::string who =
                        recv.empty() ? "<expr>" : recv;
                    sinks.push_back(
                        {"alloc", body[i].line,
                         "container growth '" + who + "." + x +
                             "(...)' with no reserve() in scope"});
                    continue;
                }
            }
        }

        // --- func ----------------------------------------------------
        if (want("func") && x == "function" && next == "<") {
            sinks.push_back({"func", body[i].line,
                             "std::function construction"});
            continue;
        }

        // --- clock ---------------------------------------------------
        if (want("clock") &&
            (x == "chrono" || familyHas(clockTokens(), x, called))) {
            sinks.push_back({"clock", body[i].line,
                             "wall-clock access via '" + x + "'"});
            continue;
        }

        // --- rng -----------------------------------------------------
        if (want("rng") && (x == "mt19937" || x == "mt19937_64" ||
                            familyHas(rngTokens(), x, called))) {
            sinks.push_back({"rng", body[i].line,
                             "host RNG via '" + x + "'"});
            continue;
        }

        // --- unordered -----------------------------------------------
        if (want("unordered")) {
            // `.begin(` on an unordered-typed receiver.
            if (x == "begin" && called && i >= 2 &&
                body[i - 1].text == "." && isIdent(body[i - 2])) {
                std::string base = env.canonical(
                    env.resolve(body[i - 2].text).base);
                if (unorderedBase(base)) {
                    sinks.push_back(
                        {"unordered", body[i].line,
                         "iteration over unordered container '" +
                             body[i - 2].text + "'"});
                    continue;
                }
            }
            // Range-for over an unordered-typed container.
            if (x == "for" && next == "(") {
                std::size_t close = matchForward(body, i + 1);
                for (std::size_t j = i + 2;
                     j + 1 < close && close < body.size(); ++j) {
                    if (body[j].text == ":" &&
                        body[j - 1].text != ":" &&
                        body[j + 1].text != ":" &&
                        isIdent(body[j + 1])) {
                        std::string base = env.canonical(
                            env.resolve(body[j + 1].text).base);
                        if (unorderedBase(base))
                            sinks.push_back(
                                {"unordered", body[j + 1].line,
                                 "iteration over unordered "
                                 "container '" +
                                     body[j + 1].text + "'"});
                        break;
                    }
                }
            }
        }

        // --- thread --------------------------------------------------
        if (want("thread") && threadTokens().count(x) != 0 &&
            (stdQual || next == "<")) {
            sinks.push_back({"thread", body[i].line,
                             "thread primitive 'std::" + x + "'"});
            continue;
        }

        // --- io ------------------------------------------------------
        if (want("io")) {
            bool stream = x == "cout" || x == "cerr" || x == "clog";
            bool cio =
                called &&
                (x == "printf" || x == "fprintf" || x == "puts" ||
                 x == "putchar" || x == "fwrite" || x == "fread" ||
                 x == "fopen" || x == "fflush" || x == "scanf" ||
                 x == "getline");
            if (stream || cio) {
                sinks.push_back({"io", body[i].line,
                                 "host I/O via '" + x + "'"});
                continue;
            }
        }
    }
    return sinks;
}

} // namespace hotpath_detail

/**
 * Run the hotpath pass: BFS the call graph from each configured root,
 * report every reachable sink with its full call chain and the
 * root's unresolved-call count.
 */
inline void
hotpathPass(SourceTree &tree, const SymbolIndex &sym,
            const CallGraph &cg, const HotpathConfig &conf,
            HotpathSummary &summary)
{
    using namespace hotpath_detail;
    if (!conf.loaded)
        return;

    std::map<std::size_t, std::vector<Sink>> sink_cache;
    std::set<std::size_t> any_reachable;
    // Dedup across roots: the first root (in conf order) reaching a
    // sink owns its diagnostic.
    std::set<std::string> seen;

    summary.roots = static_cast<int>(conf.roots.size());
    for (const auto &[spec, conf_line] : conf.roots) {
        std::vector<std::size_t> starts = cg.findNodes(spec);
        if (starts.empty()) {
            // A renamed hot loop must not silently disarm the pass.
            tree.diags.push_back(
                {conf.file, conf_line, "hotpath-root",
                 "root '" + spec +
                     "' matches no function in the tree — renamed "
                     "hot loop? fix hotpaths.conf or the code"});
            continue;
        }
        ++summary.matchedRoots;

        // BFS with parent pointers: shortest chain per function.
        std::map<std::size_t, std::size_t> parent;
        std::set<std::size_t> visited(starts.begin(), starts.end());
        std::vector<std::size_t> queue(starts.begin(), starts.end());
        for (std::size_t qi = 0; qi < queue.size(); ++qi) {
            std::size_t n = queue[qi];
            for (std::size_t tgt : cg.callees[n]) {
                if (visited.insert(tgt).second) {
                    parent[tgt] = n;
                    queue.push_back(tgt);
                }
            }
        }

        int unresolved = 0;
        for (std::size_t n : visited)
            unresolved +=
                static_cast<int>(cg.unresolved[n].size());
        any_reachable.insert(visited.begin(), visited.end());
        summary.unresolved += unresolved;

        std::string tail =
            "; root " + spec + ": " + std::to_string(unresolved) +
            " unresolved call(s) across " +
            std::to_string(visited.size()) + " reachable function(s)";

        for (std::size_t n : queue) {
            auto cached = sink_cache.find(n);
            if (cached == sink_cache.end())
                cached = sink_cache
                             .emplace(n, collectSinks(
                                             sym, cg.nodes[n],
                                             conf.families))
                             .first;
            if (cached->second.empty())
                continue;
            // Chain root -> ... -> n.
            std::vector<std::string> chain;
            for (std::size_t c = n;;) {
                chain.push_back(cg.nodes[c].qual());
                auto p = parent.find(c);
                if (p == parent.end())
                    break;
                c = p->second;
            }
            std::string path;
            for (std::size_t ci = chain.size(); ci-- > 0;) {
                path += chain[ci];
                if (ci > 0)
                    path += " -> ";
            }
            const SourceFile *f = tree.find(cg.nodes[n].file);
            if (!f)
                continue;
            for (const Sink &s : cached->second) {
                std::string rule = "hotpath-" + s.family;
                std::string key = cg.nodes[n].file + ":" +
                                  std::to_string(s.line) + ":" + rule;
                if (!seen.insert(key).second)
                    continue;
                ++summary.findings;
                tree.report(*f, s.line, rule.c_str(),
                            s.desc + " on hot path; chain: " + path +
                                tail);
            }
        }
    }
    summary.reachable = static_cast<int>(any_reachable.size());
}

} // namespace hopp::analysis

/**
 * @file
 * Per-file determinism and type-discipline rules, run by hopp_analyze
 * over every file it loads.
 *
 * The simulator's paper-figure reproducibility rests on every run being
 * a pure function of the configuration and seed. These rules flag, one
 * file at a time, the constructs that historically break that
 * property:
 *
 *   raw-rand          std::rand/srand/random/drand48 — process-global
 *                     RNG state; use hopp::Pcg32.
 *   random-device     std::random_device — hardware entropy makes runs
 *                     unrepeatable.
 *   wall-clock        system_clock / steady_clock / gettimeofday /
 *                     time() / clock() — all simulated time must be
 *                     sim::EventQueue ticks. obs/profiler.* is the one
 *                     sanctioned reader (it times the simulator itself
 *                     and is proven side-effect free by the profiler
 *                     on/off byte-identity test).
 *   unordered-iter    a for-header over a variable declared as
 *                     std::unordered_map/unordered_set in the file or
 *                     its sibling header — iteration order is
 *                     unspecified, so any order-sensitive consumer
 *                     diverges across stdlibs.
 *   ptr-key           std::map/std::set keyed by a pointer — iteration
 *                     follows allocation addresses, which ASLR
 *                     randomises run to run.
 *   raw-int-addr      a raw std::uint64_t / unsigned long long declared
 *                     in a header with an address/page/tick vocabulary
 *                     name (pa, va, vpn, ppn, pfn, addr, tick, page) —
 *                     use the tagged types of common/types.hh.
 *   page-shift        manual `<< pageShift` / `>> pageShift` outside
 *                     common/types.hh — use pageOf()/pageBase().
 *   raw               .raw() unwrapping of a tagged type — the escape
 *                     hatch is for serialization/stats boundaries and
 *                     carries a justified allow.
 *   obs-chrono        any std::chrono in the obs/ module except
 *                     obs/profiler.* — trace timestamps are simulator
 *                     ticks, so traces stay byte-deterministic.
 *   sim-std-function  std::function in the sim/ module — closures go
 *                     through sim::InlineEvent or a template parameter,
 *                     so the event core stays allocation-free.
 *   thread-primitive  raw std::thread / mutex / atomic / futures
 *                     outside runner/sweep* — simulation code is
 *                     single-threaded by contract; host parallelism is
 *                     whole runs behind runner::SweepPool.
 *
 * Carve-outs match the root-relative path (SourceFile::rel/module), so
 * they hold for src/ and for the self-test trees alike. Token rules
 * match lexed code tokens; line rules match the comment-stripped,
 * literal-blanked line text, so prose and string payloads never fire.
 *
 * The clock, rng and thread families below are one token list each,
 * read by these rules and by the hot-path sinks (hotpath.hh) alike.
 */

#pragma once

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "analysis/model.hh"

namespace hopp::analysis
{

/**
 * Host wall-clock readers. An entry spelled `name()` matches a call
 * only; a bare name matches any use.
 */
inline const std::set<std::string> &
clockTokens()
{
    static const std::set<std::string> s = {
        "system_clock", "steady_clock", "high_resolution_clock",
        "time()", "clock()", "gettimeofday()", "clock_gettime()",
    };
    return s;
}

/**
 * Host randomness: process-global generators (called) and hardware
 * entropy (any use). Same entry spelling as clockTokens().
 */
inline const std::set<std::string> &
rngTokens()
{
    static const std::set<std::string> s = {
        "random_device", "rand()", "srand()", "rand_r()", "random()",
        "srandom()", "drand48()", "lrand48()",
    };
    return s;
}

/** Host thread primitives, as std:: members. */
inline const std::set<std::string> &
threadTokens()
{
    static const std::set<std::string> s = {
        "thread", "jthread", "mutex", "recursive_mutex", "shared_mutex",
        "atomic", "condition_variable", "lock_guard", "unique_lock",
        "scoped_lock", "future", "promise", "async",
    };
    return s;
}

/** Is `entry` of a token family a call-only (`name()`) entry? */
inline bool
callEntry(const std::string &entry)
{
    return entry.size() > 2 && entry.compare(entry.size() - 2, 2, "()") == 0;
}

/** Does identifier `x` (called or not) hit an entry of `family`? */
inline bool
familyHas(const std::set<std::string> &family, const std::string &x,
          bool called)
{
    return family.count(x) != 0 || (called && family.count(x + "()") != 0);
}

namespace file_rules_detail
{

inline bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

/**
 * Does `tok` occur in `line` at identifier boundaries? With `call`,
 * it must also be followed by '('.
 */
inline bool
hasToken(const std::string &line, const std::string &tok, bool call)
{
    std::size_t pos = 0;
    while ((pos = line.find(tok, pos)) != std::string::npos) {
        std::size_t end = pos + tok.size();
        bool left_ok = pos == 0 || !detail::identChar(line[pos - 1]);
        bool right_ok = end < line.size() && line[end] == '(';
        if (!call)
            right_ok = end >= line.size() || !detail::identChar(line[end]);
        if (left_ok && right_ok)
            return true;
        pos = end;
    }
    return false;
}

/** Does a token-family entry occur in `line`? */
inline bool
lineHas(const std::string &line, const std::string &entry)
{
    if (callEntry(entry))
        return hasToken(line, entry.substr(0, entry.size() - 2), true);
    return hasToken(line, entry, false);
}

/** Append the names declared as unordered containers in `code`. */
inline void
unorderedDecls(const std::vector<CodeToken> &code,
               std::vector<std::string> &names)
{
    for (std::size_t i = 0; i + 1 < code.size(); ++i) {
        if (code[i].kind != TokKind::Ident ||
            (code[i].text != "unordered_map" &&
             code[i].text != "unordered_set"))
            continue;
        if (code[i + 1].text != "<")
            continue;
        // Walk to the matching '>' of the template argument list.
        std::size_t j = i + 1;
        int depth = 0;
        for (; j < code.size(); ++j) {
            if (code[j].text == "<")
                ++depth;
            else if (code[j].text == ">" && --depth == 0)
                break;
        }
        // The declared name is the next identifier (skip &, *); any
        // other token means a type mention, not a declaration.
        for (++j; j < code.size(); ++j) {
            if (code[j].kind == TokKind::Ident) {
                names.push_back(code[j].text);
                break;
            }
            if (code[j].text != "&" && code[j].text != "*")
                break;
        }
    }
}

/**
 * unordered-iter: any use of a declared unordered container inside a
 * `for (...)` header (range-for or begin()/end() alike). Members
 * declared in the class header are iterated from the .cc, so the
 * sibling header's declarations count too.
 */
inline void
unorderedIterRule(SourceTree &tree, const SourceFile &f)
{
    std::vector<std::string> names;
    std::filesystem::path sibling(f.rel);
    std::string ext = sibling.extension().string();
    if (ext == ".cc" || ext == ".cpp") {
        for (const char *hdr_ext : {".hh", ".hpp"}) {
            sibling.replace_extension(hdr_ext);
            const SourceFile *h = tree.find(sibling.generic_string());
            if (h) {
                unorderedDecls(h->code, names);
                break;
            }
        }
    }
    unorderedDecls(f.code, names);

    const std::vector<CodeToken> &code = f.code;
    for (std::size_t i = 0; i + 1 < code.size(); ++i) {
        if (code[i].kind != TokKind::Ident || code[i].text != "for" ||
            code[i + 1].text != "(")
            continue;
        std::size_t close = matchForward(code, i + 1);
        for (std::size_t j = i + 2; j < close && j < code.size(); ++j) {
            if (code[j].kind != TokKind::Ident ||
                std::find(names.begin(), names.end(), code[j].text) ==
                    names.end())
                continue;
            tree.report(f, code[i].line, "unordered-iter",
                        "iteration over unordered container '" +
                            code[j].text +
                            "' has unspecified order; sort keys first "
                            "or justify order-insensitivity with an "
                            "allow comment");
            break; // one diagnostic per for-header
        }
    }
}

/**
 * ptr-key: std::map< K or std::set< K whose key argument has a '*' at
 * template depth 1.
 */
inline void
ptrKeyRule(SourceTree &tree, const SourceFile &f)
{
    const std::vector<CodeToken> &code = f.code;
    for (std::size_t i = 0; i + 4 < code.size(); ++i) {
        if (code[i].kind != TokKind::Ident || code[i].text != "std" ||
            code[i + 1].text != ":" || code[i + 2].text != ":" ||
            (code[i + 3].text != "map" && code[i + 3].text != "set") ||
            code[i + 4].text != "<")
            continue;
        int depth = 0;
        for (std::size_t j = i + 4; j < code.size(); ++j) {
            const std::string &t = code[j].text;
            if (t == "<") {
                ++depth;
            } else if (t == ">") {
                if (--depth == 0)
                    break;
            } else if (depth == 1 && t == ",") {
                break; // end of the key argument
            } else if (t == "*") {
                tree.report(f, code[i].line, "ptr-key",
                            "std::map/std::set keyed by a pointer "
                            "iterates in allocation-address order, "
                            "which ASLR randomises");
                break;
            } else if (t == ";" || t == "{") {
                break; // not a template argument list after all
            }
        }
    }
}

/** raw: every `.raw(` token sequence. */
inline void
rawRule(SourceTree &tree, const SourceFile &f)
{
    const std::vector<CodeToken> &code = f.code;
    for (std::size_t i = 0; i + 2 < code.size(); ++i) {
        if (code[i].text == "." && code[i + 1].kind == TokKind::Ident &&
            code[i + 1].text == "raw" && code[i + 2].text == "(")
            tree.report(f, code[i].line, "raw",
                        ".raw() unwraps a tagged type; confine it to "
                        "serialization/stats boundaries and justify "
                        "with hopp-analyze: allow(raw)");
    }
}

/** Lowercased words of an identifier (camelCase and snake_case). */
inline std::vector<std::string>
identWords(const std::string &ident)
{
    std::vector<std::string> words(1);
    for (char c : ident) {
        bool upper = c >= 'A' && c <= 'Z';
        if ((c == '_' || upper) && !words.back().empty())
            words.emplace_back();
        if (upper)
            words.back() += static_cast<char>(c - 'A' + 'a');
        else if (c != '_')
            words.back() += c;
    }
    return words;
}

/**
 * raw-int-addr: a raw 64-bit integer token whose following identifier
 * (the declared parameter, member or function) has a whole word of
 * address/page/tick vocabulary — `pageKey` and `fault_addr` fire,
 * counts like `hotPages` do not. Returns that identifier, or "".
 */
inline std::string
rawIntAddr(const std::string &line)
{
    static const std::set<std::string> vocab = {
        "pa", "va", "vpn", "ppn", "pfn", "addr", "address", "tick",
        "page",
    };
    for (const std::string tok : {"uint64_t", "unsigned long long"}) {
        std::size_t pos = 0;
        while ((pos = line.find(tok, pos)) != std::string::npos) {
            bool left_ok = pos == 0 || !detail::identChar(line[pos - 1]);
            std::size_t i = pos + tok.size();
            pos = i;
            if (!left_ok || (i < line.size() && detail::identChar(line[i])))
                continue;
            while (i < line.size() && std::strchr(" \t&*", line[i]))
                ++i;
            std::string name;
            while (i < line.size() && detail::identChar(line[i]))
                name += line[i++];
            for (const std::string &w : identWords(name))
                if (vocab.count(w))
                    return name;
        }
    }
    return "";
}

/** page-shift: `pageShift` as the right operand of << or >>. */
inline bool
manualPageShift(const std::string &line)
{
    const std::string tok = "pageShift";
    std::size_t pos = 0;
    while ((pos = line.find(tok, pos)) != std::string::npos) {
        std::size_t end = pos + tok.size();
        bool ident = (pos > 0 && detail::identChar(line[pos - 1])) ||
                     (end < line.size() && detail::identChar(line[end]));
        std::size_t j = pos;
        while (j > 0 && (line[j - 1] == ' ' || line[j - 1] == '\t'))
            --j;
        bool shifted = j >= 2 && (line.compare(j - 2, 2, "<<") == 0 ||
                                  line.compare(j - 2, 2, ">>") == 0);
        if (!ident && shifted)
            return true;
        pos = end;
    }
    return false;
}

/** The first entry of `family` that `line` hits, or "". */
inline std::string
firstHit(const std::string &line, const std::set<std::string> &family,
         bool calls)
{
    for (const std::string &entry : family)
        if (callEntry(entry) == calls && lineHas(line, entry))
            return entry;
    return "";
}

/** The rules that read the stripped text line by line. */
inline void
lineRules(SourceTree &tree, const SourceFile &f)
{
    // The host self-profiler is the one sanctioned wall-clock reader,
    // and the sweep pool the one home for host threads; a basename
    // prefix covers files split out beside them.
    const bool profiler = startsWith(f.rel, "obs/profiler.");
    const bool sweep = startsWith(f.rel, "runner/sweep");
    const bool types_hh = f.rel == "common/types.hh";

    for (std::size_t n = 0; n < f.lines.size(); ++n) {
        const std::string &line = f.lines[n];
        const int at = static_cast<int>(n + 1);

        std::string rand_call = firstHit(line, rngTokens(), true);
        if (!rand_call.empty())
            tree.report(f, at, "raw-rand",
                        rand_call +
                            " uses process-global RNG state; use "
                            "hopp::Pcg32 seeded from the workload seed");
        std::string entropy = firstHit(line, rngTokens(), false);
        if (!entropy.empty())
            tree.report(f, at, "random-device",
                        "std::" + entropy +
                            " draws hardware entropy; runs become "
                            "unrepeatable");
        std::string clock = firstHit(line, clockTokens(), false);
        if (clock.empty())
            clock = firstHit(line, clockTokens(), true);
        if (!profiler && !clock.empty())
            tree.report(f, at, "wall-clock",
                        clock +
                            " reads wall-clock time; simulated time "
                            "must come from sim::EventQueue ticks "
                            "(host timing belongs in obs/profiler.*)");
        std::string addr_ident = f.header ? rawIntAddr(line) : "";
        if (!addr_ident.empty())
            tree.report(f, at, "raw-int-addr",
                        "raw 64-bit integer '" + addr_ident +
                            "' carries address/page/tick vocabulary; "
                            "use the tagged types in common/types.hh");
        if (!types_hh && manualPageShift(line))
            tree.report(f, at, "page-shift",
                        "manual pageShift arithmetic outside "
                        "common/types.hh; use pageOf()/pageBase() so "
                        "page geometry stays centralized");
        if (f.module == "obs" && !profiler &&
            hasToken(line, "chrono", false))
            tree.report(f, at, "obs-chrono",
                        "std::chrono in the observability layer; trace "
                        "timestamps must be simulator ticks so traces "
                        "stay byte-deterministic");
        if (f.module == "sim" &&
            line.find("std::function") != std::string::npos)
            tree.report(f, at, "sim-std-function",
                        "std::function in the simulation core; closures "
                        "must use sim::InlineEvent (or a template "
                        "parameter) so the event hot path stays "
                        "allocation-free");
        if (sweep)
            continue;
        for (const std::string &tok : threadTokens()) {
            if (line.find("std::" + tok) == std::string::npos)
                continue;
            tree.report(f, at, "thread-primitive",
                        "std::" + tok +
                            " outside runner/sweep*; simulation code is "
                            "single-threaded by contract — host "
                            "parallelism goes through runner::SweepPool");
            break;
        }
    }
}

} // namespace file_rules_detail

/** Run every per-file rule over every file of `tree`. */
inline void
fileRulesPass(SourceTree &tree)
{
    using namespace file_rules_detail;
    for (const SourceFile &f : tree.files) {
        unorderedIterRule(tree, f);
        ptrKeyRule(tree, f);
        rawRule(tree, f);
        lineRules(tree, f);
    }
}

} // namespace hopp::analysis

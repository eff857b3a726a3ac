/**
 * @file
 * Source model shared by the hopp_analyze passes.
 *
 * hopp_analyze loads a whole tree at once: every pass needs the same
 * view of it (all files lexed once, module = first path component
 * under the analyzed root) and the same diagnostic plumbing
 * (suppression comments, expect markers for the self-test). This
 * header provides both; the passes live in file_rules.hh,
 * include_graph.hh, stat_reset.hh and hotpath.hh.
 *
 * One suppression syntax covers every rule of every pass:
 *
 *   // hopp-analyze: allow(<rule>[, <rule>...])   this statement
 *   // hopp-analyze: allow-file(<rule>)           whole file
 *
 * with `*` as a wildcard, and `hopp-analyze-expect(<rule>)` markers
 * driving `--self-test`. A line allow covers its own line and the
 * statement below it: the lines after it up to the first blank line or
 * completed statement, at most 8, so one annotation above a wrapped
 * call covers every continuation line. Directives are parsed from
 * comment tokens only, so nothing inside a string literal can
 * suppress a finding.
 */

#pragma once

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/token_stream.hh"

namespace hopp::analysis
{

struct Diag
{
    std::string file; //!< path as given (root-relative for tree scans)
    int line = 0;
    std::string rule;
    std::string message;

    bool
    operator<(const Diag &o) const
    {
        if (file != o.file)
            return file < o.file;
        if (line != o.line)
            return line < o.line;
        if (rule != o.rule)
            return rule < o.rule;
        return message < o.message;
    }
};

/** Suppression + expect directives from one file's comments. */
struct Directives
{
    std::map<int, std::vector<std::string>> lineAllows;
    std::vector<std::string> fileAllows;
    std::vector<std::pair<int, std::string>> expects;
};

inline std::vector<std::string>
parseRuleList(const std::string &text, std::size_t open_paren)
{
    std::vector<std::string> rules;
    std::size_t close = text.find(')', open_paren);
    if (close == std::string::npos)
        return rules;
    std::string args = text.substr(open_paren + 1, close - open_paren - 1);
    std::string cur;
    for (char c : args) {
        if (c == ',' || c == ' ') {
            if (!cur.empty())
                rules.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        rules.push_back(cur);
    return rules;
}

/**
 * Parse the allow / allow-file directives and expect markers (syntax
 * above) from comment tokens, attributing each directive to the
 * physical line it sits on.
 */
inline Directives
parseDirectives(const std::vector<Token> &comments)
{
    const std::string kw = "hopp-analyze:";
    const std::string expect_kw = "hopp-analyze-expect(";
    Directives d;
    for (const auto &tok : comments) {
        std::istringstream in(tok.text);
        int lineno = tok.line;
        for (std::string line; std::getline(in, line); ++lineno) {
            std::size_t pos = line.find(kw);
            while (pos != std::string::npos) {
                std::size_t after = pos + kw.size();
                std::size_t file_kw = line.find("allow-file(", after);
                std::size_t line_kw = line.find("allow(", after);
                if (file_kw != std::string::npos) {
                    auto rs = parseRuleList(
                        line, file_kw + std::strlen("allow-file"));
                    d.fileAllows.insert(d.fileAllows.end(), rs.begin(),
                                        rs.end());
                } else if (line_kw != std::string::npos) {
                    auto rs = parseRuleList(
                        line, line_kw + std::strlen("allow"));
                    auto &dst = d.lineAllows[lineno];
                    dst.insert(dst.end(), rs.begin(), rs.end());
                }
                pos = line.find(kw, after);
            }
            std::size_t expect = line.find(expect_kw);
            if (expect != std::string::npos) {
                for (const auto &rule : parseRuleList(
                         line, expect + expect_kw.size() - 1))
                    d.expects.emplace_back(lineno, rule);
            }
        }
    }
    return d;
}

inline bool
listCovers(const std::vector<std::string> &rules, const std::string &rule)
{
    return std::any_of(rules.begin(), rules.end(),
                       [&](const std::string &r) {
                           return r == "*" || r == rule;
                       });
}

/** One lexed source file of the analyzed tree. */
struct SourceFile
{
    std::filesystem::path path; //!< absolute/as-walked path
    std::string rel;            //!< root-relative, '/' separators
    std::string module;         //!< first path component ("" at root)
    bool header = false;
    std::vector<CodeToken> code;
    std::vector<Token> pp;      //!< PpDirective tokens, raw text
    Directives directives;
    /// TokenStream::strippedLines(): comments and literal payloads
    /// blanked, so line rules and statement ends see code only.
    std::vector<std::string> lines;
    /// Per line: whitespace only in the raw text (comments count).
    std::vector<bool> blank;

    /**
     * Is `rule` suppressed at `line`: file-wide, on the line, or by an
     * allow above it in the same statement? The walk up stops at a
     * blank line, after a line whose code completes a statement
     * (';', '{', '}'), and after 8 lines.
     */
    bool
    allows(int line, const std::string &rule) const
    {
        if (listCovers(directives.fileAllows, rule))
            return true;
        auto allowedAt = [&](int n) {
            auto it = directives.lineAllows.find(n);
            return it != directives.lineAllows.end() &&
                   listCovers(it->second, rule);
        };
        if (allowedAt(line))
            return true;
        // lines (one more than the newlines) never runs shorter than
        // blank (one per getline).
        for (int n = line - 1; n >= 1 && n >= line - 8; --n) {
            auto at = static_cast<std::size_t>(n - 1);
            if (at >= blank.size() || blank[at])
                break;
            if (allowedAt(n))
                return true;
            const std::string &code = lines[at];
            std::size_t end = code.find_last_not_of(" \t");
            if (end != std::string::npos && std::strchr(";{}", code[end]))
                break;
        }
        return false;
    }
};

/** Lex one file's source text; `rel` also names its module. */
inline SourceFile
lexFile(const std::string &rel, const std::string &src)
{
    TokenStream ts(src);
    SourceFile f;
    f.rel = rel;
    std::size_t slash = rel.find('/');
    if (slash != std::string::npos)
        f.module = rel.substr(0, slash);
    auto ext = std::filesystem::path(rel).extension().string();
    f.header = ext == ".hh" || ext == ".hpp";
    f.code = ts.code();
    for (const auto &t : ts.all())
        if (t.kind == TokKind::PpDirective)
            f.pp.push_back(t);
    f.lines = ts.strippedLines();
    std::istringstream in(src);
    for (std::string line; std::getline(in, line);)
        f.blank.push_back(line.find_first_not_of(" \t") == std::string::npos);
    f.directives = parseDirectives(ts.comments());
    return f;
}

/** The whole analyzed tree, files sorted by relative path. */
struct SourceTree
{
    std::filesystem::path root;
    std::vector<SourceFile> files;
    std::vector<Diag> diags;

    const SourceFile *
    find(const std::string &rel) const
    {
        for (const auto &f : files)
            if (f.rel == rel)
                return &f;
        return nullptr;
    }

    /** Report unless an allow directive covers `line` (see allows). */
    void
    report(const SourceFile &f, int line, const char *rule,
           std::string message)
    {
        if (!f.allows(line, rule))
            diags.push_back({f.rel, line, rule, std::move(message)});
    }
};

inline bool
analyzableFile(const std::filesystem::path &p)
{
    auto ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" || ext == ".hpp";
}

/** Load and lex every C++ file under `root` (or the single file). */
inline SourceTree
loadTree(const std::filesystem::path &root)
{
    namespace fs = std::filesystem;
    SourceTree tree;
    tree.root = root;

    std::vector<fs::path> paths;
    if (fs::is_regular_file(root))
        paths.push_back(root);
    else
        for (const auto &entry : fs::recursive_directory_iterator(root))
            if (entry.is_regular_file() && analyzableFile(entry.path()))
                paths.push_back(entry.path());
    std::sort(paths.begin(), paths.end());

    for (const auto &p : paths) {
        std::ifstream in(p);
        if (!in)
            continue;
        std::ostringstream ss;
        ss << in.rdbuf();
        std::string rel = fs::is_regular_file(root)
                              ? p.filename().generic_string()
                              : fs::relative(p, root).generic_string();
        SourceFile f = lexFile(rel, ss.str());
        f.path = p;
        tree.files.push_back(std::move(f));
    }
    return tree;
}

/**
 * The target of a quote include directive, or "" when the directive is
 * not a quote include (`#include <...>` and every other directive).
 */
inline std::string
quoteIncludeTarget(const std::string &directive_text)
{
    std::string flat = ppText(directive_text);
    std::size_t h = flat.find('#');
    if (h == std::string::npos)
        return "";
    std::size_t i = flat.find_first_not_of(" \t", h + 1);
    if (i == std::string::npos || flat.compare(i, 7, "include") != 0)
        return "";
    std::size_t open = flat.find('"', i + 7);
    if (open == std::string::npos)
        return "";
    std::size_t close = flat.find('"', open + 1);
    if (close == std::string::npos)
        return "";
    return flat.substr(open + 1, close - open - 1);
}

} // namespace hopp::analysis

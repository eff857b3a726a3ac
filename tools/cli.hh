/**
 * @file
 * What the command-line tools share: strict flag values, whole-file
 * reads and JSON block indentation.
 *
 * Every numeric flag of hopp-run, hopp-sweep, hopp-replay, hopp_trace
 * and hopp-report reads its value through cli::Flags. Integers are
 * whole decimal numbers; reals are spelled as JSON numbers (`0.5`,
 * `1e-3`; not `.5`, `nan` or `inf`), so hopp-sweep can echo them into
 * its document. A sign, blank, trailing text or out-of-range value is
 * a usage error: the tool names the flag and exits 2, instead of
 * running at 0, at a wrapped-around value or into an abort inside the
 * simulator.
 */

#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace hopp::cli
{

constexpr std::uint64_t u32max = 0xFFFFFFFFull;
constexpr std::uint64_t u64max = ~std::uint64_t{0};

/** Is @p s spelled as a JSON number: -?(0|[1-9]d*)(.d+)?([eE][+-]?d+)? */
inline bool
jsonNumber(const char *s)
{
    auto digits = [&s] {
        const char *start = s;
        while (std::isdigit(static_cast<unsigned char>(*s)))
            ++s;
        return s > start;
    };
    if (*s == '-')
        ++s;
    if (*s == '0')
        ++s;
    else if (!digits())
        return false;
    if (*s == '.') {
        ++s;
        if (!digits())
            return false;
    }
    if (*s == 'e' || *s == 'E') {
        ++s;
        if (*s == '+' || *s == '-')
            ++s;
        if (!digits())
            return false;
    }
    return *s == '\0';
}

/**
 * The flag values of one tool's argv. Each reader takes the index of
 * the flag, advances it past the value, and on a missing or bad value
 * names the tool, the flag and what was expected, then exits 2.
 */
class Flags
{
  public:
    Flags(const char *tool, int argc, char **argv,
          void (*usage)(const char *))
        : tool_(tool), argc_(argc), argv_(argv), usage_(usage)
    {
    }

    /** The text after flag argv[i]. */
    const char *
    value(int &i) const
    {
        if (i + 1 >= argc_) {
            std::fprintf(stderr, "%s: %s needs a value\n", tool_,
                         argv_[i]);
            usage_(argv_[0]);
            std::exit(2);
        }
        return argv_[++i];
    }

    /** A whole number in [@p lo, @p hi]; @p what names the range. */
    std::uint64_t
    integer(int &i, std::uint64_t lo, std::uint64_t hi,
            const char *what) const
    {
        const char *text = value(i);
        errno = 0;
        char *end = nullptr;
        const unsigned long long v = std::strtoull(text, &end, 10);
        if (!std::isdigit(static_cast<unsigned char>(*text)) ||
            errno != 0 || *end != '\0' || v < lo || v > hi)
            reject(i, what);
        return v;
    }

    /** A power of two in [1, @p hi]. */
    unsigned
    powerOfTwo(int &i, unsigned hi, const char *what) const
    {
        const std::uint64_t v = integer(i, 1, hi, what);
        if ((v & (v - 1)) != 0)
            reject(i, what);
        return static_cast<unsigned>(v);
    }

    /** A real in (0, @p hi], spelled as a JSON number. */
    double
    positive(int &i, double hi, const char *what) const
    {
        const char *text = value(i);
        const double v = jsonNumber(text) ? std::strtod(text, nullptr)
                                          : 0.0;
        if (!std::isfinite(v) || v <= 0.0 || v > hi)
            reject(i, what);
        return v;
    }

  private:
    /** Report argv[i], the value of flag argv[i - 1], as bad; exit 2. */
    [[noreturn]] void
    reject(int i, const char *what) const
    {
        std::fprintf(stderr, "%s: %s '%s' is not %s\n", tool_,
                     argv_[i - 1], argv_[i], what);
        std::exit(2);
    }

    const char *tool_;
    int argc_;
    char **argv_;
    void (*usage_)(const char *);
};

/**
 * Append the whole of file @p path to @p out. On failure, print why,
 * prefixed with @p tool, and return false.
 */
inline bool
readFile(const char *tool, const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        std::fprintf(stderr, "%s: cannot open '%s'\n", tool, path.c_str());
        return false;
    }
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    const bool ok = !std::ferror(f);
    std::fclose(f);
    if (!ok)
        std::fprintf(stderr, "%s: cannot read '%s'\n", tool, path.c_str());
    return ok;
}

/**
 * Indent every line of a rendered JSON block by @p pad spaces, without
 * a trailing newline, so the caller controls separators.
 */
inline std::string
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

} // namespace hopp::cli

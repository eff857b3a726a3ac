/**
 * @file
 * Unit tests for the cross-TU symbol index (tools/analysis/symbols.hh)
 * and the conservative call graph (tools/analysis/call_graph.hh) that
 * the hot-path purity pass walks. The load-bearing properties:
 *
 *  - declarations join their out-of-line definitions, overload sets
 *    keep per-arity members, and `using` aliases are not mistaken for
 *    calls;
 *  - receiver typing resolves params, locals, members, one chained
 *    hop, subscripts, and smart-pointer derefs to the right class;
 *  - every call the resolver cannot prove a target for lands in the
 *    node's unresolved set with a reason — conservative means counted,
 *    not silently dropped;
 *  - the hotpath pass reports a reachable sink with its full
 *    root-to-sink chain, and a root that matches nothing fires
 *    hotpath-root.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "analysis/call_graph.hh"
#include "analysis/hotpath.hh"
#include "analysis/model.hh"
#include "analysis/symbols.hh"

using namespace hopp::analysis;

namespace
{

/** Lex (rel, source) pairs into an in-memory SourceTree. */
SourceTree
makeTree(const std::vector<std::pair<std::string, std::string>> &files)
{
    SourceTree tree;
    for (const auto &[rel, src] : files)
        tree.files.push_back(lexFile(rel, src));
    return tree;
}

/** The one node with qualified name `qual`, asserting it exists. */
std::size_t
nodeOf(const CallGraph &cg, const std::string &qual)
{
    auto ids = cg.findNodes(qual);
    EXPECT_EQ(ids.size(), 1u) << qual;
    return ids.empty() ? 0 : ids[0];
}

/** True when `cg` has an edge qual_from -> qual_to. */
bool
hasEdge(const CallGraph &cg, const std::string &from,
        const std::string &to)
{
    auto fids = cg.findNodes(from);
    auto tids = cg.findNodes(to);
    if (fids.empty() || tids.empty())
        return false;
    for (std::size_t f : fids)
        for (std::size_t callee : cg.callees[f])
            for (std::size_t t : tids)
                if (callee == t)
                    return true;
    return false;
}

/** True when some unresolved entry of `qual` contains `needle`. */
bool
hasUnresolved(const CallGraph &cg, const std::string &qual,
              const std::string &needle)
{
    for (std::size_t id : cg.findNodes(qual))
        for (const std::string &u : cg.unresolved[id])
            if (u.find(needle) != std::string::npos)
                return true;
    return false;
}

} // namespace

TEST(SymbolIndex, MembersMethodsAndOutOfLineJoin)
{
    SourceTree tree = makeTree({
        {"mod/widget.hh", R"cpp(
namespace fixture
{
class Widget
{
  public:
    void touch(int v);
    int count() const { return count_; }

  private:
    std::vector<int> log_;
    int count_ = 0;
};
} // namespace fixture
)cpp"},
        {"mod/widget.cc", R"cpp(
namespace fixture
{
void
Widget::touch(int v)
{
    log_.push_back(v);
    ++count_;
}
} // namespace fixture
)cpp"},
    });

    SymbolIndex sym = buildSymbolIndex(tree);
    const ClassInfo *w = sym.findClass("Widget");
    ASSERT_NE(w, nullptr);
    EXPECT_TRUE(w->members.count("log_"));
    EXPECT_EQ(w->memberTypes.at("log_"), "vector");
    EXPECT_EQ(w->memberTypes.at("count_"), "int");

    // The out-of-line definition joined the in-class declaration, so
    // touch is a method with a body, not a dangling decl.
    EXPECT_TRUE(w->hasMethodBody("touch"));
    EXPECT_TRUE(w->hasMethodBody("count"));
    EXPECT_EQ(w->methodDecls.count("touch"), 0u);

    for (const auto &m : w->methods)
        if (m.name == "touch") {
            EXPECT_EQ(m.arity, 1);
            EXPECT_EQ(m.file, "mod/widget.cc");
            ASSERT_EQ(m.params.size(), 1u);
            EXPECT_EQ(m.params[0].first, "v");
        }
}

TEST(SymbolIndex, FreeOverloadSetsAndAliases)
{
    SourceTree tree = makeTree({
        {"mod/util.hh", R"cpp(
namespace fixture
{
using Ticket = std::uint64_t;

inline int
clampTo(int v)
{
    return v < 0 ? 0 : v;
}

inline int
clampTo(int v, int hi)
{
    return v > hi ? hi : clampTo(v);
}
} // namespace fixture
)cpp"},
    });

    SymbolIndex sym = buildSymbolIndex(tree);
    auto it = sym.freesByName.find("clampTo");
    ASSERT_NE(it, sym.freesByName.end());
    ASSERT_EQ(it->second.size(), 2u);
    int a0 = sym.frees[it->second[0]].arity;
    int a1 = sym.frees[it->second[1]].arity;
    EXPECT_EQ(a0 + a1, 3); // one unary, one binary
    EXPECT_EQ(sym.aliases.at("Ticket"), "uint64_t");
}

TEST(CallGraph, ReceiverResolutionAcrossDeclarationForms)
{
    SourceTree tree = makeTree({
        {"mod/engine.hh", R"cpp(
namespace fixture
{
class Gauge
{
  public:
    void bump() { ++n_; }

  private:
    int n_ = 0;
};

class Slot
{
  public:
    Gauge gauge;
};

class Engine
{
  public:
    void
    step(Gauge &param)
    {
        param.bump();           // parameter receiver
        member_.bump();         // member receiver
        Gauge local;
        local.bump();           // local receiver
        slot_.gauge.bump();     // one chained member hop
        ring_[0].bump();        // subscript -> element type
        owned_->bump();         // unique_ptr deref
    }

  private:
    Gauge member_;
    Slot slot_;
    std::vector<Gauge> ring_;
    std::unique_ptr<Gauge> owned_;
};
} // namespace fixture
)cpp"},
    });

    SymbolIndex sym = buildSymbolIndex(tree);
    CallGraph cg = buildCallGraph(sym);

    EXPECT_TRUE(hasEdge(cg, "Engine::step", "Gauge::bump"));
    // Every receiver form resolved: no unresolved entries at all.
    std::size_t id = nodeOf(cg, "Engine::step");
    EXPECT_TRUE(cg.unresolved[id].empty())
        << *cg.unresolved[id].begin();
}

TEST(CallGraph, OverloadsPreferExactArity)
{
    SourceTree tree = makeTree({
        {"mod/ov.hh", R"cpp(
namespace fixture
{
inline int pick(int a) { return a; }
inline int pick(int a, int b) { return a + b; }
} // namespace fixture
)cpp"},
    });

    SymbolIndex sym = buildSymbolIndex(tree);
    CallGraph cg = buildCallGraph(sym);
    auto unary = cg.findNodes("pick", 1);
    ASSERT_EQ(unary.size(), 1u);
    EXPECT_EQ(cg.nodes[unary[0]].arity, 1);
    auto binary = cg.findNodes("pick", 2);
    ASSERT_EQ(binary.size(), 1u);
    EXPECT_EQ(cg.nodes[binary[0]].arity, 2);
    // Unknown arity falls back to the whole overload set.
    EXPECT_EQ(cg.findNodes("pick", 3).size(), 2u);
}

TEST(CallGraph, UnresolvedCallsAreCountedWithReasons)
{
    SourceTree tree = makeTree({
        {"mod/frontier.hh", R"cpp(
namespace fixture
{
class Port
{
  public:
    void poke(); // declared here, defined outside the tree
};

class Frontier
{
  public:
    void
    run()
    {
        mystery();   // no such function anywhere
        port_.poke(); // decl without visible body
        hook_();     // callback variable
    }

  private:
    Port port_;
    std::function<void()> hook_;
};
} // namespace fixture
)cpp"},
    });

    SymbolIndex sym = buildSymbolIndex(tree);
    CallGraph cg = buildCallGraph(sym);

    EXPECT_TRUE(hasUnresolved(cg, "Frontier::run", "mystery"));
    EXPECT_TRUE(hasUnresolved(cg, "Frontier::run", "poke"));
    EXPECT_TRUE(hasUnresolved(cg, "Frontier::run", "hook_"));
    std::size_t id = nodeOf(cg, "Frontier::run");
    EXPECT_EQ(cg.unresolved[id].size(), 3u);
    // Honest conservatism: nothing silently resolved to an edge.
    EXPECT_TRUE(cg.callees[id].empty());
}

TEST(Hotpath, ReportsFullChainFromRootToSink)
{
    SourceTree tree = makeTree({
        {"mod/engine.hh", R"cpp(
namespace fixture
{
class Buffer
{
  public:
    void
    grow(int v)
    {
        data_.push_back(v);
    }

  private:
    std::vector<int> data_;
};

class Engine
{
  public:
    void step() { buf_.grow(1); }

  private:
    Buffer buf_;
};
} // namespace fixture
)cpp"},
    });

    SymbolIndex sym = buildSymbolIndex(tree);
    CallGraph cg = buildCallGraph(sym);

    HotpathConfig conf;
    conf.loaded = true;
    conf.file = "hotpaths.conf";
    conf.roots.emplace_back("Engine::step", 1);
    conf.roots.emplace_back("Engine::gone", 2); // matches nothing
    conf.families.insert("alloc");

    HotpathSummary summary;
    hotpathPass(tree, sym, cg, conf, summary);

    EXPECT_EQ(summary.roots, 2);
    EXPECT_EQ(summary.matchedRoots, 1);
    EXPECT_EQ(summary.findings, 1);

    bool saw_chain = false, saw_root = false;
    for (const Diag &d : tree.diags) {
        if (d.rule == "hotpath-alloc") {
            saw_chain =
                d.message.find("Engine::step -> Buffer::grow") !=
                std::string::npos;
            // The honest-conservatism tail rides on every finding.
            EXPECT_NE(d.message.find("unresolved call(s)"),
                      std::string::npos);
            EXPECT_EQ(d.file, "mod/engine.hh");
        }
        if (d.rule == "hotpath-root") {
            saw_root = d.message.find("Engine::gone") !=
                       std::string::npos;
            EXPECT_EQ(d.line, 2);
        }
    }
    EXPECT_TRUE(saw_chain);
    EXPECT_TRUE(saw_root);
}

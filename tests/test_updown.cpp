/**
 * @file
 * Tests for the up*-down* escape routing tables: legal routes, the
 * topology-owned generation lifecycle, and the lazily built
 * destination columns (equal to an eager all-destinations build,
 * answering for their own generation after a gate, and race-free
 * under concurrent first lookups — CI runs this binary under TSan).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/string_figure.hpp"
#include "net/graph.hpp"
#include "net/paths.hpp"
#include "net/updown.hpp"
#include "sim/network.hpp"
#include "topos/factory.hpp"

namespace {

using namespace sf;
using namespace sf::net;

/** Follow escape next-hops from src to dst; -1 on failure. */
int
walk(const Graph &g, const UpDownRouting &ud, NodeId src, NodeId dst)
{
    NodeId at = src;
    bool up_allowed = true;
    for (int hops = 0; hops < 4 * static_cast<int>(g.numNodes());
         ++hops) {
        if (at == dst)
            return hops;
        const LinkId next = ud.nextLink(at, dst, up_allowed);
        if (next == kInvalidLink)
            return -1;
        if (!ud.isUp(next))
            up_allowed = false;
        else if (!up_allowed)
            return -2;  // illegal up after down
        at = g.link(next).dst;
    }
    return -1;
}

Graph
bidirMesh(int rows, int cols)
{
    Graph g(static_cast<std::size_t>(rows) * cols);
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            const NodeId u = static_cast<NodeId>(r * cols + c);
            if (c + 1 < cols)
                g.addBidirectional(u, u + 1);
            if (r + 1 < rows)
                g.addBidirectional(u, u + cols);
        }
    }
    return g;
}

TEST(UpDown, AllPairsLegalRoutesOnMesh)
{
    const Graph g = bidirMesh(5, 5);
    const UpDownRouting ud(g);
    for (NodeId s = 0; s < 25; ++s) {
        for (NodeId t = 0; t < 25; ++t) {
            if (s == t)
                continue;
            EXPECT_GT(walk(g, ud, s, t), 0) << s << "->" << t;
        }
    }
}

TEST(UpDown, RespectsAliveMask)
{
    const Graph g = bidirMesh(3, 3);
    std::vector<bool> alive(9, true);
    alive[4] = false;  // gate the centre
    const UpDownRouting ud(g, alive);
    for (NodeId s = 0; s < 9; ++s) {
        for (NodeId t = 0; t < 9; ++t) {
            if (s == t || s == 4 || t == 4)
                continue;
            const int hops = walk(g, ud, s, t);
            EXPECT_GT(hops, 0) << s << "->" << t;
        }
    }
    EXPECT_FALSE(ud.reachable(0, 4));
}

TEST(UpDown, UpLinksAscendTowardRoot)
{
    const Graph g = bidirMesh(4, 4);
    const UpDownRouting ud(g);
    // Each bidirectional wire: exactly one direction is "up".
    for (LinkId id = 0; id < static_cast<LinkId>(g.numLinks());
         id += 2) {
        EXPECT_NE(ud.isUp(id), ud.isUp(id + 1));
    }
}

TEST(UpDown, DirectedRingHasLimitedEscape)
{
    // Pure clockwise ring: up*-down* cannot cover all pairs (this
    // is why String Figure uses the dateline ring escape instead).
    Graph g(6);
    for (NodeId u = 0; u < 6; ++u)
        g.addLink(u, (u + 1) % 6);
    const UpDownRouting ud(g);
    int unreachable = 0;
    for (NodeId s = 0; s < 6; ++s) {
        for (NodeId t = 0; t < 6; ++t) {
            if (s != t && walk(g, ud, s, t) < 0)
                ++unreachable;
        }
    }
    EXPECT_GT(unreachable, 0);
}

core::SFParams
sfParams(std::size_t n, int ports)
{
    core::SFParams p;
    p.numNodes = n;
    p.routerPorts = ports;
    p.seed = 1;
    return p;
}

/** Every entry of @p ud equals a fresh build over the topology now. */
void
expectSameTables(const Topology &topo, const UpDownRouting &ud)
{
    std::vector<bool> alive(topo.numNodes());
    for (NodeId u = 0; u < topo.numNodes(); ++u)
        alive[u] = topo.nodeAlive(u);
    const UpDownRouting fresh(topo.graph(), alive);
    for (NodeId u = 0; u < topo.numNodes(); ++u) {
        for (NodeId t = 0; t < topo.numNodes(); ++t) {
            for (const bool up : {true, false})
                ASSERT_EQ(ud.nextLink(u, t, up),
                          fresh.nextLink(u, t, up))
                    << u << "->" << t;
        }
    }
}

TEST(UpDown, TopologyBuildsTablesOnceOnFirstUse)
{
    const std::uint64_t before = UpDownRouting::buildCount();
    const core::StringFigure topo(sfParams(64, 8));
    EXPECT_EQ(UpDownRouting::buildCount(), before)
        << "escape tables must not be built at construction";
    // Eight threads race the first fetch of one shared topology's
    // tables: exactly one build, one instance for all.
    std::vector<std::shared_ptr<const UpDownRouting>> got(8);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < got.size(); ++i)
        threads.emplace_back(
            [&topo, &got, i] { got[i] = topo.upDownRouting(); });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(UpDownRouting::buildCount(), before + 1);
    for (const auto &ud : got) {
        ASSERT_NE(ud, nullptr);
        EXPECT_EQ(ud.get(), got[0].get());
    }
    expectSameTables(topo, *got[0]);
}

TEST(UpDown, GateUngateAndReduceInvalidateTables)
{
    core::StringFigure topo(sfParams(64, 8));
    const auto full = topo.upDownRouting();
    NodeId victim = kInvalidNode;
    for (NodeId u = 0; u < 64 && victim == kInvalidNode; ++u) {
        if (topo.reconfig().canGate(u))
            victim = u;
    }
    ASSERT_NE(victim, kInvalidNode);
    ASSERT_TRUE(topo.gate(victim).applied);
    const auto gated = topo.upDownRouting();
    EXPECT_NE(gated.get(), full.get());
    EXPECT_FALSE(gated->reachable(0 == victim ? 1 : 0, victim));
    expectSameTables(topo, *gated);
    // A holder of the old generation keeps its own tables.
    EXPECT_TRUE(full->reachable(0 == victim ? 1 : 0, victim));

    ASSERT_TRUE(topo.ungate(victim).applied);
    const auto restored = topo.upDownRouting();
    EXPECT_NE(restored.get(), gated.get());
    expectSameTables(topo, *restored);

    Rng rng(7);
    ASSERT_FALSE(topo.reduceTo(48, rng).empty());
    const auto reduced = topo.upDownRouting();
    EXPECT_NE(reduced.get(), restored.get());
    expectSameTables(topo, *reduced);
}

// ------------------------------------------------ lazy columns

/**
 * Reference: the eager builder every column used to come from, kept
 * here only to pin the lazy one. Fills all destinations at once;
 * entries are link ids at [dest * n + u] per phase.
 */
struct EagerTables {
    std::size_t n = 0;
    std::vector<LinkId> up;
    std::vector<LinkId> down;
};

EagerTables
eagerReference(const Graph &g, const std::vector<bool> &alive)
{
    constexpr std::uint32_t kInf =
        std::numeric_limits<std::uint32_t>::max();
    const std::size_t n = g.numNodes();
    const auto is_alive = [&](NodeId u) {
        return alive.empty() || alive[u];
    };
    Graph undirected(n);
    for (LinkId id = 0; id < static_cast<LinkId>(g.numLinks());
         ++id) {
        const Link &l = g.link(id);
        if (l.enabled && is_alive(l.src) && is_alive(l.dst)) {
            undirected.addLink(l.src, l.dst);
            undirected.addLink(l.dst, l.src);
        }
    }
    NodeId root = kInvalidNode;
    for (NodeId u = 0; u < n && root == kInvalidNode; ++u) {
        if (is_alive(u))
            root = u;
    }
    std::vector<std::uint16_t> level(n, kUnreachable);
    if (root != kInvalidNode)
        level = bfsDistances(undirected, root);
    std::vector<bool> is_up(g.numLinks());
    for (LinkId id = 0; id < static_cast<LinkId>(g.numLinks());
         ++id) {
        const Link &l = g.link(id);
        is_up[id] = std::pair(level[l.dst], l.dst) <
                    std::pair(level[l.src], l.src);
    }
    std::vector<NodeId> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
        return std::pair(level[a], a) < std::pair(level[b], b);
    });

    EagerTables ref;
    ref.n = n;
    ref.up.assign(n * n, kInvalidLink);
    ref.down.assign(n * n, kInvalidLink);
    std::vector<std::uint32_t> d_down(n), d_any(n);
    for (NodeId t = 0; t < n; ++t) {
        if (!is_alive(t))
            continue;
        std::fill(d_down.begin(), d_down.end(), kInf);
        d_down[t] = 0;
        std::vector<NodeId> queue{t};
        for (std::size_t head = 0; head < queue.size(); ++head) {
            const NodeId v = queue[head];
            for (LinkId id : g.inLinks(v)) {
                const Link &l = g.link(id);
                if (!l.enabled || is_up[id] || !is_alive(l.src))
                    continue;
                if (d_down[l.src] == kInf) {
                    d_down[l.src] = d_down[v] + 1;
                    queue.push_back(l.src);
                }
            }
        }
        for (NodeId u = 0; u < n; ++u) {
            if (d_down[u] == kInf || u == t || !is_alive(u))
                continue;
            for (LinkId id : g.outLinks(u)) {
                const Link &l = g.link(id);
                if (l.enabled && !is_up[id] && is_alive(l.dst) &&
                    d_down[l.dst] + 1 == d_down[u]) {
                    ref.down[t * n + u] = id;
                    break;
                }
            }
        }
        d_any = d_down;
        for (NodeId u : order) {
            if (u == t || !is_alive(u))
                continue;
            LinkId best = ref.down[t * n + u];
            for (LinkId id : g.outLinks(u)) {
                const Link &l = g.link(id);
                if (!l.enabled || !is_up[id] || !is_alive(l.dst))
                    continue;
                if (d_any[l.dst] != kInf &&
                    d_any[l.dst] + 1 < d_any[u]) {
                    d_any[u] = d_any[l.dst] + 1;
                    best = id;
                }
            }
            ref.up[t * n + u] = best;
        }
    }
    return ref;
}

std::vector<bool>
aliveMask(const Topology &topo)
{
    std::vector<bool> alive(topo.numNodes());
    for (NodeId u = 0; u < topo.numNodes(); ++u)
        alive[u] = topo.nodeAlive(u);
    return alive;
}

/** Every (u, dest, phase) of @p ud equals the eager reference. */
void
expectMatchesEager(const UpDownRouting &ud, const EagerTables &ref,
                   const std::string &what)
{
    const std::size_t n = ref.n;
    for (NodeId t = 0; t < n; ++t) {
        for (NodeId u = 0; u < n; ++u) {
            if (u == t)
                continue;
            ASSERT_EQ(ud.nextLink(u, t, true), ref.up[t * n + u])
                << what << ": up phase " << u << "->" << t;
            ASSERT_EQ(ud.nextLink(u, t, false), ref.down[t * n + u])
                << what << ": down phase " << u << "->" << t;
        }
    }
    EXPECT_EQ(ud.columnsBuilt(), n) << what;
}

/** Gate up to @p count nodes canGate accepts, in id order. */
void
gateSome(core::StringFigure &topo, int count)
{
    for (NodeId u = 0; u < topo.numNodes() && count > 0; u += 3) {
        if (topo.reconfig().canGate(u) && topo.gate(u).applied)
            --count;
    }
}

TEST(UpDownLazy, ColumnsMatchEagerBuildOnStringFigure)
{
    for (const std::size_t n : {64, 256}) {
        for (const auto mode : {core::LinkMode::Unidirectional,
                                core::LinkMode::Bidirectional}) {
            core::SFParams p = sfParams(n, 8);
            p.linkMode = mode;
            core::StringFigure topo(p);
            const std::string what =
                "SF n" + std::to_string(n) +
                (mode == core::LinkMode::Bidirectional ? " bidir"
                                                       : " unidir");
            const UpDownRouting full(topo.graph(), aliveMask(topo));
            EXPECT_EQ(full.columnsBuilt(), 0u)
                << "columns must not be built at construction";
            expectMatchesEager(
                full, eagerReference(topo.graph(), aliveMask(topo)),
                what + " full");

            gateSome(topo, static_cast<int>(n / 16));
            const auto gated = topo.upDownRouting();
            expectMatchesEager(
                *gated,
                eagerReference(topo.graph(), aliveMask(topo)),
                what + " gated");
        }
    }
}

TEST(UpDownLazy, ColumnsMatchEagerBuildOnBaselines)
{
    using topos::TopoKind;
    for (const auto kind : {TopoKind::DM, TopoKind::FB, TopoKind::S2}) {
        for (const std::size_t n : {64, 256}) {
            if (!topos::supported(kind, n))
                continue;
            const auto topo = topos::makeTopology(kind, n, 7);
            expectMatchesEager(
                *topo->upDownRouting(),
                eagerReference(topo->graph(), aliveMask(*topo)),
                topo->name() + " n" + std::to_string(n));
        }
    }
}

TEST(UpDownLazy, OldGenerationAnswersForItsOwnSnapshot)
{
    core::StringFigure topo(sfParams(64, 8));
    const Graph before = topo.graph();  // structure + enable flags
    const EagerTables ref = eagerReference(before, aliveMask(topo));
    const auto full = topo.upDownRouting();
    ASSERT_EQ(full->columnsBuilt(), 0u);

    NodeId victim = kInvalidNode;
    for (NodeId u = 0; u < 64 && victim == kInvalidNode; ++u) {
        if (topo.reconfig().canGate(u))
            victim = u;
    }
    ASSERT_NE(victim, kInvalidNode);
    ASSERT_TRUE(topo.gate(victim).applied);
    ASSERT_NE(topo.upDownRouting().get(), full.get());

    // Every column of the old generation is first asked for now,
    // after the gate: it must still be the pre-gate answer, the
    // gated victim included.
    const NodeId other = victim == 0 ? 1 : 0;
    EXPECT_TRUE(full->reachable(other, victim));
    expectMatchesEager(*full, ref, "pre-gate generation");
}

TEST(UpDownLazy, RacingFirstLookupsBuildEachColumnOnce)
{
    core::SFParams p = sfParams(128, 8);
    p.linkMode = core::LinkMode::Bidirectional;
    const core::StringFigure topo(p);
    const auto ud = topo.upDownRouting();
    const std::size_t n = topo.numNodes();
    constexpr int kThreads = 8;
    std::vector<std::vector<LinkId>> seen(kThreads);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) {
            }
            // Every thread asks the same destinations in the same
            // order, so first lookups collide column by column.
            std::vector<LinkId> &out = seen[i];
            out.reserve(2 * n * n);
            for (NodeId t = 0; t < n; ++t) {
                for (NodeId u = 0; u < n; ++u) {
                    out.push_back(ud->nextLink(u, t, true));
                    out.push_back(ud->nextLink(u, t, false));
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(ud->columnsBuilt(), n);
    for (int i = 1; i < kThreads; ++i)
        EXPECT_EQ(seen[i], seen[0]) << "thread " << i;
    expectMatchesEager(*ud,
                       eagerReference(topo.graph(), aliveMask(topo)),
                       "after the race");
}

TEST(UpDown, ModelHoldsItsTablesUntilTopologyChanged)
{
    core::StringFigure topo(sfParams(64, 8));
    sim::NetworkModel model(topo, sim::SimConfig{});
    const UpDownRouting *held = &model.upDownRouting();
    EXPECT_EQ(held, topo.upDownRouting().get());
    NodeId victim = kInvalidNode;
    for (NodeId u = 0; u < 64 && victim == kInvalidNode; ++u) {
        if (topo.reconfig().canGate(u))
            victim = u;
    }
    ASSERT_NE(victim, kInvalidNode);
    ASSERT_TRUE(topo.gate(victim).applied);
    // Not told yet: the model still routes with its generation.
    EXPECT_EQ(&model.upDownRouting(), held);
    EXPECT_NE(topo.upDownRouting().get(), held);
    model.onTopologyChanged();
    EXPECT_EQ(&model.upDownRouting(), topo.upDownRouting().get());
}

} // namespace

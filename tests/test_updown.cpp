/**
 * @file
 * Tests for the up*-down* escape routing tables.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/string_figure.hpp"
#include "net/graph.hpp"
#include "net/updown.hpp"
#include "sim/network.hpp"

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

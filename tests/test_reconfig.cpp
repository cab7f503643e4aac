/**
 * @file
 * Tests for elastic reconfiguration: gating, ungating, ring repair,
 * port budgets, routing after reconfiguration, and the
 * ShortcutsOnly vs AllSpaces repair modes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/string_figure.hpp"
#include "net/paths.hpp"
#include "net/topology.hpp"

namespace {

using namespace sf;
using namespace sf::core;

SFParams
makeParams(std::size_t n, int ports,
           LinkMode mode = LinkMode::Unidirectional,
           std::uint64_t seed = 1)
{
    SFParams p;
    p.numNodes = n;
    p.routerPorts = ports;
    p.linkMode = mode;
    p.seed = seed;
    return p;
}

/** Route between every live pair and expect delivery. */
void
expectAllLivePairsDeliver(StringFigure &net)
{
    const std::size_t n = net.numNodes();
    for (NodeId s = 0; s < n; ++s) {
        if (!net.nodeAlive(s))
            continue;
        for (NodeId t = 0; t < n; ++t) {
            if (t == s || !net.nodeAlive(t))
                continue;
            ASSERT_GT(net::routedHops(net, s, t), 0)
                << s << " -> " << t;
        }
    }
}

TEST(Reconfig, GateIsIdempotent)
{
    StringFigure net(makeParams(32, 4));
    EXPECT_TRUE(net.gate(5).applied);
    EXPECT_FALSE(net.gate(5).applied);
    EXPECT_TRUE(net.ungate(5).applied);
    EXPECT_FALSE(net.ungate(5).applied);
}

TEST(Reconfig, GatedNodeHasNoEnabledWires)
{
    StringFigure net(makeParams(48, 4));
    net.gate(11);
    EXPECT_FALSE(net.nodeAlive(11));
    EXPECT_EQ(net.graph().degreeOut(11), 0u);
    EXPECT_EQ(net.graph().degreeIn(11), 0u);
}

TEST(Reconfig, SingleGateKeepsInvariants)
{
    StringFigure net(makeParams(64, 8));
    for (const NodeId victim : {NodeId{0}, NodeId{31}, NodeId{63}}) {
        const auto r = net.gate(victim);
        EXPECT_TRUE(r.applied);
        EXPECT_EQ(net.reconfig().checkInvariants(), "");
        net.ungate(victim);
        EXPECT_EQ(net.reconfig().checkInvariants(), "");
    }
}

TEST(Reconfig, SingleGateRepairsAllRings)
{
    StringFigure net(makeParams(64, 8));
    const auto r = net.gate(17);
    EXPECT_TRUE(r.applied);
    EXPECT_EQ(r.holes, 0);
    EXPECT_EQ(net.reconfig().currentHoles(), 0);
    EXPECT_GT(r.closuresEnabled, 0);
}

TEST(Reconfig, RoutingSurvivesSingleGate)
{
    StringFigure net(makeParams(61, 8));
    net.gate(30);
    expectAllLivePairsDeliver(net);
    EXPECT_EQ(net.fallbackCount(), 0u);
}

TEST(Reconfig, UngateRestoresOriginalWireSet)
{
    StringFigure net(makeParams(64, 8));
    std::vector<bool> before;
    for (LinkId id = 0;
         id < static_cast<LinkId>(net.graph().numLinks()); ++id)
        before.push_back(net.graph().link(id).enabled);

    net.gate(9);
    net.ungate(9);

    for (LinkId id = 0;
         id < static_cast<LinkId>(net.graph().numLinks()); ++id) {
        EXPECT_EQ(net.graph().link(id).enabled, before[id])
            << "link " << id;
    }
    EXPECT_EQ(net.reconfig().checkInvariants(), "");
}

TEST(Reconfig, GateUngateStressRandomSequence)
{
    StringFigure net(makeParams(96, 8));
    Rng rng(5);
    for (int step = 0; step < 200; ++step) {
        const NodeId u = static_cast<NodeId>(rng.below(96));
        if (net.nodeAlive(u)) {
            if (net.reconfig().canGate(u))
                net.gate(u);
        } else {
            net.ungate(u);
        }
        ASSERT_EQ(net.reconfig().checkInvariants(), "")
            << "after step " << step;
    }
    // Bring everyone back; the network must be whole again.
    for (NodeId u = 0; u < 96; ++u) {
        if (!net.nodeAlive(u))
            net.ungate(u);
    }
    ASSERT_EQ(net.reconfig().checkInvariants(), "");
    EXPECT_EQ(net.reconfig().currentHoles(), 0);
    EXPECT_TRUE(net::stronglyConnected(net.graph()));
}

TEST(Reconfig, AlternateGatingDownScales)
{
    // Gate every other node of space 0's ring: alternating victims
    // never collide on ring 0, but the same victims can be adjacent
    // on the other spaces' rings, so canGate() rejects a fraction of
    // them. A meaningful down-scale must still be achievable.
    StringFigure net(makeParams(64, 8));
    const auto ring = net.spaces().ring(0);
    std::size_t gated = 0;
    for (std::size_t i = 0; i < ring.size(); i += 2) {
        if (net.reconfig().canGate(ring[i])) {
            const auto r = net.gate(ring[i]);
            EXPECT_TRUE(r.applied);
            ++gated;
        }
    }
    EXPECT_GE(gated, ring.size() / 8);
    ASSERT_EQ(net.reconfig().checkInvariants(), "");
    expectAllLivePairsDeliver(net);
}

TEST(Reconfig, ReduceToTargetScale)
{
    StringFigure net(makeParams(128, 8));
    Rng rng(7);
    net.reduceTo(100, rng);
    EXPECT_LE(net.reconfig().numAlive(), 110u);
    ASSERT_EQ(net.reconfig().checkInvariants(), "");
    expectAllLivePairsDeliver(net);
}

TEST(Reconfig, CanGateRefusesAdjacentVictims)
{
    StringFigure net(makeParams(64, 8));
    const auto ring = net.spaces().ring(0);
    ASSERT_TRUE(net.reconfig().canGate(ring[10]));
    net.gate(ring[10]);
    // The static ring neighbour now borders the hole: gating it
    // would need a (nonexistent) 3-hop spare.
    EXPECT_FALSE(net.reconfig().canGate(ring[11]));
}

TEST(Reconfig, TablesStayInSyncWithGraph)
{
    StringFigure net(makeParams(72, 8));
    net.gate(13);
    net.gate(40);
    // Every table entry's via link must be enabled and the entry's
    // first hop must reach an alive node.
    for (NodeId u = 0; u < 72; ++u) {
        if (!net.nodeAlive(u))
            continue;
        for (const auto &e : net.tables().table(u).entries()) {
            if (!e.valid)
                continue;
            EXPECT_TRUE(net.graph().link(e.viaLink).enabled);
            EXPECT_TRUE(net.nodeAlive(e.node))
                << "entry to dead node " << e.node;
        }
    }
}

TEST(Reconfig, TableVersionMovesOnlyWithEntries)
{
    StringFigure net(makeParams(64, 8));
    RoutingTables tables;
    tables.rebuildAll(net.graph());
    std::vector<std::uint64_t> before(64);
    for (NodeId u = 0; u < 64; ++u)
        before[u] = tables.table(u).version();

    // Rebuilding an unchanged graph changes no entry: no version
    // moves, whether one table or all are rebuilt.
    tables.rebuildAll(net.graph());
    tables.rebuildNode(5, net.graph());
    for (NodeId u = 0; u < 64; ++u)
        EXPECT_EQ(tables.table(u).version(), before[u]) << u;

    // setBlocking moves the version only when it flips a bit.
    RoutingTable &t = tables.table(5);
    const NodeId neighbour = t.entries().at(0).node;
    t.setBlocking(neighbour, true);
    EXPECT_EQ(t.version(), before[5] + 1);
    t.setBlocking(neighbour, true);  // already blocked
    EXPECT_EQ(t.version(), before[5] + 1);
    t.setBlocking(5, true);  // no entry refers to the router itself
    EXPECT_EQ(t.version(), before[5] + 1);
    t.setBlocking(neighbour, false);
    EXPECT_EQ(t.version(), before[5] + 2);
    // A rebuild over the same graph yields the same (unblocked)
    // entries again: no change.
    tables.rebuildNode(5, net.graph());
    EXPECT_EQ(t.version(), before[5] + 2);
}

TEST(Reconfig, TableVersionsTrackEntryChangesAcrossGateAndUngate)
{
    for (const LinkMode mode :
         {LinkMode::Unidirectional, LinkMode::Bidirectional}) {
        StringFigure net(makeParams(96, 8, mode));
        const auto snapshot = [&] {
            std::vector<std::pair<std::uint64_t,
                                  std::vector<TableEntry>>> s;
            for (NodeId u = 0; u < 96; ++u)
                s.emplace_back(net.tables().table(u).version(),
                               net.tables().table(u).entries());
            return s;
        };
        auto prev = snapshot();
        const auto check = [&](const char *step) {
            const auto now = snapshot();
            int moved = 0;
            for (NodeId u = 0; u < 96; ++u) {
                // Equal version <=> equal entries (the cache keeps
                // a row exactly when its version did not move).
                EXPECT_EQ(now[u].first == prev[u].first,
                          now[u].second == prev[u].second)
                    << step << " node " << u;
                moved += now[u].first != prev[u].first ? 1 : 0;
            }
            EXPECT_GT(moved, 0) << step;
            EXPECT_LT(moved, 96) << step << ": change is local";
            prev = now;
        };
        ASSERT_TRUE(net.gate(17).applied);
        check("gate 17");
        ASSERT_TRUE(net.gate(50).applied);
        check("gate 50");
        ASSERT_TRUE(net.ungate(17).applied);
        check("ungate 17");
        ASSERT_TRUE(net.ungate(50).applied);
        check("ungate 50");
    }
}

TEST(Reconfig, RoutingTableSizeBoundedOnBasicTopology)
{
    // Paper: table size <= p(p+1) on the basic topology.
    StringFigure net(makeParams(256, 8));
    EXPECT_LE(net.tables().maxEntriesSeen(), 8u * 9u);
}

TEST(Reconfig, ShortcutsOnlyModeCountsFallbacks)
{
    SFParams p = makeParams(96, 8);
    p.repairMode = RepairMode::ShortcutsOnly;
    StringFigure net(p);
    Rng rng(11);
    net.reduceTo(72, rng);
    ASSERT_EQ(net.reconfig().checkInvariants(), "");
    // Faithful mode may leave holes in spaces other than space 0;
    // routing must still deliver via the fallback (counted).
    expectAllLivePairsDeliver(net);
    SUCCEED() << "fallbacks used: " << net.fallbackCount();
}

TEST(Reconfig, AllSpacesModeAvoidsFallbacks)
{
    StringFigure net(makeParams(96, 8));
    Rng rng(11);
    net.reduceTo(72, rng);
    EXPECT_EQ(net.reconfig().currentHoles(), 0);
    expectAllLivePairsDeliver(net);
    EXPECT_EQ(net.fallbackCount(), 0u);
}

TEST(Reconfig, StaticExpansionDeploySubset)
{
    // Deploy-subset flow: build the max size, reduce, then expand.
    StringFigure net(makeParams(128, 8));
    Rng rng(3);
    const auto gated = net.reduceTo(96, rng);
    const std::size_t deployed = net.reconfig().numAlive();
    expectAllLivePairsDeliver(net);

    // "Mount" the reserved nodes again (static expansion).
    for (const NodeId u : gated)
        net.ungate(u);
    EXPECT_EQ(net.reconfig().numAlive(), 128u);
    EXPECT_EQ(net.reconfig().currentHoles(), 0);
    expectAllLivePairsDeliver(net);
    EXPECT_GT(deployed, 90u);
}

TEST(Reconfig, BidirectionalGateUngate)
{
    StringFigure net(makeParams(64, 8, LinkMode::Bidirectional));
    Rng rng(13);
    for (int step = 0; step < 60; ++step) {
        const NodeId u = static_cast<NodeId>(rng.below(64));
        if (net.nodeAlive(u)) {
            if (net.reconfig().canGate(u))
                net.gate(u);
        } else {
            net.ungate(u);
        }
        ASSERT_EQ(net.reconfig().checkInvariants(), "")
            << "after step " << step;
    }
    expectAllLivePairsDeliver(net);
}

TEST(Reconfig, StatsAccumulate)
{
    StringFigure net(makeParams(48, 8));
    net.gate(1);
    net.ungate(1);
    const auto &stats = net.reconfig().stats();
    EXPECT_EQ(stats.gateOps, 1u);
    EXPECT_EQ(stats.ungateOps, 1u);
    EXPECT_GT(stats.tableRebuilds, 0u);
    EXPECT_GT(stats.entriesBlocked, 0u);
}

/** Parameterised sweep: random gating at several scales/radix. */
class ReconfigSweep
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(ReconfigSweep, RandomReductionKeepsDelivery)
{
    const auto [n, ports] = GetParam();
    StringFigure net(makeParams(static_cast<std::size_t>(n), ports));
    Rng rng(n * 31 + ports);
    net.reduceTo(static_cast<std::size_t>(n * 3 / 4), rng);
    ASSERT_EQ(net.reconfig().checkInvariants(), "");
    const std::size_t live = net.reconfig().numAlive();
    ASSERT_GE(live, static_cast<std::size_t>(n) * 3 / 4 - 4);
    expectAllLivePairsDeliver(net);
}

INSTANTIATE_TEST_SUITE_P(
    ScalesAndRadix, ReconfigSweep,
    ::testing::Combine(::testing::Values(32, 61, 96, 128),
                       ::testing::Values(4, 6, 8)));

} // namespace

/**
 * @file
 * Unit and property tests for the String Figure topology builder.
 */

#include <gtest/gtest.h>

#include "core/topology_builder.hpp"
#include "net/paths.hpp"

namespace {

using namespace sf;
using namespace sf::core;

SFParams
makeParams(std::size_t n, int ports, LinkMode mode,
           std::uint64_t seed = 1)
{
    SFParams p;
    p.numNodes = n;
    p.routerPorts = ports;
    p.linkMode = mode;
    p.seed = seed;
    return p;
}

TEST(Builder, RejectsTinyNetworks)
{
    EXPECT_THROW(buildTopologyData(makeParams(3, 4,
                                          LinkMode::Unidirectional)),
                 std::invalid_argument);
}

TEST(Builder, PortBudgetRespected)
{
    for (const auto mode : {LinkMode::Unidirectional,
                            LinkMode::Bidirectional}) {
        const auto data = buildTopologyData(makeParams(64, 4, mode));
        for (NodeId u = 0; u < 64; ++u)
            EXPECT_LE(data.portsUsed[u], 4) << "node " << u;
    }
}

TEST(Builder, PortAccountingMatchesGraph)
{
    const auto data =
        buildTopologyData(makeParams(100, 8, LinkMode::Unidirectional));
    for (NodeId u = 0; u < 100; ++u) {
        const int incident = static_cast<int>(
            data.graph.degreeOut(u) + data.graph.degreeIn(u));
        EXPECT_EQ(data.portsUsed[u], incident);
    }
}

TEST(Builder, EveryRingAdjacencyWired)
{
    const auto data =
        buildTopologyData(makeParams(60, 6, LinkMode::Unidirectional));
    for (int s = 0; s < data.spaces.numSpaces(); ++s) {
        const auto &ring = data.spaces.ring(s);
        for (std::size_t i = 0; i < ring.size(); ++i) {
            const NodeId u = ring[i];
            const NodeId v = ring[(i + 1) % ring.size()];
            const LinkId id = data.findWire(u, v);
            ASSERT_NE(id, kInvalidLink)
                << "space " << s << " gap " << u << "->" << v;
            EXPECT_TRUE(data.graph.link(id).enabled);
        }
    }
}

TEST(Builder, UnidirectionalStronglyConnected)
{
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        const auto data = buildTopologyData(
            makeParams(80, 4, LinkMode::Unidirectional, seed));
        EXPECT_TRUE(net::stronglyConnected(data.graph))
            << "seed " << seed;
    }
}

TEST(Builder, BidirectionalStronglyConnected)
{
    const auto data =
        buildTopologyData(makeParams(80, 4, LinkMode::Bidirectional));
    EXPECT_TRUE(net::stronglyConnected(data.graph));
}

TEST(Builder, ArbitraryNodeCounts)
{
    // The motivating feature: no power-of-two restriction.
    for (const std::size_t n : {17u, 61u, 113u, 130u}) {
        const auto data =
            buildTopologyData(makeParams(n, 4, LinkMode::Unidirectional));
        EXPECT_EQ(data.graph.numNodes(), n);
        EXPECT_TRUE(net::stronglyConnected(data.graph));
    }
}

TEST(Builder, ShortcutRules)
{
    const auto data =
        buildTopologyData(makeParams(200, 8, LinkMode::Unidirectional));
    std::vector<int> shortcuts_from(200, 0);
    for (LinkId id = 0;
         id < static_cast<LinkId>(data.graph.numLinks()); ++id) {
        const net::Link &l = data.graph.link(id);
        if (l.kind != net::LinkKind::Shortcut)
            continue;
        // Only toward larger node numbers (paper Fig 3(c)).
        EXPECT_GT(l.dst, l.src);
        // Target is the 2- or 4-hop clockwise space-0 neighbour.
        const bool two = data.spaces.ringAhead(l.src, 0, 2) == l.dst;
        const bool four = data.spaces.ringAhead(l.src, 0, 4) == l.dst;
        EXPECT_TRUE(two || four);
        ++shortcuts_from[l.src];
    }
    for (NodeId u = 0; u < 200; ++u)
        EXPECT_LE(shortcuts_from[u], 2) << "node " << u;
}

TEST(Builder, RepairWiresDormantAtBuild)
{
    const auto data =
        buildTopologyData(makeParams(100, 8, LinkMode::Unidirectional));
    for (LinkId id = 0;
         id < static_cast<LinkId>(data.graph.numLinks()); ++id) {
        const net::Link &l = data.graph.link(id);
        if (l.kind == net::LinkKind::Repair) {
            EXPECT_FALSE(l.enabled);
        }
    }
    EXPECT_GT(data.stats.repairWires, 0u);
}

TEST(Builder, ShortcutsOnlyModeHasNoRepairWires)
{
    SFParams p = makeParams(100, 8, LinkMode::Unidirectional);
    p.repairMode = RepairMode::ShortcutsOnly;
    const auto data = buildTopologyData(p);
    EXPECT_EQ(data.stats.repairWires, 0u);
}

TEST(Builder, WireInventoryConsistent)
{
    const auto data =
        buildTopologyData(makeParams(64, 6, LinkMode::Unidirectional));
    for (const auto &[key, id] : data.wires) {
        const NodeId from = static_cast<NodeId>(key >> 32);
        const NodeId to = static_cast<NodeId>(key & 0xffffffffu);
        EXPECT_EQ(data.graph.link(id).src, from);
        EXPECT_EQ(data.graph.link(id).dst, to);
    }
}

TEST(Builder, EnabledLinkCountBounded)
{
    // Cnetwork <= N * (p/2 + 2) wires in unidirectional mode
    // (paper Section IV, bounded number of connections).
    const auto data =
        buildTopologyData(makeParams(256, 8, LinkMode::Unidirectional));
    std::size_t enabled_wires = 0;
    for (LinkId id = 0;
         id < static_cast<LinkId>(data.graph.numLinks()); ++id) {
        if (data.graph.link(id).enabled)
            ++enabled_wires;
    }
    EXPECT_LE(enabled_wires, 256u * (8 / 2 + 2));
}

TEST(Builder, DeterministicForSeed)
{
    const auto a =
        buildTopologyData(makeParams(90, 4, LinkMode::Unidirectional, 7));
    const auto b =
        buildTopologyData(makeParams(90, 4, LinkMode::Unidirectional, 7));
    ASSERT_EQ(a.graph.numLinks(), b.graph.numLinks());
    for (LinkId id = 0;
         id < static_cast<LinkId>(a.graph.numLinks()); ++id) {
        EXPECT_EQ(a.graph.link(id).src, b.graph.link(id).src);
        EXPECT_EQ(a.graph.link(id).dst, b.graph.link(id).dst);
        EXPECT_EQ(a.graph.link(id).enabled, b.graph.link(id).enabled);
    }
}

TEST(Builder, SeedsProduceDifferentTopologies)
{
    const auto a =
        buildTopologyData(makeParams(90, 4, LinkMode::Unidirectional, 1));
    const auto b =
        buildTopologyData(makeParams(90, 4, LinkMode::Unidirectional, 2));
    bool differs = a.graph.numLinks() != b.graph.numLinks();
    if (!differs) {
        for (LinkId id = 0;
             id < static_cast<LinkId>(a.graph.numLinks()); ++id) {
            if (a.graph.link(id).src != b.graph.link(id).src ||
                a.graph.link(id).dst != b.graph.link(id).dst) {
                differs = true;
                break;
            }
        }
    }
    EXPECT_TRUE(differs);
}

/** Property sweep: construction invariants across sizes and radix. */
class BuilderSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(BuilderSweep, InvariantsHold)
{
    const auto [n, ports, mode_int] = GetParam();
    const auto mode = mode_int == 0 ? LinkMode::Unidirectional
                                    : LinkMode::Bidirectional;
    const auto data = buildTopologyData(
        makeParams(static_cast<std::size_t>(n), ports, mode, 11));

    // Port budgets.
    for (NodeId u = 0; u < static_cast<NodeId>(n); ++u)
        ASSERT_LE(data.portsUsed[u], ports);
    // Full connectivity.
    ASSERT_TRUE(net::stronglyConnected(data.graph));
    // Diameter sanity: random graphs stay compact.
    const auto stats = net::allPairsStats(data.graph);
    ASSERT_LT(stats.average, static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndRadix, BuilderSweep,
    ::testing::Combine(::testing::Values(16, 17, 32, 61, 113),
                       ::testing::Values(4, 6, 8),
                       ::testing::Values(0, 1)));

} // namespace

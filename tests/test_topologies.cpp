/**
 * @file
 * Tests for the baseline topologies and the configuration factory.
 */

#include <gtest/gtest.h>

#include "net/paths.hpp"
#include "topos/factory.hpp"
#include "topos/flattened_butterfly.hpp"
#include "topos/jellyfish.hpp"
#include "topos/mesh.hpp"
#include "topos/space_shuffle.hpp"

namespace {

using namespace sf;
using namespace sf::topos;

TEST(Mesh, GridShapes)
{
    EXPECT_EQ(MeshTopology::gridShape(16), (std::pair{4, 4}));
    EXPECT_EQ(MeshTopology::gridShape(32), (std::pair{4, 8}));
    EXPECT_EQ(MeshTopology::gridShape(1296), (std::pair{36, 36}));
    EXPECT_EQ(MeshTopology::gridShape(17), (std::pair{0, 0}));
    EXPECT_EQ(MeshTopology::gridShape(61), (std::pair{0, 0}));
}

TEST(Mesh, DegreeAndConnectivity)
{
    const MeshTopology mesh(4, 4);
    EXPECT_EQ(mesh.name(), "DM");
    // Corner 2, edge 3, interior 4 neighbours.
    EXPECT_EQ(mesh.graph().degreeOut(0), 2u);
    EXPECT_EQ(mesh.graph().degreeOut(1), 3u);
    EXPECT_EQ(mesh.graph().degreeOut(5), 4u);
    EXPECT_TRUE(net::stronglyConnected(mesh.graph()));
}

TEST(Mesh, XyRoutingFollowsDimensionOrder)
{
    const MeshTopology mesh(4, 4);
    // From (0,0) to (2,1): X first.
    LinkId out[16];
    ASSERT_GT(mesh.routeCandidates(0, 6, true, out), 0u);
    EXPECT_EQ(mesh.graph().link(out[0]).dst, 1u);
    // Aligned in X: go Y.
    ASSERT_GT(mesh.routeCandidates(2, 6, false, out), 0u);
    EXPECT_EQ(mesh.graph().link(out[0]).dst, 6u);
}

TEST(Mesh, RoutedHopsEqualManhattan)
{
    const MeshTopology mesh(8, 8);
    for (NodeId s = 0; s < 64; s += 5) {
        for (NodeId t = 0; t < 64; t += 7) {
            if (s == t)
                continue;
            const int manhattan =
                std::abs(static_cast<int>(s % 8) -
                         static_cast<int>(t % 8)) +
                std::abs(static_cast<int>(s / 8) -
                         static_cast<int>(t / 8));
            EXPECT_EQ(net::routedHops(mesh, s, t), manhattan);
        }
    }
}

TEST(Mesh, OdmParallelLinks)
{
    const MeshTopology odm(4, 4, 3);
    EXPECT_EQ(odm.name(), "ODM");
    EXPECT_EQ(odm.routerPorts(), 12);
    // Corner node: 2 directions x 3 wires.
    EXPECT_EQ(odm.graph().degreeOut(0), 6u);
    // Routing offers all parallel wires as candidates.
    LinkId out[16];
    EXPECT_EQ(odm.routeCandidates(0, 3, true, out), 3u);
}

TEST(FlattenedButterfly, FullRowColumnCliques)
{
    const FlattenedButterfly fb(4, 4, false);
    EXPECT_EQ(fb.name(), "FB");
    // Every node: 3 row + 3 column peers.
    for (NodeId u = 0; u < 16; ++u)
        EXPECT_EQ(fb.graph().degreeOut(u), 6u);
    EXPECT_EQ(fb.routerPorts(), 6);
    // Any pair is at most 2 hops apart.
    const auto stats = net::allPairsStats(fb.graph());
    EXPECT_LE(stats.diameter, 2);
}

TEST(FlattenedButterfly, AdaptedReducesRadix)
{
    const FlattenedButterfly fb(16, 16, false);
    const FlattenedButterfly afb(16, 16, true);
    EXPECT_EQ(afb.name(), "AFB");
    EXPECT_LT(afb.routerPorts(), fb.routerPorts());
    EXPECT_TRUE(net::stronglyConnected(afb.graph()));
    // Thinner but still low-diameter.
    const auto stats = net::allPairsStats(afb.graph());
    EXPECT_LE(stats.diameter, 6);
}

TEST(FlattenedButterfly, MinimalRoutingMatchesBfs)
{
    const FlattenedButterfly afb(8, 8, true);
    for (NodeId s = 0; s < 64; s += 3) {
        for (NodeId t = 0; t < 64; t += 5) {
            if (s == t)
                continue;
            EXPECT_EQ(net::routedHops(afb, s, t),
                      afb.hopDistance(s, t));
        }
    }
}

TEST(Jellyfish, Regularity)
{
    const Jellyfish jf(100, 8, 3);
    std::size_t total_degree = 0;
    for (NodeId u = 0; u < 100; ++u) {
        const auto d = jf.graph().degreeOut(u);
        EXPECT_LE(d, 8u);
        total_degree += d;
    }
    // The swap construction saturates nearly every port.
    EXPECT_GE(total_degree, 100u * 8u - 16u);
    EXPECT_TRUE(net::stronglyConnected(jf.graph()));
}

TEST(Jellyfish, RejectsBadParameters)
{
    EXPECT_THROW(Jellyfish(5, 8, 1), std::invalid_argument);
    EXPECT_THROW(Jellyfish(9, 3, 1), std::invalid_argument);
}

TEST(SpaceShuffle, NoShortcutsNoWidening)
{
    const SpaceShuffle s2(100, 8, 5);
    EXPECT_EQ(s2.name(), "S2");
    for (LinkId id = 0;
         id < static_cast<LinkId>(s2.graph().numLinks()); ++id) {
        EXPECT_NE(s2.graph().link(id).kind,
                  net::LinkKind::Shortcut);
    }
    // First-hop widening is disabled: never more than 1 candidate.
    LinkId out[16];
    for (NodeId s = 0; s < 100; s += 7) {
        for (NodeId t = 0; t < 100; t += 11) {
            if (s == t)
                continue;
            EXPECT_LE(s2.routeCandidates(s, t, true, out), 1u);
        }
    }
}

TEST(SpaceShuffle, DeliversAllPairs)
{
    const SpaceShuffle s2(61, 4, 5);
    for (NodeId s = 0; s < 61; ++s) {
        for (NodeId t = 0; t < 61; ++t) {
            if (s != t) {
                EXPECT_GT(net::routedHops(s2, s, t), 0);
            }
        }
    }
}

TEST(Factory, SupportMatrixMatchesPaperFig8)
{
    // Meshes need rectangular layouts.
    EXPECT_TRUE(supported(TopoKind::DM, 16));
    EXPECT_FALSE(supported(TopoKind::DM, 17));
    EXPECT_FALSE(supported(TopoKind::ODM, 61));
    EXPECT_TRUE(supported(TopoKind::ODM, 1296));
    // FB/AFB evaluated from 256 nodes up.
    EXPECT_FALSE(supported(TopoKind::FB, 128));
    EXPECT_TRUE(supported(TopoKind::FB, 256));
    EXPECT_TRUE(supported(TopoKind::AFB, 1296));
    // Random topologies take any scale.
    EXPECT_TRUE(supported(TopoKind::SF, 17));
    EXPECT_TRUE(supported(TopoKind::S2, 61));
    EXPECT_TRUE(supported(TopoKind::SF, 1296));
}

TEST(Factory, PaperPortPolicies)
{
    EXPECT_EQ(paperRouterPorts(TopoKind::SF, 128), 4);
    EXPECT_EQ(paperRouterPorts(TopoKind::SF, 256), 8);
    EXPECT_EQ(paperRouterPorts(TopoKind::FB, 1296), 33);
    EXPECT_EQ(paperRouterPorts(TopoKind::AFB, 1024), 23);
    EXPECT_EQ(paperRouterPorts(TopoKind::FB, 128), -1);
}

TEST(Factory, BuildsEverySupportedKind)
{
    for (const TopoKind kind : kAllKinds) {
        const std::size_t n = 256;
        ASSERT_TRUE(supported(kind, n));
        // Fixed ODM multiplier keeps this test fast.
        const auto topo = makeTopology(kind, n, 1, 3);
        EXPECT_EQ(topo->numNodes(), n);
        EXPECT_TRUE(net::stronglyConnected(topo->graph()))
            << kindName(kind);
        EXPECT_GT(net::routedHops(*topo, 0, 255), 0)
            << kindName(kind);
    }
}

TEST(Factory, ThrowsOnUnsupported)
{
    EXPECT_THROW(makeTopology(TopoKind::DM, 17, 1),
                 std::invalid_argument);
    EXPECT_THROW(makeTopology(TopoKind::FB, 64, 1),
                 std::invalid_argument);
}

TEST(Factory, OdmMultiplierAtLeastOne)
{
    EXPECT_GE(matchOdmMultiplier(64, 1), 1);
}

} // namespace

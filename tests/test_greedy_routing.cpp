/**
 * @file
 * Tests for the greediest routing protocol: delivery, loop freedom
 * (strict MD decrease), adaptivity, and the lookahead ranking.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>

#include "core/string_figure.hpp"
#include "net/topology.hpp"

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

TEST(GreedyRouting, DistanceToSelfIsZero)
{
    StringFigure sf_net(makeParams(32, 4, LinkMode::Unidirectional));
    for (NodeId u = 0; u < 32; ++u)
        EXPECT_DOUBLE_EQ(sf_net.router().distance(u, u), 0.0);
}

TEST(GreedyRouting, AllPairsDeliveryUnidirectional)
{
    StringFigure sf_net(makeParams(61, 4, LinkMode::Unidirectional));
    for (NodeId s = 0; s < 61; ++s) {
        for (NodeId t = 0; t < 61; ++t) {
            if (s == t)
                continue;
            EXPECT_GT(net::routedHops(sf_net, s, t), 0)
                << s << " -> " << t;
        }
    }
    EXPECT_EQ(sf_net.fallbackCount(), 0u);
}

TEST(GreedyRouting, AllPairsDeliveryBidirectional)
{
    StringFigure sf_net(makeParams(61, 4, LinkMode::Bidirectional));
    for (NodeId s = 0; s < 61; ++s) {
        for (NodeId t = 0; t < 61; ++t) {
            if (s == t)
                continue;
            EXPECT_GT(net::routedHops(sf_net, s, t), 0)
                << s << " -> " << t;
        }
    }
    EXPECT_EQ(sf_net.fallbackCount(), 0u);
}

TEST(GreedyRouting, RunningMinMdDecreasesWithinWindow)
{
    // With two-hop plans, MD need not fall on every single hop, but
    // the running minimum must strictly fall within a short window
    // (the plan-value potential argument, docs/greedy_routing.md).
    StringFigure sf_net(makeParams(113, 6, LinkMode::Unidirectional));
    LinkId candidates[16];
    for (NodeId s = 0; s < 113; s += 7) {
        for (NodeId t = 0; t < 113; t += 5) {
            if (s == t)
                continue;
            NodeId at = s;
            double running_min = sf_net.router().distance(at, t);
            int hops = 0;
            int window = 0;
            while (at != t) {
                const auto count = sf_net.routeCandidates(
                    at, t, hops == 0, candidates);
                ASSERT_GT(count, 0u);
                at = sf_net.graph().link(candidates[0]).dst;
                const double md = sf_net.router().distance(at, t);
                ++hops;
                ++window;
                if (md < running_min) {
                    running_min = md;
                    window = 0;
                }
                ASSERT_LE(window, 5)
                    << "no progress window at hop " << hops;
                ASSERT_LT(hops, 500) << "runaway path";
            }
        }
    }
}

TEST(GreedyRouting, EveryCandidatePlanImproves)
{
    // Each candidate link must carry a plan whose target strictly
    // improves on the current node's MD: either the neighbour
    // itself or a two-hop entry routed through it.
    StringFigure sf_net(makeParams(64, 8, LinkMode::Unidirectional));
    LinkId candidates[16];
    for (NodeId s = 0; s < 64; s += 3) {
        for (NodeId t = 0; t < 64; t += 5) {
            if (s == t)
                continue;
            const auto count =
                sf_net.routeCandidates(s, t, true, candidates);
            ASSERT_GT(count, 0u);
            const double md_s = sf_net.router().distance(s, t);
            for (LinkId id :
                 std::span<LinkId>(candidates, count)) {
                const NodeId w = sf_net.graph().link(id).dst;
                double best = sf_net.router().distance(w, t);
                for (const auto &e :
                     sf_net.tables().table(s).entries()) {
                    if (e.viaLink == id && e.hops == 2)
                        best = std::min(
                            best,
                            sf_net.router().distance(e.node, t));
                }
                EXPECT_LT(best, md_s);
            }
        }
    }
}

TEST(GreedyRouting, FirstHopWidensLaterHopsCommit)
{
    StringFigure sf_net(makeParams(128, 8, LinkMode::Unidirectional));
    LinkId first[16];
    LinkId later[16];
    int widened = 0;
    for (NodeId s = 0; s < 128; s += 11) {
        for (NodeId t = 0; t < 128; t += 13) {
            if (s == t)
                continue;
            const auto n_first =
                sf_net.routeCandidates(s, t, true, first);
            const auto n_later =
                sf_net.routeCandidates(s, t, false, later);
            ASSERT_GE(n_first, 1u);
            EXPECT_LE(n_later, 1u);
            if (n_later > 0 && n_first > 0) {
                EXPECT_EQ(first[0], later[0]);
            }
            widened += n_first > 1 ? 1 : 0;
        }
    }
    // Path diversity must actually exist somewhere.
    EXPECT_GT(widened, 0);
}

TEST(GreedyRouting, DirectNeighborWinsOutright)
{
    StringFigure sf_net(makeParams(32, 4, LinkMode::Unidirectional));
    LinkId candidates[16];
    for (NodeId s = 0; s < 32; ++s) {
        for (LinkId id : sf_net.graph().outLinks(s)) {
            if (!sf_net.graph().link(id).enabled)
                continue;
            const NodeId t = sf_net.graph().link(id).dst;
            ASSERT_EQ(
                sf_net.routeCandidates(s, t, true, candidates),
                1u);
            EXPECT_EQ(sf_net.graph().link(candidates[0]).dst, t);
        }
    }
}

TEST(GreedyRouting, TwoHopLookaheadNeverLengthensPaths)
{
    SFParams with = makeParams(100, 6, LinkMode::Unidirectional, 3);
    SFParams without = with;
    without.twoHopTable = false;
    StringFigure a(with);
    StringFigure b(without);
    double hops_with = 0.0;
    double hops_without = 0.0;
    int pairs = 0;
    for (NodeId s = 0; s < 100; s += 3) {
        for (NodeId t = 0; t < 100; t += 7) {
            if (s == t)
                continue;
            hops_with += net::routedHops(a, s, t);
            hops_without += net::routedHops(b, s, t);
            ++pairs;
        }
    }
    EXPECT_LE(hops_with / pairs, hops_without / pairs + 1e-9);
}

/**
 * Reference: the two-hop fold as it was before entries recorded
 * their parent — every usable two-hop entry scans every plan for
 * the one with its first-hop link. Kept here only to pin
 * GreedyRouter::candidates, which looks the plan up directly.
 */
std::size_t
scanFoldCandidates(const SFParams &params, const GreedyRouter &router,
                   const RoutingTables &tables, NodeId current,
                   NodeId dest, bool widen, std::span<LinkId> out)
{
    struct Ranked {
        LinkId via;
        NodeId node;
        Coord oneHopMd;
        Coord planValue;
        bool qualifies;
    };
    const auto &entries = tables.table(current).entries();
    const Coord md_here = router.distance(current, dest);
    std::vector<Ranked> plans;
    for (const TableEntry &e : entries) {
        if (e.hops != 1 || !e.usable())
            continue;
        if (e.node == dest) {
            out[0] = e.viaLink;
            return 1;
        }
        const Coord md = router.distance(e.node, dest);
        plans.push_back(Ranked{e.viaLink, e.node, md, md, md < md_here});
    }
    if (params.twoHopTable && !plans.empty()) {
        for (const TableEntry &e : entries) {
            if (e.hops != 2 || !e.usable())
                continue;
            const Coord md = router.distance(e.node, dest);
            for (Ranked &plan : plans) {
                if (plan.via != e.viaLink)
                    continue;
                plan.planValue = std::min(plan.planValue, md);
                if (md < md_here)
                    plan.qualifies = true;
            }
        }
    }
    std::erase_if(plans, [](const Ranked &p) { return !p.qualifies; });
    if (plans.empty())
        return 0;
    std::sort(plans.begin(), plans.end(),
              [](const Ranked &a, const Ranked &b) {
                  if (a.planValue != b.planValue)
                      return a.planValue < b.planValue;
                  if (a.oneHopMd != b.oneHopMd)
                      return a.oneHopMd < b.oneHopMd;
                  return a.node < b.node;
              });
    const std::size_t count =
        std::min(widen ? plans.size() : std::size_t{1}, out.size());
    for (std::size_t i = 0; i < count; ++i)
        out[i] = plans[i].via;
    return count;
}

/** candidates == the scan fold for every pair and widen value. */
void
expectFoldMatchesScan(const StringFigure &sf_net,
                      const RoutingTables &tables,
                      const std::string &what)
{
    const GreedyRouter router(sf_net.data(), tables);
    const std::size_t n = sf_net.numNodes();
    LinkId got[16];
    LinkId want[16];
    for (NodeId s = 0; s < n; ++s) {
        for (NodeId t = 0; t < n; ++t) {
            if (s == t)
                continue;
            for (const bool widen : {true, false}) {
                const std::size_t count =
                    router.candidates(s, t, widen, got);
                ASSERT_EQ(count,
                          scanFoldCandidates(sf_net.params(), router,
                                             tables, s, t, widen,
                                             want))
                    << what << " " << s << "->" << t;
                for (std::size_t i = 0; i < count; ++i)
                    ASSERT_EQ(got[i], want[i])
                        << what << " " << s << "->" << t << " #" << i;
            }
        }
    }
}

TEST(GreedyRouting, ParentIndexFoldMatchesPlanScan)
{
    for (const LinkMode mode :
         {LinkMode::Unidirectional, LinkMode::Bidirectional}) {
        for (const bool two_hop : {true, false}) {
            SFParams p = makeParams(96, 8, mode, 5);
            p.twoHopTable = two_hop;
            StringFigure sf_net(p);
            const std::string what =
                std::string(mode == LinkMode::Bidirectional
                                ? "bidir"
                                : "unidir") +
                (two_hop ? "" : " one-hop-only");
            expectFoldMatchesScan(sf_net, sf_net.tables(),
                                  what + " full");

            // Degraded: a gated topology with repaired rings.
            for (NodeId u = 1; u < 96; u += 9) {
                if (sf_net.reconfig().canGate(u))
                    sf_net.gate(u);
            }
            ASSERT_LT(sf_net.reconfig().numAlive(), 96u);
            expectFoldMatchesScan(sf_net, sf_net.tables(),
                                  what + " gated");

            // Blocked entries (mid-protocol state): a blocked
            // one-hop parent takes its two-hop children out too.
            RoutingTables blocked = sf_net.tables();
            for (NodeId u = 0; u < 96; u += 2) {
                const auto &entries = blocked.table(u).entries();
                if (!entries.empty())
                    blocked.table(u).setBlocking(entries[0].node,
                                                 true);
            }
            expectFoldMatchesScan(sf_net, blocked, what + " blocked");
        }
    }
}

TEST(GreedyRouting, VcClassSplitsByCoordinateDirection)
{
    StringFigure sf_net(makeParams(64, 4, LinkMode::Unidirectional));
    EXPECT_EQ(sf_net.numVcClasses(), 2);
    int class0 = 0;
    int class1 = 0;
    for (NodeId s = 0; s < 64; ++s) {
        for (NodeId t = 0; t < 64; ++t) {
            if (s == t)
                continue;
            const int vc = sf_net.vcClass(s, t);
            ASSERT_TRUE(vc == 0 || vc == 1);
            // Antisymmetric: opposite direction uses the other VC.
            EXPECT_NE(vc, sf_net.vcClass(t, s));
            (vc == 0 ? class0 : class1) += 1;
        }
    }
    EXPECT_EQ(class0, class1);
}

TEST(GreedyRouting, QuantizedCoordinatesStillDeliver)
{
    // 7-bit coordinates (the paper's hardware width) on a network
    // small enough that slots stay collision-free.
    SFParams p = makeParams(61, 4, LinkMode::Unidirectional);
    p.coordBits = 7;
    StringFigure sf_net(p);
    int delivered = 0;
    int total = 0;
    for (NodeId s = 0; s < 61; ++s) {
        for (NodeId t = 0; t < 61; ++t) {
            if (s == t)
                continue;
            ++total;
            delivered += net::routedHops(sf_net, s, t) > 0 ? 1 : 0;
        }
    }
    EXPECT_EQ(delivered, total);
}

TEST(GreedyRouting, LargeNetworkSampledDelivery)
{
    StringFigure sf_net(makeParams(1296, 8,
                                   LinkMode::Unidirectional));
    Rng rng(99);
    for (int i = 0; i < 2000; ++i) {
        const NodeId s = static_cast<NodeId>(rng.below(1296));
        const NodeId t = static_cast<NodeId>(rng.below(1296));
        if (s == t)
            continue;
        const int hops = net::routedHops(sf_net, s, t);
        ASSERT_GT(hops, 0);
        ASSERT_LE(hops, 64) << "path blow-up " << s << "->" << t;
    }
    EXPECT_EQ(sf_net.fallbackCount(), 0u);
}

} // namespace

/**
 * @file
 * Tests for the memoized route plane (core/route_cache.hpp): the
 * cache must be an observationally exact stand-in for
 * Topology::routeCandidates — identical candidate count and
 * identical link ids for every (current, dest, first_hop) query,
 * on first touch (fill) and on every repeat (hit) — across every
 * topology kind the factory builds, both wire directions, the
 * two-hop-table ablation, and degraded (gated) String Figures.
 * Also pins the per-epoch lifecycle (a reconfiguration revalidates
 * the cache: rows of nodes whose routing version did not move are
 * kept and must still be exact, the rest are dropped) and the
 * contiguous-block concurrent fill discipline the sharded route
 * plane relies on (run under TSan in CI).
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/route_cache.hpp"
#include "core/string_figure.hpp"
#include "net/rng.hpp"
#include "sim/network.hpp"
#include "topos/factory.hpp"

namespace {

using namespace sf;
using namespace sf::core;

/**
 * Compare cache vs direct call for one query, at the simulator's
 * span size. Returns via gtest assertions.
 */
void
expectSameAnswer(const net::Topology &topo, RouteCache &cache,
                 NodeId s, NodeId t, bool first_hop)
{
    LinkId direct[net::kMaxRouteCandidates];
    LinkId cached[net::kMaxRouteCandidates];
    const std::size_t want =
        topo.routeCandidates(s, t, first_hop, direct);
    const std::size_t got = cache.candidates(s, t, first_hop, cached);
    ASSERT_EQ(got, want) << "count diverged at current=" << s
                         << " dest=" << t
                         << " first_hop=" << first_hop;
    for (std::size_t i = 0; i < want; ++i)
        EXPECT_EQ(cached[i], direct[i])
            << "candidate " << i << " diverged at current=" << s
            << " dest=" << t << " first_hop=" << first_hop;
}

/**
 * Randomized equivalence sweep: @p samples pairs, each queried
 * twice per first_hop value so both the fill path and the hit path
 * are exercised (and repeat answers are stable).
 */
void
sweepEquivalence(const net::Topology &topo, int samples,
                 std::uint64_t seed)
{
    RouteCache cache(topo);
    ASSERT_TRUE(cache.active()) << topo.name();
    Rng rng(seed);
    const auto n = static_cast<std::int64_t>(topo.numNodes());
    for (int i = 0; i < samples; ++i) {
        const auto s = static_cast<NodeId>(rng.range(0, n - 1));
        const auto t = static_cast<NodeId>(rng.range(0, n - 1));
        for (const bool first_hop : {false, true}) {
            expectSameAnswer(topo, cache, s, t, first_hop);
            expectSameAnswer(topo, cache, s, t, first_hop); // hit
        }
    }
    EXPECT_GT(cache.committedRows() + cache.firstHopRows(), 0u);
}

SFParams
makeParams(std::size_t n, int ports, LinkMode mode,
           bool two_hop, std::uint64_t seed = 1)
{
    SFParams p;
    p.numNodes = n;
    p.routerPorts = ports;
    p.linkMode = mode;
    p.twoHopTable = two_hop;
    p.seed = seed;
    return p;
}

// ------------------------------------------------- equivalence

TEST(RouteCache, MatchesDirectOnStringFigureVariants)
{
    for (const LinkMode mode :
         {LinkMode::Unidirectional, LinkMode::Bidirectional}) {
        for (const bool two_hop : {true, false}) {
            StringFigure topo(makeParams(64, 4, mode, two_hop));
            sweepEquivalence(topo, 400,
                             0xC0FFEEu + (two_hop ? 1 : 0));
        }
    }
}

TEST(RouteCache, MatchesDirectOnEveryFactoryKind)
{
    // Meshes (DM/ODM) ignore first_hop and emit several equal-cost
    // candidates for committed hops — the uncacheable-entry
    // fallback path; FB/AFB cover table-routed sets.
    for (const auto kind : topos::kAllKinds) {
        for (const std::size_t n : {64, 256}) {
            if (!topos::supported(kind, n))
                continue;
            const auto topo = topos::makeTopology(kind, n, 7);
            sweepEquivalence(*topo, n == 256 ? 200 : 400,
                             0xBEEF + n);
        }
    }
}

TEST(RouteCache, MatchesDirectOnDegradedTopology)
{
    // Gate a handful of nodes *before* building the cache: the
    // degraded topology is immutable again from here on, and its
    // routing exercises no-route answers (kNoRoute entries) for
    // gated endpoints as well as repaired-ring detours.
    StringFigure topo(
        makeParams(64, 8, LinkMode::Unidirectional, true));
    for (const NodeId u : {5u, 6u, 21u, 40u})
        ASSERT_TRUE(topo.gate(u).applied);
    sweepEquivalence(topo, 600, 0xDEAD);
}

TEST(RouteCache, ServesNoRouteAndRepeatsIt)
{
    StringFigure topo(
        makeParams(48, 4, LinkMode::Unidirectional, true));
    ASSERT_TRUE(topo.gate(7).applied);
    RouteCache cache(topo);
    ASSERT_TRUE(cache.active());
    // A gated destination has no progress-making link from
    // anywhere; the cache must report 0 both cold and warm.
    LinkId out[net::kMaxRouteCandidates];
    for (int rep = 0; rep < 2; ++rep)
        EXPECT_EQ(cache.candidates(3, 7, false, out),
                  topo.routeCandidates(3, 7, false, out));
}

// --------------------------------------------------- lifecycle

TEST(RouteCache, ReconfigRevalidatesCachePerEpoch)
{
    StringFigure topo(
        makeParams(64, 8, LinkMode::Unidirectional, true));
    sim::SimConfig cfg;
    cfg.routeCache = true;
    sim::NetworkModel model(topo, cfg);
    EXPECT_FALSE(model.routeCacheActive());
    model.enableRouteCache();
    EXPECT_TRUE(model.routeCacheActive());
    EXPECT_EQ(model.topologyEpoch(), 0u);

    // A reconfiguration ends the topology generation: the cache is
    // revalidated at the epoch barrier (stale rows dropped, the
    // rest kept), so the memoized plane stays engaged across
    // elastic runs.
    ASSERT_TRUE(topo.gate(11).applied);
    model.onTopologyChanged();
    EXPECT_TRUE(model.routeCacheActive())
        << "route cache permanently retired by a reconfiguration";
    EXPECT_EQ(model.topologyEpoch(), 1u);
    EXPECT_EQ(model.stats().routeCacheRebuilds, 1u);

    ASSERT_TRUE(topo.gate(23).applied);
    model.onTopologyChanged();
    EXPECT_TRUE(model.routeCacheActive());
    EXPECT_EQ(model.topologyEpoch(), 2u);
    EXPECT_EQ(model.stats().routeCacheRebuilds, 2u);
}

/** Fill every (current, dest, first_hop) row of @p cache. */
void
fillAll(const net::Topology &topo, RouteCache &cache)
{
    LinkId out[net::kMaxRouteCandidates];
    for (NodeId s = 0; s < topo.numNodes(); ++s)
        for (NodeId t = 0; t < topo.numNodes(); ++t)
            for (const bool first_hop : {false, true})
                cache.candidates(s, t, first_hop, out);
}

/** Every answer of @p cache equals the direct call, all pairs. */
void
expectAllPairsExact(const net::Topology &topo, RouteCache &cache,
                    const std::string &what)
{
    SCOPED_TRACE(what);
    for (NodeId s = 0; s < topo.numNodes(); ++s)
        for (NodeId t = 0; t < topo.numNodes(); ++t)
            for (const bool first_hop : {false, true}) {
                expectSameAnswer(topo, cache, s, t, first_hop);
                if (::testing::Test::HasFatalFailure())
                    return;
            }
}

TEST(RouteCache, RetainedRowsMatchDirectAfterEveryWave)
{
    for (const LinkMode mode :
         {LinkMode::Unidirectional, LinkMode::Bidirectional}) {
        StringFigure topo(makeParams(128, 8, mode, true));
        RouteCache cache(topo);
        fillAll(topo, cache);
        const std::size_t all_rows = 2 * topo.numNodes();
        ASSERT_EQ(cache.committedRows() + cache.firstHopRows(),
                  all_rows);

        // Waves: one leave, a three-node leave, and the joins that
        // undo them. After each, revalidate, then check every pair
        // before anything refills: kept rows answer from the cache.
        const std::vector<std::vector<std::pair<bool, NodeId>>> waves =
            {{{true, 9}},
             {{true, 40}, {true, 71}, {true, 102}},
             {{false, 40}, {false, 9}},
             {{false, 71}, {false, 102}}};
        int wave = 0;
        for (const auto &events : waves) {
            for (const auto &[leave, node] : events)
                ASSERT_TRUE(leave ? topo.gate(node).applied
                                  : topo.ungate(node).applied);
            const RouteCache::Revalidation r = cache.revalidate();
            EXPECT_EQ(r.kept + r.dropped, all_rows);
            EXPECT_GT(r.kept, 0u) << "wave " << wave;
            EXPECT_GT(r.dropped, 0u) << "wave " << wave;
            EXPECT_EQ(cache.committedRows() + cache.firstHopRows(),
                      r.kept);
            expectAllPairsExact(topo, cache,
                                "wave " + std::to_string(wave));
            fillAll(topo, cache);
            ++wave;
        }
    }
}

TEST(RouteCache, UnversionedTopologyDropsEveryRow)
{
    const auto mesh = topos::makeTopology(topos::TopoKind::DM, 64, 7);
    RouteCache cache(*mesh);
    fillAll(*mesh, cache);
    const RouteCache::Revalidation r = cache.revalidate();
    EXPECT_EQ(r.kept, 0u);
    EXPECT_EQ(r.dropped, 2 * mesh->numNodes());
    EXPECT_EQ(cache.committedRows() + cache.firstHopRows(), 0u);
}

TEST(RouteCache, SingleLeaveAtN256KeepsMostRows)
{
    SFParams p = makeParams(256, topos::randomTopologyPorts(256),
                            LinkMode::Unidirectional, true, 2019);
    StringFigure topo(p);
    sim::SimConfig cfg;
    cfg.routeCache = true;
    sim::NetworkModel model(topo, cfg);
    model.enableRouteCache();
    ASSERT_TRUE(model.routeCacheActive());

    // Uniform traffic warms rows at every node.
    Rng rng(256);
    for (int i = 0; i < 4000; ++i) {
        const auto s = static_cast<NodeId>(rng.below(256));
        const auto t = static_cast<NodeId>(rng.below(256));
        if (s != t)
            model.inject(s, t, 1, sim::kRequest, 0);
    }
    Cycle c = 0;
    for (; c < 50000 && model.inFlight() > 0; ++c)
        model.step(c);
    ASSERT_EQ(model.inFlight(), 0u);

    NodeId victim = kInvalidNode;
    for (NodeId u = 100; u < 256 && victim == kInvalidNode; ++u) {
        if (topo.reconfig().canGate(u))
            victim = u;
    }
    ASSERT_NE(victim, kInvalidNode);
    ASSERT_TRUE(topo.gate(victim).applied);
    model.onTopologyChanged();
    const sim::NetStats &st = model.stats();
    EXPECT_EQ(st.routeCacheRebuilds, 1u);
    EXPECT_GT(st.routeCacheRowsDropped, 0u);
    // Only routers whose tables saw the victim lose their rows.
    EXPECT_GT(st.routeCacheRowsKept, 3 * st.routeCacheRowsDropped)
        << "kept " << st.routeCacheRowsKept << ", dropped "
        << st.routeCacheRowsDropped;
}

TEST(RouteCache, EnableAfterReconfigEpochEngagesFreshCache)
{
    StringFigure topo(
        makeParams(64, 8, LinkMode::Unidirectional, true));
    sim::SimConfig cfg;
    cfg.routeCache = true;
    sim::NetworkModel model(topo, cfg);

    // Reconfigure while no cache is engaged: the epoch advances,
    // nothing rebuilds (there was nothing to retire) ...
    ASSERT_TRUE(topo.gate(11).applied);
    model.onTopologyChanged();
    EXPECT_EQ(model.topologyEpoch(), 1u);
    EXPECT_EQ(model.stats().routeCacheRebuilds, 0u);

    // ... and a later enable builds against the *current*
    // generation — supported at any epoch, exactly as documented.
    model.enableRouteCache();
    EXPECT_TRUE(model.routeCacheActive())
        << "enableRouteCache refused after a reconfig epoch";
}

TEST(RouteCache, ConfigOffKeepsCacheDisengaged)
{
    StringFigure topo(
        makeParams(64, 8, LinkMode::Unidirectional, true));
    sim::SimConfig cfg;
    cfg.routeCache = false;
    sim::NetworkModel model(topo, cfg);
    model.enableRouteCache();
    EXPECT_FALSE(model.routeCacheActive());
}

/**
 * Cache keys are (node, dest, first_hop) — no congestion snapshot —
 * and rows are filled from the topology's *greedy* routing. A
 * non-greedy policy must therefore keep the cache disengaged even
 * when the config asks for it: for `ugal` a cached answer would be
 * stale (the snapshot changes every cycle), and for `table_oracle`
 * it would be outright wrong (greedy's answer, not the table's).
 */
TEST(RouteCache, NonGreedyPolicyKeepsCacheDisengaged)
{
    StringFigure topo(
        makeParams(64, 8, LinkMode::Unidirectional, true));
    for (const auto kind : {RoutingPolicyKind::Ugal,
                            RoutingPolicyKind::TableOracle}) {
        sim::SimConfig cfg;
        cfg.routeCache = true;
        cfg.policy = kind;
        sim::NetworkModel model(topo, cfg);
        model.enableRouteCache();
        EXPECT_FALSE(model.routeCacheActive())
            << "route cache engaged under --policy "
            << routingPolicyName(kind);
    }
}

// ------------------------------------------------- concurrency

/**
 * The sharded route plane's ownership discipline, distilled: each
 * thread owns a contiguous block of `current` nodes and only ever
 * queries those, so every cache row has exactly one writer. Run
 * under TSan this is the data-race proof for the concurrent lazy
 * fill; the serial re-check afterwards proves the concurrently
 * filled cache still answers exactly like the direct call.
 */
TEST(RouteCache, ConcurrentBlockOwnedFillIsExactAndRaceFree)
{
    StringFigure topo(
        makeParams(96, 8, LinkMode::Unidirectional, true));
    RouteCache cache(topo);
    ASSERT_TRUE(cache.active());

    const std::size_t n = topo.numNodes();
    constexpr int kThreads = 4;
    const std::size_t block = (n + kThreads - 1) / kThreads;
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
        workers.emplace_back([&, w] {
            const std::size_t lo = static_cast<std::size_t>(w) * block;
            const std::size_t hi = std::min(n, lo + block);
            LinkId out[net::kMaxRouteCandidates];
            for (std::size_t s = lo; s < hi; ++s)
                for (std::size_t t = 0; t < n; ++t)
                    for (const bool first_hop : {false, true})
                        cache.candidates(static_cast<NodeId>(s),
                                         static_cast<NodeId>(t),
                                         first_hop, out);
        });
    }
    for (auto &worker : workers)
        worker.join();

    EXPECT_EQ(cache.committedRows(), n);
    EXPECT_EQ(cache.firstHopRows(), n);
    Rng rng(0xF00D);
    for (int i = 0; i < 500; ++i) {
        const auto s = static_cast<NodeId>(
            rng.range(0, static_cast<std::int64_t>(n) - 1));
        const auto t = static_cast<NodeId>(
            rng.range(0, static_cast<std::int64_t>(n) - 1));
        for (const bool first_hop : {false, true})
            expectSameAnswer(topo, cache, s, t, first_hop);
    }
}

} // namespace

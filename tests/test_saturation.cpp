/**
 * @file
 * Saturation probes that stop at their verdict: hand-checked values
 * of NetworkModel::sourceBacklogFloor, verdict equivalence between
 * runSaturationProbe and the full runSynthetic across every design,
 * and a pin on how early (and how small) an over-saturated probe
 * stops.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/string_figure.hpp"
#include "sim/simulator.hpp"
#include "topos/factory.hpp"
#include "topos/mesh.hpp"

namespace {

using namespace sf;
using namespace sf::sim;

// A 2x3 mesh's top row 0-1-2 is a line. Link latency 1 plus SerDes 1:
// a packet of F flits forwarded at cycle c lands at c + F + 1, so a
// terminal port sending F-flit packets to its neighbour forwards at
// c, c + F, c + 2F, ... without ever blocking on the 16-flit VC.

TEST(BacklogFloor, QueuedPacketsBusyPortAndEmptyQueue)
{
    const topos::MeshTopology mesh(2, 3);
    const SimConfig cfg;
    NetworkModel net(mesh, cfg);
    for (int i = 0; i < 6; ++i)
        net.inject(0, 1, 3, kRequest, 0);
    net.step(0);
    // Node 0 forwarded one packet at cycle 0: five stay queued and
    // the port is busy until cycle 3. Every other queue is empty.
    ASSERT_EQ(net.sourceQueueBacklog(), 5u);
    // Forwards fit at 3, 6, 9: D = ceil((10 - 3 + 1) / 3) = 3.
    EXPECT_EQ(net.sourceBacklogFloor(0, 10), 2u);
    // Busy port: no forward can happen by cycle 2, so D = 0.
    EXPECT_EQ(net.sourceBacklogFloor(0, 2), 5u);
    // Exactly one forward fits (cycle 3).
    EXPECT_EQ(net.sourceBacklogFloor(0, 3), 4u);
    // Enough time to drain everything: the floor clamps at 0.
    EXPECT_EQ(net.sourceBacklogFloor(0, 100), 0u);
    // No check after now: nothing to bound.
    EXPECT_EQ(net.sourceBacklogFloor(0, 0), 0u);
    // The floor is tight here: the port forwards as fast as it can.
    for (Cycle c = 1; c <= 10; ++c)
        net.step(c);
    EXPECT_EQ(net.sourceQueueBacklog(), 2u);
}

TEST(BacklogFloor, ShortestPacketSeenBoundsDepartures)
{
    const topos::MeshTopology mesh(2, 3);
    const SimConfig cfg;
    NetworkModel net(mesh, cfg);
    for (int i = 0; i < 6; ++i)
        net.inject(0, 1, 4, kRequest, 0);
    // Node 0's own packets are 4 flits, but a 2-flit packet exists
    // (at node 2), so f_min = 2 bounds node 0's departures too.
    net.inject(2, 1, 2, kRequest, 0);
    net.step(0);
    ASSERT_EQ(net.sourceQueueBacklog(), 5u);
    // Node 0: busy until 4, D = ceil((9 - 4 + 1) / 2) = 3 -> 2 left.
    // Node 2: its only packet left at cycle 0 -> empty.
    EXPECT_EQ(net.sourceBacklogFloor(0, 9), 2u);
    for (Cycle c = 1; c <= 9; ++c)
        net.step(c);
    // With 4-flit packets node 0 really forwards at 4 and 8 only.
    EXPECT_EQ(net.sourceQueueBacklog(), 3u);
    EXPECT_GE(net.sourceQueueBacklog(), net.sourceBacklogFloor(0, 9));
}

TEST(BacklogFloor, GatedNodeTurnsTheFloorOff)
{
    core::SFParams params;
    params.numNodes = 16;
    params.routerPorts = 4;
    params.seed = 1;
    core::StringFigure topo(params);
    NodeId victim = kInvalidNode;
    for (NodeId u = 0; u < 16 && victim == kInvalidNode; ++u) {
        if (topo.reconfig().canGate(u))
            victim = u;
    }
    ASSERT_NE(victim, kInvalidNode);
    ASSERT_TRUE(topo.gate(victim).applied);
    const SimConfig cfg;
    NetworkModel net(topo, cfg);
    const NodeId src = victim == 0 ? 1 : 0;
    const NodeId dst = victim == 2 ? 3 : 2;
    for (int i = 0; i < 10; ++i)
        net.inject(src, dst, 5, kRequest, 0);
    net.step(0);
    ASSERT_GT(net.sourceQueueBacklog(), 5u);
    // A gated node makes source drops possible, and a drop leaves
    // the terminal port free: no departure bound holds.
    EXPECT_EQ(net.sourceBacklogFloor(0, 10), 0u);
}

TEST(SaturationProbe, GatedTopologyRunsToItsNaturalEnd)
{
    core::SFParams params;
    params.numNodes = 64;
    params.routerPorts = 8;
    params.seed = 1;
    core::StringFigure topo(params);
    Rng rng(5);
    topo.reduceTo(56, rng);
    SimConfig cfg;
    cfg.seed = 7;
    const RunPhases phases = RunPhases::saturationProbe();
    const RunResult full = runSynthetic(
        topo, TrafficPattern::UniformRandom, 1.0, cfg, phases);
    const RunResult probe = runSaturationProbe(
        topo, TrafficPattern::UniformRandom, 1.0, cfg, phases);
    EXPECT_TRUE(full.saturated);
    EXPECT_TRUE(probe.saturated);
    EXPECT_EQ(probe.simulatedCycles, full.simulatedCycles);
    EXPECT_EQ(probe.poolHighWater, full.poolHighWater);
}

/**
 * The exactness contract: for every design at n64 (n256 for the
 * butterflies, their smallest size) and each probe rate the
 * saturation search can visit on its descent, the stopping probe's
 * verdict under findSaturationRate's real latency cap equals the
 * full run's. A probe that did not stop early is the full run.
 */
TEST(SaturationProbe, VerdictMatchesFullRunAcrossDesigns)
{
    const RunPhases phases = RunPhases::saturationProbe();
    int stopped_early = 0;
    for (const auto kind : topos::kAllKinds) {
        const std::size_t n = topos::supported(kind, 64) ? 64 : 256;
        const auto topo = topos::cachedTopology(kind, n, 2019);
        for (const auto pattern : {TrafficPattern::UniformRandom,
                                   TrafficPattern::Hotspot,
                                   TrafficPattern::Tornado}) {
            SimConfig cfg;
            cfg.seed = 11;
            const double cap = std::max(
                3.0 * zeroLoadLatency(*topo, cfg, pattern), 120.0);
            for (const double rate :
                 {1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125}) {
                SCOPED_TRACE(topos::kindName(kind) + "/" +
                             patternName(pattern) + "/" +
                             std::to_string(rate));
                const RunResult full =
                    runSynthetic(*topo, pattern, rate, cfg, phases);
                const RunResult probe = runSaturationProbe(
                    *topo, pattern, rate, cfg, phases);
                EXPECT_EQ(full.saturated ||
                              full.avgTotalLatency > cap,
                          probe.saturated ||
                              probe.avgTotalLatency > cap);
                ASSERT_LE(probe.simulatedCycles, full.simulatedCycles);
                if (probe.simulatedCycles < full.simulatedCycles) {
                    ++stopped_early;
                    EXPECT_TRUE(full.saturated);
                    EXPECT_TRUE(probe.saturated);
                } else {
                    EXPECT_EQ(probe.saturated, full.saturated);
                    EXPECT_EQ(probe.avgTotalLatency,
                              full.avgTotalLatency);
                    EXPECT_EQ(probe.measuredPackets,
                              full.measuredPackets);
                }
            }
        }
    }
    // The sweep must exercise the early stop, not only the full run.
    EXPECT_GT(stopped_early, 0);
}

TEST(SaturationProbe, FullRateProbeStopsEarlyAndSmall)
{
    const auto topo = topos::cachedTopology(topos::TopoKind::SF, 256,
                                            2019);
    SimConfig cfg;
    cfg.seed = 11;
    const RunPhases phases = RunPhases::saturationProbe();
    const RunResult probe = runSaturationProbe(
        *topo, TrafficPattern::UniformRandom, 1.0, cfg, phases);
    EXPECT_TRUE(probe.saturated);
    // The full run only finds out at its backlog check at cycle 256.
    EXPECT_LT(probe.simulatedCycles, 256u);
    // Injection is at most one packet per node per cycle, so the
    // pool never holds more than 256 x 64 packets before cycle 64.
    EXPECT_LT(probe.poolHighWater, 256u * 64u);
    const RunResult full = runSynthetic(
        *topo, TrafficPattern::UniformRandom, 1.0, cfg, phases);
    EXPECT_TRUE(full.saturated);
    EXPECT_EQ(full.simulatedCycles, 256u);
    EXPECT_LT(probe.poolHighWater * 3, full.poolHighWater);
}

} // namespace

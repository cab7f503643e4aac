/**
 * @file
 * Tests for the cycle-level network model and harness: delivery,
 * latency sanity, backpressure, saturation detection, deadlock
 * freedom under stress, and behaviour across all topology kinds.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/string_figure.hpp"
#include "exp/work_pool.hpp"
#include "sim/simulator.hpp"
#include "topos/factory.hpp"
#include "topos/mesh.hpp"

namespace {

using namespace sf;
using namespace sf::sim;

core::SFParams
sfParams(std::size_t n, int ports, std::uint64_t seed = 1)
{
    core::SFParams p;
    p.numNodes = n;
    p.routerPorts = ports;
    p.seed = seed;
    return p;
}

TEST(Network, SinglePacketDelivery)
{
    const topos::MeshTopology mesh(4, 4);
    SimConfig cfg;
    NetworkModel net(mesh, cfg);
    std::uint64_t delivered = 0;
    Cycle delivered_at = 0;
    net.setDeliverHandler([&](const Packet &p, Cycle at) {
        ++delivered;
        delivered_at = at;
        EXPECT_EQ(p.src, 0u);
        EXPECT_EQ(p.dst, 15u);
        EXPECT_EQ(p.hops, 6u);  // Manhattan distance on 4x4
    });
    net.inject(0, 15, cfg.packetFlits, kRequest, 0, 0, true);
    for (Cycle c = 0; c < 200 && delivered == 0; ++c)
        net.step(c);
    EXPECT_EQ(delivered, 1u);
    // 6 hops x (serialization tail + wire + serdes) + eject.
    EXPECT_GT(delivered_at, 12u);
    EXPECT_LT(delivered_at, 80u);
    EXPECT_EQ(net.inFlight(), 0u);
}

TEST(Network, LocalDeliveryBypassesNetwork)
{
    const topos::MeshTopology mesh(4, 4);
    SimConfig cfg;
    NetworkModel net(mesh, cfg);
    std::uint64_t delivered = 0;
    net.setDeliverHandler([&](const Packet &p, Cycle) {
        ++delivered;
        EXPECT_EQ(p.hops, 0u);
    });
    net.inject(3, 3, 5, kRequest, 0);
    net.step(0);
    net.step(1);
    EXPECT_EQ(delivered, 1u);
}

TEST(Network, BackpressureLimitsLinkThroughput)
{
    // Two nodes on a 2-wide mesh; flood one direction: throughput
    // is bounded by one flit per cycle on the single wire.
    const topos::MeshTopology mesh(2, 2);
    SimConfig cfg;
    NetworkModel net(mesh, cfg);
    for (int i = 0; i < 50; ++i)
        net.inject(0, 1, cfg.packetFlits, kRequest, 0);
    Cycle c = 0;
    for (; c < 5000 && net.inFlight() > 0; ++c)
        net.step(c);
    EXPECT_EQ(net.inFlight(), 0u);
    // 50 packets x 5 flits = 250 flit-cycles minimum on the wire.
    EXPECT_GE(c, 250u);
}

TEST(Network, QuiescenceDetection)
{
    const topos::MeshTopology mesh(4, 4);
    SimConfig cfg;
    NetworkModel net(mesh, cfg);
    EXPECT_TRUE(net.nodeQuiescent(5));
    net.inject(5, 10, 5, kRequest, 0);
    EXPECT_FALSE(net.nodeQuiescent(5));
    for (Cycle c = 0; c < 300; ++c)
        net.step(c);
    EXPECT_TRUE(net.nodeQuiescent(5));
    EXPECT_TRUE(net.nodeQuiescent(10));
}

TEST(Network, RequestsAndRepliesBothDeliver)
{
    core::StringFigure topo(sfParams(32, 4));
    SimConfig cfg;
    NetworkModel net(topo, cfg);
    std::uint64_t requests = 0;
    std::uint64_t replies = 0;
    net.setDeliverHandler([&](const Packet &p, Cycle at) {
        if (p.msgClass == kRequest) {
            ++requests;
            // Memory node answers with a reply packet.
            net.inject(p.dst, p.src, 5, kReply, at, p.payload);
        } else {
            ++replies;
        }
    });
    Rng rng(7);
    for (int i = 0; i < 100; ++i) {
        const auto s = static_cast<NodeId>(rng.below(32));
        const auto t = static_cast<NodeId>(rng.below(32));
        if (s != t)
            net.inject(s, t, 1, kRequest, 0);
    }
    for (Cycle c = 0; c < 20000 && net.inFlight() > 0; ++c)
        net.step(c);
    EXPECT_EQ(net.inFlight(), 0u);
    EXPECT_EQ(requests, replies);
}

TEST(Harness, ZeroLoadLatencyTracksHopCount)
{
    core::StringFigure topo(sfParams(64, 8));
    SimConfig cfg;
    const double zero_load = zeroLoadLatency(topo, cfg);
    EXPECT_GT(zero_load, 5.0);
    EXPECT_LT(zero_load, 60.0);
}

TEST(Harness, LatencyRisesWithLoad)
{
    core::StringFigure topo(sfParams(64, 8));
    SimConfig cfg;
    RunPhases phases;
    phases.warmup = 500;
    phases.measure = 1500;
    phases.drainLimit = 10000;
    const auto light = runSynthetic(
        topo, TrafficPattern::UniformRandom, 0.01, cfg, phases);
    const auto medium = runSynthetic(
        topo, TrafficPattern::UniformRandom, 0.06, cfg, phases);
    const auto heavy = runSynthetic(
        topo, TrafficPattern::UniformRandom, 0.30, cfg, phases);
    EXPECT_FALSE(light.saturated);
    EXPECT_GT(light.measuredPackets, 100u);
    EXPECT_GE(medium.avgTotalLatency, light.avgTotalLatency);
    // Far beyond capacity the run either reports saturation outright
    // or shows clearly elevated latency.
    EXPECT_TRUE(heavy.saturated ||
                heavy.avgTotalLatency > 2 * light.avgTotalLatency);
}

TEST(Harness, HotspotSaturatesBeforeUniform)
{
    core::StringFigure topo(sfParams(64, 8));
    SimConfig cfg;
    RunPhases phases;
    phases.warmup = 500;
    phases.measure = 1500;
    phases.drainLimit = 8000;
    const double sat_uniform = findSaturationRate(
        topo, TrafficPattern::UniformRandom, cfg, phases, 0.15);
    const double sat_hotspot = findSaturationRate(
        topo, TrafficPattern::Hotspot, cfg, phases, 0.15);
    EXPECT_LT(sat_hotspot, sat_uniform);
}

TEST(Harness, ParallelSaturationSearchMatchesSerial)
{
    // The speculative parallel search must select the exact rate
    // the serial bisection does: probes are pure functions of
    // their rate, so extra speculative evaluations change nothing.
    core::StringFigure topo(sfParams(32, 4));
    SimConfig cfg;
    cfg.seed = 9;
    RunPhases phases;
    phases.warmup = 400;
    phases.measure = 1000;
    phases.drainLimit = 5000;
    const double serial = findSaturationRate(
        topo, TrafficPattern::UniformRandom, cfg, phases, 0.15);
    exp::WorkPool pool(4);
    const double parallel = findSaturationRate(
        topo, TrafficPattern::UniformRandom, cfg, phases, 0.15,
        &pool);
    EXPECT_EQ(parallel, serial);
    // And an explicitly serial executor too.
    const double inline_exec = findSaturationRate(
        topo, TrafficPattern::UniformRandom, cfg, phases, 0.15,
        &serialExecutor());
    EXPECT_EQ(inline_exec, serial);
}

TEST(Harness, ShardedRoutePlaneMatchesSerialEngine)
{
    // The sharded route plane precomputes pure functions of the
    // immutable topology, so a run must be event-for-event
    // identical to the serial engine at every shard count — at a
    // load heavy enough that the route phase actually fans out
    // (the batch floor is 32 jobs) and light enough to drain.
    core::StringFigure topo(sfParams(64, 8));
    RunPhases phases;
    phases.warmup = 600;
    phases.measure = 1500;
    phases.drainLimit = 8000;
    SimConfig serial_cfg;
    serial_cfg.seed = 5;
    const auto serial = runSynthetic(
        topo, TrafficPattern::UniformRandom, 0.05, serial_cfg,
        phases);
    exp::WorkPool pool(4);
    for (const int shards : {2, 3, 8}) {
        SimConfig cfg = serial_cfg;
        cfg.shards = shards;
        const auto sharded =
            runSynthetic(topo, TrafficPattern::UniformRandom,
                         0.05, cfg, phases, &pool);
        EXPECT_EQ(sharded.avgTotalLatency, serial.avgTotalLatency)
            << "shards " << shards;
        EXPECT_EQ(sharded.avgNetworkLatency,
                  serial.avgNetworkLatency);
        EXPECT_EQ(sharded.p50Latency, serial.p50Latency);
        EXPECT_EQ(sharded.p99Latency, serial.p99Latency);
        EXPECT_EQ(sharded.avgHops, serial.avgHops);
        EXPECT_EQ(sharded.acceptedLoad, serial.acceptedLoad);
        EXPECT_EQ(sharded.saturated, serial.saturated);
        EXPECT_EQ(sharded.measuredPackets, serial.measuredPackets);
        EXPECT_EQ(sharded.escapeTransfers, serial.escapeTransfers);
        EXPECT_EQ(sharded.flitHops, serial.flitHops);
        EXPECT_EQ(sharded.simulatedCycles, serial.simulatedCycles);
    }
    // shards > 1 with no executor must degrade to the serial
    // engine, not crash or diverge.
    SimConfig no_exec = serial_cfg;
    no_exec.shards = 4;
    const auto degraded = runSynthetic(
        topo, TrafficPattern::UniformRandom, 0.05, no_exec,
        phases);
    EXPECT_EQ(degraded.flitHops, serial.flitHops);
    EXPECT_EQ(degraded.simulatedCycles, serial.simulatedCycles);
}

TEST(Harness, AcceptedTracksOfferedWhenUnsaturated)
{
    core::StringFigure topo(sfParams(64, 8));
    SimConfig cfg;
    RunPhases phases;
    phases.warmup = 1000;
    phases.measure = 3000;
    const auto r = runSynthetic(
        topo, TrafficPattern::UniformRandom, 0.02, cfg, phases);
    ASSERT_FALSE(r.saturated);
    EXPECT_NEAR(r.acceptedLoad, r.offeredLoad,
                0.25 * r.offeredLoad);
}

TEST(Harness, SaturatedRunReportsSaturation)
{
    core::StringFigure topo(sfParams(32, 4));
    SimConfig cfg;
    RunPhases phases;
    phases.warmup = 400;
    phases.measure = 1200;
    phases.drainLimit = 6000;
    const auto r = runSynthetic(topo, TrafficPattern::Hotspot, 0.8,
                                cfg, phases);
    EXPECT_TRUE(r.saturated);
}

/** Stress every topology kind at high load: no deadlock watchdog. */
class SimStress : public ::testing::TestWithParam<topos::TopoKind>
{
};

TEST_P(SimStress, HighLoadRunsWithoutDeadlock)
{
    const auto kind = GetParam();
    const auto topo = topos::makeTopology(kind, 64, 3, 2);
    SimConfig cfg;
    cfg.seed = 11;
    RunPhases phases;
    phases.warmup = 500;
    phases.measure = 1500;
    phases.drainLimit = 6000;
    // Intentionally beyond saturation: the watchdog would throw on
    // a true deadlock; saturated backpressure is expected and fine.
    EXPECT_NO_THROW({
        runSynthetic(*topo, TrafficPattern::UniformRandom, 0.5, cfg,
                     phases);
        runSynthetic(*topo, TrafficPattern::Tornado, 0.5, cfg,
                     phases);
    });
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SimStress,
    ::testing::Values(topos::TopoKind::DM, topos::TopoKind::ODM,
                      topos::TopoKind::S2, topos::TopoKind::SF));

/**
 * Packet conservation: at every step boundary, every injected
 * packet is exactly one of delivered, dropped, or alive in exactly
 * one engine structure (source FIFO, VC buffer, arrival queue,
 * local-delivery queue). The audit walks every queue and the slab
 * pool independently of the stats counters, so double-frees, leaks
 * and lost FIFO links all surface as a mismatch.
 *
 * The run spans a full gate/ungate cycle under load, and after each
 * mid-traffic topology change the reconfiguration engine's own
 * structural audit (ReconfigEngine::checkInvariants) must also come
 * back clean — wire state, ring closures, and routing tables stay
 * consistent exactly when traffic is in flight.
 *
 * @p wavefront > 0 runs the identical scenario through the
 * decide/commit wavefront scheduler (over a private pool of that
 * width), so the audit also covers the buffered-effects engine —
 * including its conservative removal classification on a gated
 * topology, which this scenario exercises directly.
 */
void
conservationInvariantAtEveryStep(int wavefront)
{
    core::StringFigure topo(sfParams(64, 8));
    SimConfig cfg;
    cfg.wavefront = wavefront;
    NetworkModel net(topo, cfg);
    std::unique_ptr<exp::WorkPool> pool;
    if (wavefront > 0) {
        pool = std::make_unique<exp::WorkPool>(wavefront);
        net.setWavefrontExecutor(pool.get());
    }
    std::uint64_t dropped = 0;
    net.setDropHandler(
        [&](const Packet &, Cycle) { ++dropped; });
    Rng rng(21);
    Cycle cycle = 0;
    NodeId victim = kInvalidNode;
    bool gated = false;
    const auto check = [&] {
        const auto acc = net.audit();
        // Structure walk == pool accounting == stats accounting.
        ASSERT_EQ(acc.total(), acc.liveSlots);
        ASSERT_EQ(acc.liveSlots, net.inFlight());
        ASSERT_EQ(net.stats().injectedPackets,
                  net.stats().deliveredPackets + dropped +
                      acc.liveSlots);
        ASSERT_EQ(acc.sourceQueued, net.sourceQueueBacklog());
    };
    for (; cycle < 1500; ++cycle) {
        // Heavy mixed traffic, including src == dst loopbacks.
        for (int i = 0; i < 4; ++i) {
            const auto s = static_cast<NodeId>(rng.below(64));
            const auto t = static_cast<NodeId>(rng.below(64));
            if (topo.nodeAlive(s) && topo.nodeAlive(t))
                net.inject(s, t, 5, kRequest, cycle, 0,
                           (cycle & 1) != 0);
        }
        net.step(cycle);
        check();
        if (cycle == 700) {
            // Pick the victim and aim a burst at it while it is
            // still alive, so strays are guaranteed to be mid-
            // flight when the gate lands a few cycles later.
            for (NodeId u = 0; u < 64 && victim == kInvalidNode;
                 ++u) {
                if (topo.reconfig().canGate(u))
                    victim = u;
            }
            ASSERT_NE(victim, kInvalidNode);
            for (NodeId s = 0; s < 12; ++s) {
                if (s != victim)
                    net.inject(s, victim, 5, kRequest, cycle);
            }
        }
        if (cycle == 705 && !gated) {
            // Gate mid-run so in-flight strays get dropped;
            // conservation must hold through the drop path too.
            ASSERT_TRUE(topo.gate(victim).applied);
            net.onTopologyChanged();
            EXPECT_EQ(topo.reconfig().checkInvariants(), "");
            gated = true;
        }
        if (cycle == 1100) {
            // Bring the victim back mid-run: the ungate leg of the
            // same audit. The random traffic above resumes sending
            // to (and from) the former victim on its own once
            // nodeAlive(victim) is true again.
            ASSERT_TRUE(topo.ungate(victim).applied);
            net.onTopologyChanged();
            EXPECT_EQ(topo.reconfig().checkInvariants(), "");
            ASSERT_TRUE(topo.nodeAlive(victim));
            for (NodeId s = 0; s < 12; ++s) {
                if (s != victim)
                    net.inject(s, victim, 5, kRequest, cycle);
            }
        }
    }
    ASSERT_TRUE(gated);
    EXPECT_EQ(topo.reconfig().checkInvariants(), "");
    for (; net.inFlight() > 0 && cycle < 60000; ++cycle) {
        net.step(cycle);
        check();
    }
    EXPECT_EQ(net.inFlight(), 0u);
    EXPECT_GT(dropped, 0u);
    const auto final_acc = net.audit();
    EXPECT_EQ(final_acc.total(), 0u);
    EXPECT_EQ(final_acc.liveSlots, 0u);
    EXPECT_EQ(net.sourceQueueBacklog(), 0u);
}

TEST(Network, ConservationInvariantAtEveryStep)
{
    conservationInvariantAtEveryStep(0);
}

TEST(Network, ConservationInvariantAtEveryStepWavefront4)
{
    conservationInvariantAtEveryStep(4);
}

TEST(Reconfiguration, GatingDuringOperationDropsOnlyStrays)
{
    core::StringFigure topo(sfParams(64, 8));
    SimConfig cfg;
    NetworkModel net(topo, cfg);
    Rng rng(3);
    Cycle cycle = 0;
    std::uint64_t injected = 0;
    const auto pump = [&](int cycles) {
        for (int i = 0; i < cycles; ++i, ++cycle) {
            const auto s = static_cast<NodeId>(rng.below(64));
            const auto t = static_cast<NodeId>(rng.below(64));
            if (s != t && topo.nodeAlive(s) && topo.nodeAlive(t)) {
                net.inject(s, t, 5, kRequest, cycle);
                ++injected;
            }
            net.step(cycle);
        }
    };
    pump(500);
    // Gate a quiescent node mid-run, following the paper's blocking
    // protocol: wait until no traffic touches the victim.
    NodeId victim = kInvalidNode;
    for (NodeId u = 0; u < 64 && victim == kInvalidNode; ++u) {
        if (net.nodeQuiescent(u) && topo.reconfig().canGate(u))
            victim = u;
    }
    ASSERT_NE(victim, kInvalidNode);
    topo.gate(victim);
    net.onTopologyChanged();
    pump(500);
    for (; net.inFlight() > 0 && cycle < 50000; ++cycle)
        net.step(cycle);
    EXPECT_EQ(net.inFlight(), 0u);
    // Packets already heading to the victim are dropped and counted;
    // everything else delivers.
    EXPECT_EQ(net.stats().deliveredPackets +
                  net.stats().droppedUnroutable,
              injected);
}

// ------------------------------------------------------------------
// Sleep/wake arbitration: one hand-checked scenario per wake event.
// A 2x3 mesh's top row 0-1-2 is a line (XY routing goes straight
// along it). Every link has latency 1 and SerDes adds 1, so a
// packet of F flits forwarded at cycle c lands at c + F + 1, and
// one ejected at cycle c is delivered at c + F.

/** Deliveries (packet id -> cycle) of a model, for the tests below. */
struct DeliveryLog {
    std::vector<std::pair<std::uint64_t, Cycle>> at;

    void
    attach(NetworkModel &net)
    {
        net.setDeliverHandler([this](const Packet &p, Cycle c) {
            at.emplace_back(p.id, c);
        });
    }
};

TEST(SleepWake, BusyEjectionPortProofWakesOnExpiry)
{
    // 0->1 and 2->1 land at node 1 together at cycle 6. One ejects
    // (delivered 11); the other is proven blocked until the port
    // frees at 11. Cycle 7 lazily delists the drained VC, then node
    // 1 sleeps through cycles 8-10 and ejects at 11 (delivered 16).
    const topos::MeshTopology mesh(2, 3);
    SimConfig cfg;
    NetworkModel net(mesh, cfg);
    DeliveryLog log;
    log.attach(net);
    net.inject(0, 1, 5, kRequest, 0);
    net.inject(2, 1, 5, kRequest, 0);
    for (Cycle c = 0; c < 40; ++c)
        net.step(c);
    ASSERT_EQ(log.at.size(), 2u);
    EXPECT_EQ(log.at[0].second, 11u);
    EXPECT_EQ(log.at[1].second, 16u);
    EXPECT_EQ(net.stats().routerCyclesSlept, 3u);
    EXPECT_EQ(net.stats().headsSkippedOnProof, 1u);
}

TEST(SleepWake, DrainWakesHeadBlockedOnFullDownstreamVc)
{
    // Two packets 0->2 with one-packet VCs (vcDepth 5). P1 leaves
    // node 0 at cycle 0; node 0's terminal port is busy until 5
    // (node 0 sleeps 2-4). At 5, P2 finds VC(0->1) full: a proof
    // "until a drain", and node 0 sleeps. Node 1 forwards P1 at 6,
    // after node 0 in σ-order, so node 0 still sleeps at 6; the
    // drain signal wakes it at 7 and P2 leaves. P1: lands at 1 at
    // 6, at 2 at 12, delivered 17. P2: 7 -> 13 -> 19, delivered 24.
    // Without the drain wake P2 would never move.
    const topos::MeshTopology mesh(2, 3);
    SimConfig cfg;
    cfg.vcDepth = 5;
    NetworkModel net(mesh, cfg);
    DeliveryLog log;
    log.attach(net);
    net.inject(0, 2, 5, kRequest, 0);
    net.inject(0, 2, 5, kRequest, 0);
    for (Cycle c = 0; c < 60; ++c)
        net.step(c);
    ASSERT_EQ(log.at.size(), 2u);
    EXPECT_EQ(log.at[0].second, 17u);
    EXPECT_EQ(log.at[1].second, 24u);
    EXPECT_EQ(net.stats().routerCyclesSlept, 4u);
}

TEST(SleepWake, EscalationWhileAsleepHappensOnTheExactCycle)
{
    // A 60-flit packet 1->2 busies link 1->2 until cycle 60. A 5-flit
    // packet 0->2 lands at node 1 at cycle 6 and is blocked on that
    // link; its proof is capped at headSince + threshold + 1 = 27,
    // so node 1 sleeps 7-26 and escalates the head at exactly 27.
    // On the escape VC the head waits for the link until 60 (asleep
    // 28-59), lands at node 2 at 66, and waits for the ejection port
    // the big packet holds from 61 until 121 (node 2 asleep
    // 67-120): deliveries at 121 and 126; 20 + 32 + 54 slept.
    const topos::MeshTopology mesh(2, 3);
    SimConfig cfg;
    cfg.vcDepth = 64;
    cfg.escapeThreshold = 20;
    NetworkModel net(mesh, cfg);
    DeliveryLog log;
    log.attach(net);
    net.inject(1, 2, 60, kRequest, 0);
    net.inject(0, 2, 5, kRequest, 0);
    for (Cycle c = 0; c < 27; ++c)
        net.step(c);
    EXPECT_EQ(net.stats().escapeTransfers, 0u);
    net.step(27);
    EXPECT_EQ(net.stats().escapeTransfers, 1u);
    for (Cycle c = 28; c < 200; ++c)
        net.step(c);
    ASSERT_EQ(log.at.size(), 2u);
    EXPECT_EQ(log.at[0].second, 121u);
    EXPECT_EQ(log.at[1].second, 126u);
    EXPECT_EQ(net.stats().escapeHops, 1u);
    EXPECT_EQ(net.stats().routerCyclesSlept, 106u);
}

TEST(SleepWake, MidRunGateWakesSleepingRouter)
{
    // Node v ejects a 60-flit packet from in-neighbour a; a 5-flit
    // packet from another in-neighbour b lands while the port is
    // busy and v goes to sleep on the ejection proof. Gating v
    // mid-wait must wake it on the very next step: the stranded
    // packet's destination is gone, so it drops on that cycle.
    core::StringFigure topo(sfParams(16, 4));
    SimConfig cfg;
    cfg.vcDepth = 64;
    NetworkModel net(topo, cfg);
    const net::Graph &g = topo.graph();
    NodeId v = kInvalidNode;
    NodeId a = kInvalidNode;
    NodeId b = kInvalidNode;
    for (NodeId u = 0; u < 16 && b == kInvalidNode; ++u) {
        if (!topo.reconfig().canGate(u))
            continue;
        a = b = kInvalidNode;
        for (const LinkId l : g.inLinks(u)) {
            const NodeId src = g.link(l).src;
            if (a == kInvalidNode)
                a = src;
            else if (src != a)
                b = src;
        }
        if (b != kInvalidNode)
            v = u;
    }
    ASSERT_NE(v, kInvalidNode);
    std::vector<Cycle> drops;
    net.setDropHandler(
        [&](const Packet &, Cycle c) { drops.push_back(c); });
    DeliveryLog log;
    log.attach(net);
    net.inject(a, v, 60, kRequest, 0);
    Cycle c = 0;
    for (; c < 70; ++c)
        net.step(c);
    ASSERT_EQ(log.at.size(), 1u);  // ejection recorded at its start
    net.inject(b, v, 5, kRequest, c);
    const std::uint64_t slept_before = net.stats().routerCyclesSlept;
    for (; c < 100; ++c)
        net.step(c);
    ASSERT_TRUE(drops.empty());
    EXPECT_GT(net.stats().routerCyclesSlept, slept_before + 10);
    ASSERT_TRUE(topo.gate(v).applied);
    net.onTopologyChanged();
    net.step(c);
    ASSERT_EQ(drops.size(), 1u);
    EXPECT_EQ(drops[0], c);
    EXPECT_EQ(net.inFlight(), 0u);
}

} // namespace

/**
 * @file
 * Simulator configuration (paper Table I defaults).
 *
 * The network clock matches the memory-node clock: 312.5 MHz with
 * HMC-based nodes, i.e. one cycle = 3.2 ns. The per-hop SerDes delay
 * of 3.2 ns (1.6 ns each end) is one extra cycle per hop. Links are
 * one flit wide per cycle; a 64-byte cache line plus header rides in
 * five 16-byte flits.
 */

#pragma once

#include <cstdint>

#include "core/routing_policy.hpp"
#include "net/types.hpp"

namespace sf::sim {

/** Tunable parameters of one simulation. */
struct SimConfig {
    /** Buffer depth of each virtual channel, in flits. */
    int vcDepth = 16;
    /** Flits per data packet (header + 64B line in 16B flits). */
    int packetFlits = 5;
    /** Extra cycles per hop for SerDes (3.2 ns at 312.5 MHz). */
    Cycle serdesCycles = 1;
    /**
     * Head-of-line wait (cycles) before a packet transfers to the
     * escape virtual channel. High enough that ordinary congestion
     * rides it out; only a genuine cyclic stall escalates.
     */
    Cycle escapeThreshold = 256;
    /**
     * Adaptive routing: a port whose downstream buffer is filled
     * beyond this fraction is diverted around when an alternative
     * candidate exists (paper: user-defined threshold, e.g. 50%).
     */
    double adaptiveThreshold = 0.5;
    /** Enable congestion-aware selection among route candidates. */
    bool adaptive = true;
    /** Cycles without any forward progress that mean deadlock. */
    Cycle watchdogCycles = 50000;
    /** Bits per flit (16-byte flits). */
    int flitBits = 128;
    /** Traffic/selection randomness seed. */
    std::uint64_t seed = 1;
    /**
     * Route-plane shards (`sfx --shards`): number of spatial node
     * partitions whose head-packet route computations run
     * concurrently each cycle when the simulation also has an
     * Executor (see NetworkModel::setRouteExecutor). Routes are
     * pure functions of the immutable topology, so the report is
     * byte-identical at every shard count — 1 disables the phase
     * and runs the exact serial engine.
     */
    int shards = 1;
    /**
     * Memoized route plane (`sfx --route-cache`): cache the pure
     * greedy route computation per (current, dest) pair in compact
     * per-topology next-hop tables (core/route_cache.hpp). A cached
     * value is the same pure function's output, so results are
     * byte-identical on or off — an execution knob like jobs and
     * shards, kept for A/B benchmarking. The cache memoizes the
     * current topology generation: a mid-run reconfiguration drops
     * the rows of the nodes whose routing changed and keeps the
     * rest (NetworkModel::onTopologyChanged), so it stays engaged
     * across elastic runs.
     */
    bool routeCache = true;
    /**
     * Routing policy (`sfx --policy`): which core::RoutingPolicy
     * answers route queries. Unlike shards/routeCache this is NOT
     * an execution knob — non-greedy policies change simulated
     * events (that is their purpose), so the experiment layer
     * records it in checkpoint metadata and reports. `greedy`
     * routes the incumbent topology routing through the seam with
     * zero behaviour change; adaptive policies read a congestion
     * snapshot frozen once per cycle at the route-plane barrier,
     * keeping every policy deterministic and shard-compatible.
     * The route cache only engages when the policy is cacheable
     * (greedy); adaptive decisions are congestion-dependent and
     * must never be memoized.
     */
    core::RoutingPolicyKind policy = core::RoutingPolicyKind::Greedy;
    /**
     * Commit-wavefront scheduler (`sfx --wavefront`): maximum
     * number of in-flight per-node decide stages the phase-pipeline
     * engine keeps ahead of the serial commit cursor when the
     * simulation also has an Executor (see
     * NetworkModel::setWavefrontExecutor). Decide stages run on
     * Executor workers as soon as every graph-adjacent σ-order
     * predecessor has committed; commits replay each node's
     * buffered effect set in exact serial walk order, so the report
     * is byte-identical at every wavefront width — 0 disables the
     * scheduler and runs the exact serial decide→commit loop. An
     * execution knob like shards/routeCache: never part of the
     * spec hash, allowed to change across checkpoint resumes.
     */
    int wavefront = 0;
    /**
     * Commit-wavefront cost-model instrumentation (ROADMAP item 5):
     * per-cycle counters for the serial arbitration walk length and
     * the dependency-chain depth across graph-adjacent nodes, the
     * bound on any deterministic out-of-order arbitration schedule.
     * Off by default — the profiling pass costs a neighbour scan
     * per arbitrated node. Changes no simulated event either way.
     */
    bool profileWavefront = false;
    /**
     * Per-phase wall-clock instrumentation: accumulate steady-clock
     * nanoseconds spent in each of the five cycle phases (land,
     * snapshot, route, arbitrate-decide, commit) into NetStats so
     * wavefront speedups — or their absence — are attributable.
     * Forces the serial arbitration walk (phase timings under
     * concurrent decides would be meaningless sums across threads)
     * and costs two clock reads per arbitrated node, so it is a
     * profiling knob, off by default. Changes no simulated event.
     */
    bool profilePhases = false;
    /**
     * Run ReconfigEngine::checkInvariants() after every mid-traffic
     * gate/ungate wave of an elastic run and throw on any
     * inconsistency. Always on in debug builds (!NDEBUG); this flag
     * opts Release test binaries in. Changes no simulated event.
     */
    bool validateReconfig = false;

    /** Nanoseconds per network cycle (312.5 MHz). */
    static constexpr double kNsPerCycle = 3.2;
};

} // namespace sf::sim

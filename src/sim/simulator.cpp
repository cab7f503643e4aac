#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <stdexcept>
#include <string>

#include "core/string_figure.hpp"

namespace sf::sim {

namespace {

/** Live-node list of a (possibly down-scaled) topology. */
std::vector<NodeId>
liveNodes(const net::Topology &topo)
{
    std::vector<NodeId> nodes;
    for (NodeId u = 0; u < topo.numNodes(); ++u) {
        if (topo.nodeAlive(u))
            nodes.push_back(u);
    }
    return nodes;
}

/** Per-node deterministic stream seed: mixes the run seed with the
 *  node id (and a stream tag) so every node owns an independent
 *  sequence that is still a pure function of cfg.seed. */
std::uint64_t
nodeStreamSeed(std::uint64_t seed, NodeId node, std::uint64_t tag)
{
    std::uint64_t h = seed + tag * 0x9e3779b97f4a7c15ULL +
                      (static_cast<std::uint64_t>(node) + 1) *
                          0xbf58476d1ce4e5b9ULL;
    h ^= h >> 30;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return h;
}

/** Copy the measured-window statistics into @p result. */
void
fillMeasuredStats(RunResult &result, const NetStats &stats)
{
    result.avgTotalLatency = stats.totalLatency.mean();
    result.avgNetworkLatency = stats.networkLatency.mean();
    result.p50Latency = stats.totalLatency.percentile(0.50);
    result.p99Latency = stats.totalLatency.percentile(0.99);
    result.avgHops = stats.avgHops();
    result.measuredPackets = stats.measuredPackets;
    result.escapeTransfers = stats.escapeTransfers;
    result.flitHops = stats.flitHops;
    result.tailTotal = stats.totalLatencyLog.summary();
    result.tailNetwork = stats.networkLatencyLog.summary();
    result.wavefrontCycles = stats.wavefrontCycles;
    result.wavefrontMaxWalk = stats.wavefrontMaxWalk;
    result.wavefrontMaxDepth = stats.wavefrontMaxDepth;
    result.phaseProfiledCycles = stats.phaseProfiledCycles;
    result.phaseLandNs = stats.phaseLandNs;
    result.phaseSnapshotNs = stats.phaseSnapshotNs;
    result.phaseRouteNs = stats.phaseRouteNs;
    result.phaseDecideNs = stats.phaseDecideNs;
    result.phaseCommitNs = stats.phaseCommitNs;
    result.forwardAttempts = stats.forwardAttempts;
    result.headsSkippedOnProof = stats.headsSkippedOnProof;
    result.routerCyclesSlept = stats.routerCyclesSlept;
    result.poolHighWater = stats.poolHighWater;
    result.droppedUnroutable = stats.droppedUnroutable;
    result.topologyEpochs = stats.topologyEpochs;
    if (stats.wavefrontCycles > 0) {
        const double cycles =
            static_cast<double>(stats.wavefrontCycles);
        result.wavefrontAvgWalk =
            static_cast<double>(stats.wavefrontNodesWalked) /
            cycles;
        result.wavefrontAvgDepth =
            static_cast<double>(stats.wavefrontDepthSum) / cycles;
    }
}

/**
 * The one synthetic-traffic cycle loop behind runSynthetic and
 * runSaturationProbe. With @p stop_at_verdict set, the loop also
 * ends as soon as sourceBacklogFloor proves that the next backlog
 * check will fire: the full run would then stop there with
 * saturated = true, so the verdict is already known (README,
 * "Probes stop at their verdict").
 */
RunResult
runSyntheticLoop(const net::Topology &topo, TrafficPattern pattern,
                 double rate, const SimConfig &cfg,
                 const RunPhases &phases, Executor *executor,
                 bool stop_at_verdict)
{
    NetworkModel net(topo, cfg);
    // Synthetic runs never reconfigure, so the whole run is one
    // topology epoch for both route planes (network.hpp).
    net.setRouteExecutor(executor);
    net.setWavefrontExecutor(executor);
    net.enableRouteCache();
    Rng traffic_rng(cfg.seed * 0x9e3779b9ULL + 17);
    const auto nodes = liveNodes(topo);
    const auto n_all = topo.numNodes();

    RunResult result;
    result.offeredLoad = rate * cfg.packetFlits;

    const Cycle measure_end = phases.warmup + phases.measure;
    const Cycle hard_end = measure_end + phases.drainLimit;
    std::uint64_t measured_injected = 0;
    std::uint64_t delivered_at_measure_start = 0;
    std::uint64_t delivered_at_measure_end = 0;
    // Early-abort when source queues pile several packets deep per
    // node: the network is saturated, no need to keep simulating.
    const std::uint64_t backlog_cap = nodes.size() * 6;

    Cycle cycle = 0;
    for (; cycle < hard_end; ++cycle) {
        if (cycle == phases.warmup)
            delivered_at_measure_start =
                net.stats().deliveredPackets;
        if (cycle == measure_end)
            delivered_at_measure_end = net.stats().deliveredPackets;

        const bool in_measure =
            cycle >= phases.warmup && cycle < measure_end;
        for (const NodeId src : nodes) {
            if (!traffic_rng.chance(rate))
                continue;
            const NodeId dst = trafficDestination(
                pattern, src, n_all, traffic_rng);
            if (dst == src || !topo.nodeAlive(dst))
                continue;
            net.inject(src, dst, cfg.packetFlits, kRequest, cycle,
                       0, in_measure);
            measured_injected += in_measure ? 1 : 0;
        }
        net.step(cycle);

        if ((cycle & 0xff) == 0 &&
            net.sourceQueueBacklog() > backlog_cap) {
            result.saturated = true;
            break;
        }
        if (cycle >= measure_end &&
            net.stats().measuredPackets >= measured_injected)
            break;  // drained
        // The floor never exceeds the backlog, so it is only worth
        // computing while the backlog itself is over the cap. The
        // check at `next` must be reached: no drain exit (that
        // needs cycle >= measure_end, and at measure_end the
        // backlog check runs first), no hard end, no watchdog.
        if (stop_at_verdict &&
            net.sourceQueueBacklog() > backlog_cap) {
            const Cycle next = (cycle | 0xff) + 1;
            if (next <= measure_end && next < hard_end &&
                next <= cfg.watchdogCycles &&
                net.sourceBacklogFloor(cycle, next) > backlog_cap) {
                result.saturated = true;
                break;
            }
        }
    }
    if (cycle >= hard_end)
        result.saturated = true;

    fillMeasuredStats(result, net.stats());
    result.simulatedCycles = cycle;
    if (cycle > phases.warmup && !nodes.empty()) {
        const Cycle window_end = std::min<Cycle>(cycle, measure_end);
        const std::uint64_t delivered_in_window =
            (delivered_at_measure_end > 0
                 ? delivered_at_measure_end
                 : net.stats().deliveredPackets) -
            delivered_at_measure_start;
        const double window = static_cast<double>(
            window_end - phases.warmup);
        if (window > 0) {
            result.acceptedLoad =
                static_cast<double>(delivered_in_window) *
                cfg.packetFlits /
                (window * static_cast<double>(nodes.size()));
            result.realizedLoad =
                static_cast<double>(measured_injected) *
                cfg.packetFlits /
                (window * static_cast<double>(nodes.size()));
        }
    }
    return result;
}

} // namespace

RunResult
runSynthetic(const net::Topology &topo, TrafficPattern pattern,
             double rate, const SimConfig &cfg,
             const RunPhases &phases, Executor *executor)
{
    return runSyntheticLoop(topo, pattern, rate, cfg, phases,
                            executor, false);
}

RunResult
runSaturationProbe(const net::Topology &topo, TrafficPattern pattern,
                   double rate, const SimConfig &cfg,
                   const RunPhases &phases, Executor *executor)
{
    return runSyntheticLoop(topo, pattern, rate, cfg, phases,
                            executor, true);
}

namespace {

/** Fixed degradation-window length for reconvergence telemetry:
 *  power of two, long enough for a stable window p99 at serving
 *  rates, short enough to resolve a blip inside one measure phase. */
constexpr Cycle kReconvergeWindow = 256;

/**
 * The open-loop driver behind runOpenLoop and runElastic. With
 * @p schedule null (or empty) this is the exact runOpenLoop
 * engine, event for event; otherwise @p elastic must alias
 * @p topo, and the schedule's waves apply serially at cycle
 * barriers with degradation-window telemetry around each.
 */
RunResult
runOpenLoopImpl(const net::Topology &topo, TrafficPattern pattern,
                const ArrivalConfig &arrivals, double rate,
                const SimConfig &cfg, const RunPhases &phases,
                Executor *executor, core::StringFigure *elastic,
                const ReconfigSchedule *schedule)
{
    NetworkModel net(topo, cfg);
    // Both route planes stay enabled even when the run
    // reconfigures: waves apply serially at a cycle barrier and
    // advance the topology generation, and each epoch shards and
    // memoizes against an immutable-within-epoch snapshot
    // (network.hpp).
    net.setRouteExecutor(executor);
    net.setWavefrontExecutor(executor);
    net.enableRouteCache();
    const auto nodes = liveNodes(topo);
    const auto n_all = topo.numNodes();

    // Per-node arrival schedules and destination streams. Both are
    // pure functions of (cfg.seed, node), so the whole injection
    // sequence is fixed before the first cycle executes —
    // congestion cannot push back on the offered load, and no
    // execution knob (jobs, shards) can reach it.
    std::vector<OpenLoopSource> sources;
    std::vector<Rng> destRng;
    std::vector<Cycle> nextArrival;
    sources.reserve(nodes.size());
    destRng.reserve(nodes.size());
    nextArrival.reserve(nodes.size());
    for (const NodeId src : nodes) {
        sources.emplace_back(arrivals, rate,
                             nodeStreamSeed(cfg.seed, src, 1));
        destRng.emplace_back(nodeStreamSeed(cfg.seed, src, 2));
        nextArrival.push_back(sources.back().next());
    }

    RunResult result;
    result.offeredLoad = rate * cfg.packetFlits;

    const Cycle measure_end = phases.warmup + phases.measure;
    const Cycle hard_end = measure_end + phases.drainLimit;
    std::uint64_t measured_injected = 0;
    std::uint64_t measured_dropped = 0;
    std::uint64_t delivered_at_measure_start = 0;
    std::uint64_t delivered_at_measure_end = 0;
    // Deeper early-abort cap than runSynthetic's: on/off arrival
    // processes legitimately pile transient bursts tens of packets
    // deep per node and then drain — only a backlog far beyond any
    // burst working set means the offered load exceeds capacity.
    const std::uint64_t backlog_cap = nodes.size() * 24;

    // Elastic bookkeeping: the schedule cursor, and the
    // degradation-window tracker of the wave in flight.
    const bool reconfiguring = schedule && !schedule->empty();
    std::size_t next_ev = 0;
    int active_wave = -1;
    std::uint64_t wave_drop_base = 0;
    std::uint64_t wave_esc_base = 0;
    LogHistogram window_snap;
    Cycle last_window_p99 = 0;
    bool last_window_valid = false;
    if (reconfiguring) {
        // Measured packets whose destination vanished must count
        // toward the drain condition, or the run would wait forever
        // for deliveries that can no longer happen.
        net.setDropHandler([&](const Packet &p, Cycle) {
            if (p.measured)
                ++measured_dropped;
        });
    }

    const auto finalize_wave = [&](Cycle end) {
        if (active_wave < 0)
            return;
        ReconfigEventStats &ev = result.reconfigEvents
            [static_cast<std::size_t>(active_wave)];
        ev.reconvergeCycles = end > ev.at ? end - ev.at : 0;
        ev.dropBurst =
            net.stats().droppedUnroutable - wave_drop_base;
        ev.escalationBurst =
            net.stats().escapeTransfers - wave_esc_base;
        active_wave = -1;
    };

    const auto apply_wave = [&](Cycle now) {
        finalize_wave(now);
        ReconfigEventStats ev;
        ev.at = now;
        int applied = 0;
        while (next_ev < schedule->events.size() &&
               schedule->events[next_ev].at <= now) {
            const ReconfigEvent &e = schedule->events[next_ev++];
            switch (e.action) {
            case ReconfigAction::Leave: {
                if (!elastic->reconfig().canGate(e.node)) {
                    ++ev.refused;
                    break;
                }
                const auto r = elastic->gate(e.node);
                ev.gated += r.applied ? 1 : 0;
                ev.holes += r.holes;
                applied += r.applied ? 1 : 0;
                break;
            }
            case ReconfigAction::Fail: {
                // No feasibility courtesy: the node is gone whether
                // or not its rings can be repaired.
                const bool forced =
                    elastic->nodeAlive(e.node) &&
                    !elastic->reconfig().canGate(e.node);
                const auto r = elastic->gate(e.node);
                ev.gated += r.applied ? 1 : 0;
                ev.failForced += (forced && r.applied) ? 1 : 0;
                ev.holes += r.holes;
                applied += r.applied ? 1 : 0;
                break;
            }
            case ReconfigAction::Join: {
                const auto r = elastic->ungate(e.node);
                ev.ungated += r.applied ? 1 : 0;
                applied += r.applied ? 1 : 0;
                break;
            }
            }
        }
        // One epoch per wave: the generation advances exactly once
        // no matter how many nodes the wave touched.
        if (applied > 0)
            net.onTopologyChanged();
#ifdef NDEBUG
        const bool validate = cfg.validateReconfig;
#else
        const bool validate = true;
#endif
        if (validate) {
            const std::string err =
                elastic->reconfig().checkInvariants();
            if (!err.empty())
                throw std::runtime_error(
                    "reconfig invariants violated mid-run: " + err);
        }
        ev.baselineP99 =
            last_window_valid
                ? last_window_p99
                : net.stats().totalLatencyLog.percentile(0.99);
        wave_drop_base = net.stats().droppedUnroutable;
        wave_esc_base = net.stats().escapeTransfers;
        active_wave =
            static_cast<int>(result.reconfigEvents.size());
        result.reconfigEvents.push_back(ev);
    };

    Cycle cycle = 0;
    for (; cycle < hard_end; ++cycle) {
        if (cycle == phases.warmup)
            delivered_at_measure_start =
                net.stats().deliveredPackets;
        if (cycle == measure_end) {
            delivered_at_measure_end = net.stats().deliveredPackets;
            // Measured samples stop here, so reconvergence cannot
            // be observed past this point: close any open wave.
            finalize_wave(measure_end);
        }

        // Degradation windows: at each fixed boundary, extract the
        // window's p99 from the log-bucket bin deltas and test the
        // active wave against the tolerance band (<= 1.25x the
        // pre-wave baseline). Pure functions of the event stream —
        // identical at every jobs/shards/route-cache setting.
        if (reconfiguring && cycle > 0 && cycle <= measure_end &&
            (cycle & (kReconvergeWindow - 1)) == 0) {
            const LogHistogram &log = net.stats().totalLatencyLog;
            if (log.countSince(window_snap) > 0) {
                const Cycle w =
                    log.percentileSince(window_snap, 0.99);
                if (active_wave >= 0) {
                    ReconfigEventStats &ev = result.reconfigEvents
                        [static_cast<std::size_t>(active_wave)];
                    ev.blipP99 = std::max(ev.blipP99, w);
                    if (w * 4 <= ev.baselineP99 * 5) {
                        ev.reconverged = true;
                        finalize_wave(cycle);
                    }
                }
                last_window_p99 = w;
                last_window_valid = true;
            }
            window_snap = log;
        }

        // Reconfig waves apply serially at the cycle barrier:
        // before injection, before the network steps.
        if (reconfiguring && next_ev < schedule->events.size() &&
            schedule->events[next_ev].at <= cycle)
            apply_wave(cycle);

        const bool in_measure =
            cycle >= phases.warmup && cycle < measure_end;
        // Serial, ascending-node injection order: the arrival
        // heap's push interleaving is load-bearing (ROADMAP
        // total-event-order constraint), so schedules drain in a
        // fixed order no matter how they were generated.
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            while (nextArrival[i] <= cycle) {
                nextArrival[i] = sources[i].next();
                const NodeId src = nodes[i];
                const NodeId dst = trafficDestination(
                    pattern, src, n_all, destRng[i]);
                // Gated sources and destinations skip the inject
                // but still consume their stream draws, so the
                // schedules of the surviving nodes are untouched
                // by who else is live.
                if (dst == src || !topo.nodeAlive(dst) ||
                    !topo.nodeAlive(src))
                    continue;
                net.inject(src, dst, cfg.packetFlits, kRequest,
                           cycle, 0, in_measure);
                measured_injected += in_measure ? 1 : 0;
            }
        }
        net.step(cycle);

        if ((cycle & 0xff) == 0 &&
            net.sourceQueueBacklog() > backlog_cap) {
            result.saturated = true;
            break;
        }
        if (cycle >= measure_end &&
            net.stats().measuredPackets + measured_dropped >=
                measured_injected)
            break;  // every measured packet delivered or dropped
    }
    if (cycle >= hard_end)
        result.saturated = true;
    finalize_wave(std::min(cycle, measure_end));

    fillMeasuredStats(result, net.stats());
    result.simulatedCycles = cycle;
    if (cycle > phases.warmup && !nodes.empty()) {
        const Cycle window_end = std::min<Cycle>(cycle, measure_end);
        const std::uint64_t delivered_in_window =
            (delivered_at_measure_end > 0
                 ? delivered_at_measure_end
                 : net.stats().deliveredPackets) -
            delivered_at_measure_start;
        const double window = static_cast<double>(
            window_end - phases.warmup);
        if (window > 0) {
            result.acceptedLoad =
                static_cast<double>(delivered_in_window) *
                cfg.packetFlits /
                (window * static_cast<double>(nodes.size()));
            result.realizedLoad =
                static_cast<double>(measured_injected) *
                cfg.packetFlits /
                (window * static_cast<double>(nodes.size()));
        }
    }
    return result;
}

} // namespace

RunResult
runOpenLoop(const net::Topology &topo, TrafficPattern pattern,
            const ArrivalConfig &arrivals, double rate,
            const SimConfig &cfg, const RunPhases &phases,
            Executor *executor)
{
    return runOpenLoopImpl(topo, pattern, arrivals, rate, cfg,
                           phases, executor, nullptr, nullptr);
}

RunResult
runElastic(core::StringFigure &topo, TrafficPattern pattern,
           const ArrivalConfig &arrivals, double rate,
           const ReconfigSchedule &schedule, const SimConfig &cfg,
           const RunPhases &phases, Executor *executor)
{
    return runOpenLoopImpl(topo, pattern, arrivals, rate, cfg,
                           phases, executor, &topo, &schedule);
}

double
zeroLoadLatency(const net::Topology &topo, const SimConfig &cfg,
                TrafficPattern pattern, Executor *executor)
{
    RunPhases phases;
    phases.warmup = 500;
    phases.measure = 4000;
    phases.drainLimit = 20000;
    const auto result =
        runSynthetic(topo, pattern, 0.002, cfg, phases, executor);
    return result.avgTotalLatency;
}

namespace {

/**
 * One step of walking the serial search against the known probe
 * outcomes: either the search finished with a value, or it is
 * blocked on the probe rate in `needs`.
 */
struct SearchWalk {
    bool done = false;
    double value = 0.0;
    double needs = 0.0;
};

/** Pseudo-rate standing for the zero-load calibration run. */
constexpr double kZeroLoadProbe = -1.0;

} // namespace

double
findSaturationRate(const net::Topology &topo, TrafficPattern pattern,
                   const SimConfig &cfg, const RunPhases &phases,
                   double tolerance, Executor *executor)
{
    Executor &exec = executor ? *executor : serialExecutor();

    // Memoised probe verdicts (saturated or not). A probe is a
    // pure function of its rate — the traffic RNG seeds from
    // cfg.seed alone — so probes may be evaluated in any order
    // (including speculatively, in parallel) without changing what
    // the serial search would pick. Probes stop once their verdict
    // is certain, so only the verdict is kept: the other fields of
    // an early-stopped probe are partial.
    std::map<double, bool> memo;
    double zero_load = -1.0; // < 0 until calibrated

    // Walk the exact serial algorithm (geometric descent, then
    // bisection) against memoised outcomes; `assume` supplies
    // hypothetical outcomes so the speculation planner can explore
    // the decision tree past the blocking probe.
    const auto walk =
        [&](const std::map<double, bool> &assume) -> SearchWalk {
        const bool zero_load_known =
            zero_load >= 0.0 || assume.count(kZeroLoadProbe) > 0;
        if (!zero_load_known)
            return {false, 0.0, kZeroLoadProbe};
        bool blocked = false;
        double needs = 0.0;
        const auto sat = [&](double rate) {
            const auto it = memo.find(rate);
            if (it != memo.end())
                return it->second;
            const auto ia = assume.find(rate);
            if (ia != assume.end())
                return ia->second;
            blocked = true;
            needs = rate;
            return false;
        };

        const bool sat_full = sat(1.0);
        if (blocked)
            return {false, 0.0, needs};
        if (!sat_full)
            return {true, 1.0, 0.0};
        double hi = 1.0;
        double probe = 0.5;
        while (probe > 1e-4) {
            const bool s = sat(probe);
            if (blocked)
                return {false, 0.0, needs};
            if (!s)
                break;
            hi = probe;
            probe /= 4.0;
        }
        if (probe <= 1e-4)
            return {true, probe, 0.0};
        double lo = probe;
        while (hi / lo > 1.0 + tolerance) {
            const double mid = std::sqrt(hi * lo);
            const bool s = sat(mid);
            if (blocked)
                return {false, 0.0, needs};
            if (s)
                hi = mid;
            else
                lo = mid;
        }
        return {true, lo, 0.0};
    };

    while (true) {
        const SearchWalk step = walk({});
        if (step.done)
            return step.value;

        // The probe the serial search needs right now, plus — when
        // idle workers exist — the probes it may need next (BFS
        // over both outcomes of each pending probe). Speculation
        // only ever uses capacity that would otherwise idle.
        std::vector<double> batch{step.needs};
        const int width = exec.availableParallelism();
        if (width > 1) {
            std::deque<std::map<double, bool>> frontier;
            if (step.needs == kZeroLoadProbe) {
                frontier.push_back({{kZeroLoadProbe, true}});
            } else {
                frontier.push_back({{step.needs, true}});
                frontier.push_back({{step.needs, false}});
            }
            int expansions = 0;
            while (static_cast<int>(batch.size()) < width &&
                   !frontier.empty() && expansions < 8 * width) {
                ++expansions;
                const std::map<double, bool> assume =
                    std::move(frontier.front());
                frontier.pop_front();
                const SearchWalk spec = walk(assume);
                if (spec.done)
                    continue;
                if (std::find(batch.begin(), batch.end(),
                              spec.needs) == batch.end())
                    batch.push_back(spec.needs);
                std::map<double, bool> yes = assume;
                yes[spec.needs] = true;
                frontier.push_back(std::move(yes));
                if (spec.needs != kZeroLoadProbe) {
                    std::map<double, bool> no = assume;
                    no[spec.needs] = false;
                    frontier.push_back(std::move(no));
                }
            }
        }

        std::vector<RunResult> results(batch.size());
        double zero_load_result = -1.0;
        std::vector<std::function<void()>> tasks;
        tasks.reserve(batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            tasks.push_back([&, i] {
                // Probes pass the executor through, so a probe's
                // own route plane may shard onto workers that are
                // not busy with sibling probes (nested batches).
                if (batch[i] == kZeroLoadProbe)
                    zero_load_result = zeroLoadLatency(
                        topo, cfg, pattern, executor);
                else
                    results[i] = runSaturationProbe(
                        topo, pattern, batch[i], cfg, phases,
                        executor);
            });
        }
        exec.runAll(tasks);
        // The zero-load calibration is the first probe the search
        // needs, so it completes in (or before) the batch of every
        // rate probe and the latency cap is known here.
        if (std::find(batch.begin(), batch.end(), kZeroLoadProbe) !=
            batch.end())
            zero_load = zero_load_result;
        const double latency_cap = std::max(3.0 * zero_load, 120.0);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            if (batch[i] != kZeroLoadProbe)
                memo.emplace(batch[i],
                             results[i].saturated ||
                                 results[i].avgTotalLatency >
                                     latency_cap);
        }
    }
}

std::vector<SweepPoint>
latencySweep(const net::Topology &topo, TrafficPattern pattern,
             const std::vector<double> &rates, const SimConfig &cfg,
             const RunPhases &phases, Executor *executor)
{
    std::vector<SweepPoint> points;
    points.reserve(rates.size());
    for (const double rate : rates)
        points.push_back(SweepPoint{
            rate, runSynthetic(topo, pattern, rate, cfg, phases,
                               executor)});
    return points;
}

} // namespace sf::sim

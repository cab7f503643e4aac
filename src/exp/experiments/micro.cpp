/**
 * @file
 * Routing-overhead microbenchmarks (paper Section III-B claims):
 * forwarding decisions cost a fixed, small number of distance
 * computations independent of scale; routing state stays bounded
 * at p(p+1) entries; construction and reconfiguration are cheap.
 *
 * Replaces the old google-benchmark harness with steady_clock
 * timing loops so the experiment rides the same registry, CLI, and
 * report as everything else; like google-benchmark's repetitions,
 * every run repeats its timing loop and reports min / mean /
 * stddev, so scheduling jitter is visible instead of folded into a
 * single mean. Timing metrics are inherently machine-dependent, so
 * the spec is marked non-deterministic and excluded from
 * byte-identical report checks.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/route_cache.hpp"
#include "core/string_figure.hpp"
#include "core/topology_builder.hpp"
#include "exp/experiments/builtin.hpp"
#include "exp/experiments/common.hpp"
#include "exp/registry.hpp"
#include "exp/work_pool.hpp"
#include "net/rng.hpp"
#include "sim/simulator.hpp"
#include "topos/factory.hpp"

namespace sf::exp {

namespace {

core::SFParams
paramsFor(std::size_t n, std::uint64_t seed)
{
    core::SFParams params;
    params.numNodes = n;
    params.routerPorts = n <= 128 ? 4 : 8;
    params.seed = seed;
    return params;
}

/**
 * Run @p op in a timing loop for ~@p budget_ms and return average
 * nanoseconds per iteration (includes a short warmup batch).
 */
template <typename Op>
double
nsPerIteration(Op &&op, double budget_ms)
{
    using clock = std::chrono::steady_clock;
    for (int i = 0; i < 64; ++i)
        op();
    std::uint64_t iterations = 0;
    const auto start = clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        budget_ms));
    auto now = start;
    while (now < deadline) {
        for (int i = 0; i < 256; ++i)
            op();
        iterations += 256;
        now = clock::now();
    }
    const double ns =
        std::chrono::duration<double, std::nano>(now - start)
            .count();
    return ns / static_cast<double>(iterations);
}

/** min / mean / population stddev over timing repetitions. */
struct TimingStats {
    double min = 0.0;
    double mean = 0.0;
    double stddev = 0.0;
};

/**
 * Repeat the @p budget_ms timing loop @p reps times (what the old
 * google-benchmark harness did with --benchmark_repetitions) so a
 * run reports scheduling noise instead of hiding it: min is the
 * least-disturbed estimate, stddev the jitter.
 */
template <typename Op>
TimingStats
timedReps(Op &&op, int reps, double budget_ms)
{
    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r)
        samples.push_back(nsPerIteration(op, budget_ms));
    TimingStats stats;
    stats.min = samples[0];
    for (const double s : samples) {
        stats.min = std::min(stats.min, s);
        stats.mean += s;
    }
    stats.mean /= static_cast<double>(samples.size());
    double var = 0.0;
    for (const double s : samples)
        var += (s - stats.mean) * (s - stats.mean);
    stats.stddev =
        std::sqrt(var / static_cast<double>(samples.size()));
    return stats;
}

/** Emit "<key>_min/_mean/_stddev", scaled by @p scale. */
void
setTimingMetrics(Json &m, const char *key,
                 const TimingStats &stats, double scale = 1.0)
{
    const std::string base(key);
    m.set(base + "_min", stats.min * scale);
    m.set(base + "_mean", stats.mean * scale);
    m.set(base + "_stddev", stats.stddev * scale);
}

ExperimentSpec
microSpec()
{
    ExperimentSpec spec;
    spec.name = "micro_routing";
    spec.artefact = "Sec III-B";
    spec.title = "routing/decision/construction latency "
                 "microbenchmarks (wall-clock; non-deterministic)";
    spec.deterministic = false;
    spec.plan = [](const PlanContext &ctx) {
        const double budget_ms = pick(ctx.effort, 10.0, 40.0, 120.0);
        const int reps = pick(ctx.effort, 3, 5, 8);
        std::vector<RunSpec> runs;

        const auto add_decision =
            [&](const char *which, std::size_t n, bool widen) {
                RunSpec run;
                run.id = fmt("%s/n%zu", which, n);
                run.params.set("op", which);
                run.params.set("nodes", n);
                run.params.set("reps", reps);
                run.body = [n, widen, budget_ms, reps](
                               const RunContext &rc) -> Json {
                    const core::StringFigure topo(
                        paramsFor(n, rc.baseSeed));
                    Rng rng(rc.seed);
                    LinkId out[net::kMaxRouteCandidates];
                    const auto stats = timedReps(
                        [&] {
                            const auto s = static_cast<NodeId>(
                                rng.below(n));
                            const auto t = static_cast<NodeId>(
                                rng.below(n));
                            if (s == t)
                                return;
                            topo.routeCandidates(s, t, widen,
                                                 out);
                        },
                        reps, budget_ms);
                    Json m = Json::object();
                    setTimingMetrics(m, "ns_per_decision",
                                     stats);
                    m.set("table_entries_max",
                          topo.tables().maxEntriesSeen());
                    return m;
                };
                runs.push_back(std::move(run));
            };
        for (const std::size_t n : {64u, 256u, 1296u})
            add_decision("greedy_decision", n, false);
        for (const std::size_t n : {256u, 1296u})
            add_decision("adaptive_first_hop", n, true);

        // The memoized route plane's unit cost: the same decision
        // served from a warm core::RouteCache instead of the table
        // scan + multi-space distance ranking. The gap between
        // this and greedy_decision is the per-lookup saving the
        // simulator's cached fast path banks.
        for (const std::size_t n : {256u, 1296u}) {
            for (const bool first_hop : {false, true}) {
                RunSpec run;
                const char *which = first_hop
                                        ? "cached_first_hop"
                                        : "cached_decision";
                run.id = fmt("%s/n%zu", which, n);
                run.params.set("op", which);
                run.params.set("nodes", n);
                run.params.set("reps", reps);
                run.body = [n, first_hop, budget_ms, reps](
                               const RunContext &rc) -> Json {
                    const core::StringFigure topo(
                        paramsFor(n, rc.baseSeed));
                    core::RouteCache cache(topo);
                    Rng rng(rc.seed);
                    LinkId out[net::kMaxRouteCandidates];
                    const auto stats = timedReps(
                        [&] {
                            const auto s = static_cast<NodeId>(
                                rng.below(n));
                            const auto t = static_cast<NodeId>(
                                rng.below(n));
                            if (s == t)
                                return;
                            cache.candidates(s, t, first_hop,
                                             out);
                        },
                        reps, budget_ms);
                    Json m = Json::object();
                    setTimingMetrics(m, "ns_per_decision",
                                     stats);
                    m.set("cache_rows",
                          first_hop ? cache.firstHopRows()
                                    : cache.committedRows());
                    return m;
                };
                runs.push_back(std::move(run));
            }
        }

        for (const std::size_t n : {256u, 1296u}) {
            RunSpec run;
            run.id = fmt("routed_walk/n%zu", n);
            run.params.set("op", "routed_walk");
            run.params.set("nodes", n);
            run.params.set("reps", reps);
            run.body = [n, budget_ms,
                        reps](const RunContext &rc) -> Json {
                const core::StringFigure topo(
                    paramsFor(n, rc.baseSeed));
                Rng rng(rc.seed);
                long long sink = 0;
                const auto stats = timedReps(
                    [&] {
                        const auto s =
                            static_cast<NodeId>(rng.below(n));
                        const auto t =
                            static_cast<NodeId>(rng.below(n));
                        if (s == t)
                            return;
                        sink += net::routedHops(topo, s, t);
                    },
                    reps, budget_ms);
                Json m = Json::object();
                setTimingMetrics(m, "ns_per_walk", stats);
                m.set("checksum", sink >= 0);
                return m;
            };
            runs.push_back(std::move(run));
        }

        for (const std::size_t n : {128u, 1296u}) {
            RunSpec run;
            run.id = fmt("topology_build/n%zu", n);
            run.params.set("op", "topology_build");
            run.params.set("nodes", n);
            run.params.set("reps", reps);
            run.body = [n, budget_ms,
                        reps](const RunContext &rc) -> Json {
                std::size_t links = 0;
                const auto stats = timedReps(
                    [&] {
                        // The deployed-network build: wire
                        // construction, routing tables, and the
                        // reconfiguration engine.
                        const auto topo = core::buildTopology(
                            paramsFor(n, rc.baseSeed));
                        links = topo->graph().numLinks();
                    },
                    reps,
                    // Construction is ms-scale; one batch is
                    // enough at quick effort.
                    budget_ms * 10.0);
                Json m = Json::object();
                setTimingMetrics(m, "ms_per_build", stats,
                                 1.0 / 1e6);
                m.set("links", links);
                return m;
            };
            runs.push_back(std::move(run));
        }

        for (const std::size_t n : {256u, 1296u}) {
            RunSpec run;
            run.id = fmt("reconfig_round_trip/n%zu", n);
            run.params.set("op", "reconfig_round_trip");
            run.params.set("nodes", n);
            run.params.set("reps", reps);
            run.body = [n, budget_ms,
                        reps](const RunContext &rc) -> Json {
                // Private instance: gating mutates the topology.
                core::StringFigure topo(
                    paramsFor(n, rc.baseSeed));
                Rng rng(rc.seed);
                const auto stats = timedReps(
                    [&] {
                        const auto u =
                            static_cast<NodeId>(rng.below(n));
                        if (!topo.reconfig().canGate(u))
                            return;
                        topo.gate(u);
                        topo.ungate(u);
                    },
                    reps, budget_ms);
                Json m = Json::object();
                setTimingMetrics(m, "us_per_round_trip", stats,
                                 1.0 / 1e3);
                m.set("table_rebuilds",
                      topo.reconfig().stats().tableRebuilds);
                return m;
            };
            runs.push_back(std::move(run));
        }
        return runs;
    };
    return spec;
}

/**
 * Peak resident set of this process, in kilobytes (Linux VmHWM; 0
 * where /proc is unavailable). VmHWM is monotonic for the process
 * lifetime, so each run calls resetPeakRss() first; without that
 * reset a low-load row would inherit the peak of whatever ran
 * before it. Whole-process either way, so only meaningful at
 * --jobs 1 with nothing else in flight — which is exactly how the
 * CI perf-smoke job invokes it.
 */
std::size_t
processPeakRssKb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    std::size_t kb = 0;
    while (std::fgets(line, sizeof line, f)) {
        if (std::sscanf(line, "VmHWM: %zu kB", &kb) == 1)
            break;
    }
    std::fclose(f);
    return kb;
}

/** Reset VmHWM to the current RSS (Linux: "5" into clear_refs);
 *  best-effort — where unsupported, VmHWM stays monotonic. */
void
resetPeakRss()
{
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    if (!f)
        return;
    std::fputs("5", f);
    std::fclose(f);
}

/**
 * The arbitration work counters of one run: forward attempts, heads
 * skipped on a proof, router-cycles slept. Implementation-dependent
 * (test-only, like routeCacheRebuilds): they show where sleep/wake
 * arbitration saves work and never appear in deterministic reports.
 */
void
setWorkCounters(Json &m, const sim::RunResult &result)
{
    m.set("forward_attempts", result.forwardAttempts);
    m.set("heads_skipped_on_proof", result.headsSkippedOnProof);
    m.set("router_cycles_slept", result.routerCyclesSlept);
}

/**
 * Cycle-engine hot-path benchmark (BENCH_sim_hotpath.json): wall
 * clock of full runSynthetic simulations on the paper's largest
 * Fig 11 configuration — 1024 nodes, uniform-random traffic — at a
 * low, a mid, and a high (near-saturation) load point, each at a
 * sweep of route-plane shard counts so the report carries the
 * scaling curve of the sharded engine. Every row owns a WorkPool of
 * exactly its shard count (independent of --jobs), so the s1 row is
 * the serial engine's number and the s>1 rows measure the sharded
 * one. Each (point, shards) cell runs with the memoized route
 * plane on (the default engine) and off (`.../nocache` rows), so
 * the report carries the cache's speedup next to the shard curve;
 * `simulated_cycles` / `measured_packets` / `flit_hops` must agree
 * across every row of one load point — shard count and cache state
 * alike — so the benchmark doubles as determinism evidence. The
 * `cycles_per_sec` metric is the engine's headline throughput; the
 * perf-smoke CI job archives the report so the trajectory is
 * visible PR over PR.
 *
 * The per-point `wavefront` rows run the serial engine with
 * SimConfig::profileWavefront and report the measured commit-
 * wavefront cost model (ROADMAP item 5): arbitration-walk length
 * and graph-adjacent dependency-chain depth per cycle. Their
 * ratio (avg_walk / avg_depth) bounds the speedup any order-
 * preserving out-of-order arbitration schedule could extract.
 *
 * The per-point `phases` rows run the serial engine with
 * SimConfig::profilePhases and report wall time per pipeline phase
 * of docs/engine_phases.md (land / snapshot / route / arbitrate-
 * decide / commit, ns per cycle), so any wavefront speedup — or
 * its absence — is attributable to the phase it did or didn't
 * shrink. The `w<N>` rows are the wavefront engine's own
 * wall-clock twins of the shard rows: cfg.wavefront = N over a
 * private N-thread pool, same metric set as the `s<N>` rows so
 * cycles_per_sec compares directly against the serial `s1` row.
 */
ExperimentSpec
microSimulatorSpec()
{
    ExperimentSpec spec;
    spec.name = "micro_simulator";
    spec.artefact = "Sec VI";
    spec.title = "cycle-engine hot-path wall clock on 1024-node "
                 "uniform-random runs, per shard count "
                 "(non-deterministic)";
    spec.deterministic = false;
    spec.plan = [](const PlanContext &ctx) {
        const int reps = pick(ctx.effort, 1, 2, 3);
        // The CI perf-smoke job runs quick effort, so shards 1 and
        // 2 ride every CI run; the wider counts need real cores to
        // say anything and stay on default/full.
        const std::vector<int> shard_counts =
            pick<std::vector<int>>(ctx.effort, {1, 2},
                                   {1, 2, 4, 8}, {1, 2, 4, 8});
        // Commit-wavefront widths for the `w<N>` wall-clock rows;
        // like the shard counts, quick keeps one CI-sized width and
        // the wider ones need real cores.
        const std::vector<int> wavefront_widths =
            pick<std::vector<int>>(ctx.effort, {2}, {2, 4, 8},
                                   {2, 4, 8});
        std::vector<RunSpec> runs;
        // Beyond-saturation rates trip the backlog early-abort
        // within a few hundred cycles and measure almost nothing,
        // so "high" is the heaviest sustained load: just under the
        // 1024-node SF saturation point of the Fig 11 curve.
        const struct {
            const char *label;
            double rate;
        } points[] = {
            {"low", 0.005},
            {"mid", 0.020},
            {"high", 0.045},
        };
        for (const auto &point : points) {
            for (const int shards : shard_counts) {
              for (const bool cache : {true, false}) {
                RunSpec run;
                // Cache-on rows keep the historical ids so the
                // perf trajectory stays comparable PR over PR;
                // the A/B twin rides a `/nocache` suffix.
                run.id = cache
                             ? fmt("n1024/uniform/%s/s%d",
                                   point.label, shards)
                             : fmt("n1024/uniform/%s/s%d/nocache",
                                   point.label, shards);
                run.params.set("nodes", 1024);
                run.params.set("pattern", "uniform");
                run.params.set("load", point.label);
                run.params.set("rate", point.rate);
                run.params.set("shards", shards);
                run.params.set("route_cache", cache);
                run.params.set("reps", reps);
                const double rate = point.rate;
                const std::string point_id =
                    fmt("n1024/uniform/%s", point.label);
                run.body = [rate, reps, shards, cache,
                            point_id](const RunContext &rc) -> Json {
                    resetPeakRss();
                    const auto topo = topos::cachedTopology(
                        topos::TopoKind::SF, 1024, rc.baseSeed);
                    sim::SimConfig cfg;
                    // Seeded per load point, not per row: every
                    // shard and cache row of one point then
                    // simulates the identical event sequence, so
                    // equal simulated_cycles / measured_packets /
                    // flit_hops across the point's rows are
                    // determinism evidence right in the benchmark
                    // report.
                    cfg.seed = deriveSeed("micro_simulator",
                                          point_id, rc.baseSeed);
                    cfg.shards = shards;
                    cfg.routeCache = cache;
                    // A private pool sized to the shard count:
                    // the row measures the sharded engine itself,
                    // not whatever --jobs left idle. (Thread
                    // stacks nudge peak RSS up slightly on s>1
                    // rows; the s1 row stays pool-free.)
                    std::unique_ptr<WorkPool> pool;
                    if (shards > 1)
                        pool =
                            std::make_unique<WorkPool>(shards);
                    const auto phases =
                        sim::RunPhases::latencyCurve();
                    using clock = std::chrono::steady_clock;
                    double best_s = 0.0;
                    double sum_s = 0.0;
                    sim::RunResult result;
                    for (int r = 0; r < reps; ++r) {
                        const auto start = clock::now();
                        result = sim::runSynthetic(
                            *topo,
                            sim::TrafficPattern::UniformRandom,
                            rate, cfg, phases, pool.get());
                        const double s =
                            std::chrono::duration<double>(
                                clock::now() - start)
                                .count();
                        sum_s += s;
                        if (r == 0 || s < best_s)
                            best_s = s;
                    }
                    Json m = Json::object();
                    m.set("cycles_per_sec",
                          best_s > 0.0
                              ? static_cast<double>(
                                    result.simulatedCycles) /
                                    best_s
                              : 0.0);
                    m.set("wall_s_min", best_s);
                    m.set("wall_s_mean",
                          sum_s / static_cast<double>(reps));
                    m.set("simulated_cycles",
                          static_cast<std::uint64_t>(
                              result.simulatedCycles));
                    m.set("measured_packets",
                          result.measuredPackets);
                    m.set("flit_hops", result.flitHops);
                    setWorkCounters(m, result);
                    m.set("saturated", result.saturated);
                    m.set("process_peak_rss_kb",
                          processPeakRssKb());
                    return m;
                };
                runs.push_back(std::move(run));
              }
            }
            // Commit-wavefront cost model row (ROADMAP item 5):
            // one serial profiled run per load point. Reported
            // metrics are pure functions of the deterministic
            // event stream; only this experiment's wall-clock
            // framing keeps them out of byte-identity gates.
            {
                RunSpec run;
                run.id = fmt("n1024/uniform/%s/wavefront",
                             point.label);
                run.params.set("nodes", 1024);
                run.params.set("pattern", "uniform");
                run.params.set("load", point.label);
                run.params.set("rate", point.rate);
                run.params.set("op", "wavefront_profile");
                const double rate = point.rate;
                const std::string point_id =
                    fmt("n1024/uniform/%s", point.label);
                run.body = [rate,
                            point_id](const RunContext &rc) -> Json {
                    const auto topo = topos::cachedTopology(
                        topos::TopoKind::SF, 1024, rc.baseSeed);
                    sim::SimConfig cfg;
                    cfg.seed = deriveSeed("micro_simulator",
                                          point_id, rc.baseSeed);
                    cfg.profileWavefront = true;
                    const auto result = sim::runSynthetic(
                        *topo,
                        sim::TrafficPattern::UniformRandom, rate,
                        cfg, sim::RunPhases::latencyCurve());
                    Json m = Json::object();
                    m.set("wavefront_cycles",
                          result.wavefrontCycles);
                    m.set("avg_walk", result.wavefrontAvgWalk);
                    m.set("max_walk", result.wavefrontMaxWalk);
                    m.set("avg_depth", result.wavefrontAvgDepth);
                    m.set("max_depth", result.wavefrontMaxDepth);
                    m.set("walk_over_depth",
                          result.wavefrontAvgDepth > 0.0
                              ? result.wavefrontAvgWalk /
                                    result.wavefrontAvgDepth
                              : 0.0);
                    m.set("simulated_cycles",
                          static_cast<std::uint64_t>(
                              result.simulatedCycles));
                    return m;
                };
                runs.push_back(std::move(run));
            }
            // Per-phase wall-time breakdown (serial engine,
            // SimConfig::profilePhases): where each simulated
            // cycle's nanoseconds actually go, phase by phase of
            // docs/engine_phases.md.
            {
                RunSpec run;
                run.id =
                    fmt("n1024/uniform/%s/phases", point.label);
                run.params.set("nodes", 1024);
                run.params.set("pattern", "uniform");
                run.params.set("load", point.label);
                run.params.set("rate", point.rate);
                run.params.set("op", "phase_profile");
                const double rate = point.rate;
                const std::string point_id =
                    fmt("n1024/uniform/%s", point.label);
                run.body = [rate,
                            point_id](const RunContext &rc) -> Json {
                    const auto topo = topos::cachedTopology(
                        topos::TopoKind::SF, 1024, rc.baseSeed);
                    sim::SimConfig cfg;
                    cfg.seed = deriveSeed("micro_simulator",
                                          point_id, rc.baseSeed);
                    cfg.profilePhases = true;
                    const auto result = sim::runSynthetic(
                        *topo,
                        sim::TrafficPattern::UniformRandom, rate,
                        cfg, sim::RunPhases::latencyCurve());
                    const double cycles =
                        result.phaseProfiledCycles > 0
                            ? static_cast<double>(
                                  result.phaseProfiledCycles)
                            : 1.0;
                    Json m = Json::object();
                    m.set("profiled_cycles",
                          result.phaseProfiledCycles);
                    m.set("land_ns_per_cycle",
                          static_cast<double>(result.phaseLandNs) /
                              cycles);
                    m.set("snapshot_ns_per_cycle",
                          static_cast<double>(
                              result.phaseSnapshotNs) /
                              cycles);
                    m.set("route_ns_per_cycle",
                          static_cast<double>(
                              result.phaseRouteNs) /
                              cycles);
                    m.set("decide_ns_per_cycle",
                          static_cast<double>(
                              result.phaseDecideNs) /
                              cycles);
                    m.set("commit_ns_per_cycle",
                          static_cast<double>(
                              result.phaseCommitNs) /
                              cycles);
                    m.set("simulated_cycles",
                          static_cast<std::uint64_t>(
                              result.simulatedCycles));
                    return m;
                };
                runs.push_back(std::move(run));
            }
            // Wavefront-engine wall-clock rows: the decide/commit
            // pipeline at width N over a private N-thread pool,
            // same metrics as the shard rows so cycles_per_sec
            // compares against the serial s1 row directly.
            for (const int width : wavefront_widths) {
                RunSpec run;
                run.id = fmt("n1024/uniform/%s/w%d", point.label,
                             width);
                run.params.set("nodes", 1024);
                run.params.set("pattern", "uniform");
                run.params.set("load", point.label);
                run.params.set("rate", point.rate);
                run.params.set("wavefront", width);
                run.params.set("reps", reps);
                const double rate = point.rate;
                const std::string point_id =
                    fmt("n1024/uniform/%s", point.label);
                run.body = [rate, reps, width,
                            point_id](const RunContext &rc) -> Json {
                    resetPeakRss();
                    const auto topo = topos::cachedTopology(
                        topos::TopoKind::SF, 1024, rc.baseSeed);
                    sim::SimConfig cfg;
                    cfg.seed = deriveSeed("micro_simulator",
                                          point_id, rc.baseSeed);
                    cfg.wavefront = width;
                    WorkPool pool(width);
                    const auto phases =
                        sim::RunPhases::latencyCurve();
                    using clock = std::chrono::steady_clock;
                    double best_s = 0.0;
                    double sum_s = 0.0;
                    sim::RunResult result;
                    for (int r = 0; r < reps; ++r) {
                        const auto start = clock::now();
                        result = sim::runSynthetic(
                            *topo,
                            sim::TrafficPattern::UniformRandom,
                            rate, cfg, phases, &pool);
                        const double s =
                            std::chrono::duration<double>(
                                clock::now() - start)
                                .count();
                        sum_s += s;
                        if (r == 0 || s < best_s)
                            best_s = s;
                    }
                    Json m = Json::object();
                    m.set("cycles_per_sec",
                          best_s > 0.0
                              ? static_cast<double>(
                                    result.simulatedCycles) /
                                    best_s
                              : 0.0);
                    m.set("wall_s_min", best_s);
                    m.set("wall_s_mean",
                          sum_s / static_cast<double>(reps));
                    m.set("simulated_cycles",
                          static_cast<std::uint64_t>(
                              result.simulatedCycles));
                    m.set("measured_packets",
                          result.measuredPackets);
                    m.set("flit_hops", result.flitHops);
                    setWorkCounters(m, result);
                    m.set("saturated", result.saturated);
                    m.set("process_peak_rss_kb",
                          processPeakRssKb());
                    return m;
                };
                runs.push_back(std::move(run));
            }
        }
        return runs;
    };
    return spec;
}

} // namespace

void
registerMicroExperiments(Registry &r)
{
    r.add(microSpec());
    r.add(microSimulatorSpec());
}

void
registerBuiltinExperiments(Registry &r)
{
    registerStructureExperiments(r);
    registerTrafficExperiments(r);
    registerWorkloadExperiments(r);
    registerAblationExperiments(r);
    registerMicroExperiments(r);
    registerOpenLoopExperiments(r);
    registerRoutingExperiments(r);
    registerElasticExperiments(r);
}

} // namespace sf::exp

/**
 * @file
 * Core types of the experiment engine: effort levels, deterministic
 * per-run seeding, run specifications, and experiment specs.
 *
 * Every paper figure / table / ablation is a named ExperimentSpec
 * that expands, at a given effort level, into a flat list of
 * independent RunSpecs (one grid cell each: topology kind × traffic
 * pattern × network size × injection rate × ...). Runs share no
 * mutable state, so the scheduler may execute them on any thread in
 * any order; seeds derive from stable names, never from execution
 * order, which makes reports reproducible bit-for-bit at any job
 * count.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/routing_policy.hpp"
#include "exp/json.hpp"
#include "sim/sim_config.hpp"

namespace sf::sim {
class Executor;
}

namespace sf::exp {

/** Effort level of a whole invocation (old --quick/--full flags). */
enum class Effort { Quick, Default, Full };

/** "quick" / "default" / "full". */
std::string_view effortName(Effort effort);

/** Parse an effort name; throws std::invalid_argument otherwise. */
Effort parseEffort(std::string_view name);

/**
 * Base seed every experiment derives from by default; kept at the
 * seed the standalone harnesses always used so ported numbers stay
 * comparable.
 */
inline constexpr std::uint64_t kBaseSeed = 2019;

/**
 * Deterministic per-run seed: a 64-bit FNV-1a hash of
 * "<experiment>/<run id>" finalised with splitmix64 and mixed with
 * @p base. Depends only on stable names, never on scheduling.
 */
std::uint64_t deriveSeed(std::string_view experiment,
                         std::string_view run_id,
                         std::uint64_t base);

/** Everything a run body may depend on. */
struct RunContext {
    /** Per-run derived seed — use for traffic / sampling RNGs. */
    std::uint64_t seed = 0;
    /**
     * Invocation base seed — use for topology construction so
     * every run in a sweep evaluates the same generated network
     * (as the standalone harnesses did with their common seed).
     */
    std::uint64_t baseSeed = kBaseSeed;
    Effort effort = Effort::Default;
    /**
     * The scheduler's work pool, for nested parallelism inside a
     * run (e.g. concurrent saturation probes). Never null while a
     * body runs; idle-capacity aware, so nested fan-out only uses
     * workers that would otherwise sit out the sweep tail. Bodies
     * must not let determinism depend on it: anything submitted
     * must be a pure function of the run's own inputs.
     */
    sim::Executor *executor = nullptr;
    /**
     * Route-plane shards for cycle simulations (`sfx --shards`,
     * sim::SimConfig::shards): carried by simConfig(); bodies pass
     * `executor` through, which parallelises *inside* one
     * simulation. Like the executor, it must never affect results
     * — the sharded engine is byte-identical at every shard count
     * — so it is an execution knob, not part of the run grid or
     * the spec hash.
     */
    int shards = 1;
    /**
     * Memoized route plane (`sfx --route-cache`,
     * sim::SimConfig::routeCache): carried by simConfig(). Results
     * are byte-identical on or off — a cached route is the same
     * pure function's output — so, like shards, it is an execution
     * knob kept only for A/B benchmarking, never part of the run
     * grid or the spec hash.
     */
    bool routeCache = true;
    /**
     * Commit-wavefront width (`sfx --wavefront`,
     * sim::SimConfig::wavefront): carried by simConfig(); bodies
     * pass `executor` through. The wavefront scheduler only changes
     * which thread runs a node's decide stage — commits replay in
     * exact serial σ-order — so results are byte-identical at
     * every width, and like shards/routeCache it is an execution
     * knob, never part of the run grid or the spec hash.
     */
    int wavefront = 0;
    /**
     * Routing policy (`sfx --policy`, sim::SimConfig::policy):
     * carried by simConfig() — UNLESS the policy is part of a
     * run's own grid (the routing_bakeoff family), in which case
     * the cell wins. Unlike shards/routeCache this is NOT an
     * execution knob: non-greedy policies change simulated events,
     * so the driver records it in checkpoint metadata and reports,
     * and refuses to override it on resume.
     */
    core::RoutingPolicyKind policy =
        core::RoutingPolicyKind::Greedy;

    /**
     * The SimConfig every flit-simulator body starts from: the
     * per-run traffic seed plus the knobs above (shards,
     * routeCache, wavefront, policy), plumbed here once. Bodies set
     * their own grid parameters on top; a body whose grid owns the
     * policy (routing_bakeoff) overrides it.
     */
    sim::SimConfig
    simConfig() const
    {
        sim::SimConfig cfg;
        cfg.seed = seed;
        cfg.shards = shards;
        cfg.routeCache = routeCache;
        cfg.wavefront = wavefront;
        cfg.policy = policy;
        return cfg;
    }
};

/** One independent unit of work inside an experiment. */
struct RunSpec {
    /** Stable id, unique within the experiment ("n=64/SF/r=0.02"). */
    std::string id;
    /** The grid cell as a JSON object (named parameter values). */
    Json params = Json::object();
    /** Body: produces an ordered metrics object. Must be pure given
     *  the context (no shared mutable state). */
    std::function<Json(const RunContext &)> body;
};

/** Context handed to an experiment's planner. */
struct PlanContext {
    Effort effort = Effort::Default;
    std::uint64_t baseSeed = kBaseSeed;
    /**
     * Reconfig-schedule severity filter (`sfx --reconfig-schedule`):
     * empty plans every severity the elastic_serving family's
     * effort grid includes; a severity name restricts the grid to
     * it. Like the routing policy this is NOT an execution knob —
     * it changes which runs exist — so the driver records it in
     * checkpoint metadata and refuses to override it on resume.
     */
    std::string reconfigSchedule;
};

/** A named experiment: a planner producing a run grid. */
struct ExperimentSpec {
    /** Registry name ("fig10_saturation"); also the glob target. */
    std::string name;
    /** Paper artefact label ("Fig 10"). */
    std::string artefact;
    /** One-line description shown by `sfx list`. */
    std::string title;
    /**
     * False when metrics are wall-clock timings (microbenchmarks):
     * such reports cannot be byte-identical across machines or job
     * counts and are excluded from determinism checks.
     */
    bool deterministic = true;
    /** Expand the parameter grid at the given effort. */
    std::function<std::vector<RunSpec>(const PlanContext &)> plan;
};

} // namespace sf::exp

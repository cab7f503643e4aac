/**
 * @file
 * The benchmark's workloads: each one is the planned grid of a
 * registered experiment family (at one effort, optionally filtered
 * by run id), run through exp::runExperiment with the workload seed
 * as the base seed — the code path `sfx run` uses — so the traffic
 * is exactly the grid users run.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exp/json.hpp"
#include "exp/scheduler.hpp"
#include "exp/spec.hpp"

namespace sfbench {

class Tracer;

/** A named workload: one registered family's grid. */
struct Workload {
    std::string name;
    /** Registry name of the experiment family. */
    std::string family;
    sf::exp::Effort effort = sf::exp::Effort::Default;
    /** Run-id glob (`sfx run --runs`); empty keeps every cell. */
    std::string runFilter;
    /** Cells build private String Figures (never the topology
     *  cache), because they gate nodes in place. */
    bool privateTopologies = false;
};

/** Every workload, in reporting order. */
const std::vector<Workload> &allWorkloads();

/** Lookup by name; throws std::invalid_argument when unknown. */
const Workload &findWorkload(std::string_view name);

/** The workload's registered family; throws when unregistered. */
const sf::exp::ExperimentSpec &familySpec(const Workload &w);

/** The grid exactly as `sfx run <family> --effort E --runs F
 *  --seed S` plans it. */
std::vector<sf::exp::RunSpec> planCells(const Workload &w,
                                        std::uint64_t seed);

/** Planning plus a cold build of every distinct topology. */
struct Setup {
    std::vector<sf::exp::RunSpec> cells;
    double seconds = 0.0;
};

/**
 * Plan the grid and build every distinct topology cold: the shared
 * topology cache is cleared first and left holding the builds (the
 * sweep then routes over them), while private-topology workloads
 * build one String Figure per scale and discard it.
 */
Setup setUp(const Workload &w, std::uint64_t seed);

/** One sweep of the grid, timed from the outside. */
struct Sweep {
    std::vector<sf::exp::RunResult> runs;
    /** First cell scheduled to report serialised (Json::dump). */
    double wallS = 0.0;
    /** Process user + system CPU over the same interval. */
    double cpuS = 0.0;
    /** The serialised report, as `sfx run --out` writes it. */
    std::string report;
};

/** Execution wrapping of one sweep (the traced run's hooks). */
struct SweepHooks {
    /** Record one "cell" span per run body. */
    Tracer *tracer = nullptr;
    /** Wrap RunContext::executor to count saturation probes. */
    std::atomic<std::uint64_t> *probeTasks = nullptr;
    /** Make the wrapped executor report no idle parallelism, so
     *  every saturation search runs its serial probe sequence. */
    bool serialProbes = false;
};

/** Run the grid once with the default execution knobs. */
Sweep runSweep(const Workload &w,
               const std::vector<sf::exp::RunSpec> &cells,
               std::uint64_t seed, const SweepHooks &hooks = {});

/** Deterministic outputs of every cell: {run id: metrics}. */
sf::exp::Json cellOutputs(const std::vector<sf::exp::RunResult> &runs);

/**
 * Why each cell is wrong, or "" when it is right: its body threw
 * (a tripped watchdog throws too), an output violates an invariant
 * of its family, or — with @p reference non-null — its outputs
 * differ from the reference.
 */
std::vector<std::string>
checkCells(const Workload &w,
           const std::vector<sf::exp::RunResult> &runs,
           const sf::exp::Json *reference);

/** Process user + system CPU seconds so far. */
double processCpuSeconds();

/** Peak resident set of this process so far, in KiB. */
std::uint64_t peakRssKb();

/** Seconds on the steady clock since an arbitrary origin. */
double nowSeconds();

} // namespace sfbench

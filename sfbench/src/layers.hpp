/**
 * @file
 * Per-layer measurements of the traced run: direct, timed calls
 * into the public functions of core, topos and sim on the
 * workload's own topologies, plus the exp-layer figures read off
 * the traced sweep's spans. Every call is made from the benchmark's
 * side of the module boundary; the program is not instrumented.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload.hpp"

namespace sfbench {

/** One named per-layer figure. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

using Metrics = std::vector<Metric>;

/** Sample count, median, 90th percentile and maximum of @p xs. */
struct Distribution {
    std::size_t samples = 0;
    double p50 = 0.0;
    double p90 = 0.0;
    double max = 0.0;
};

/** Nearest-rank percentiles; all zero when @p xs is empty. */
Distribution distribution(std::vector<double> xs);

/** Inputs of the direct per-layer calls. */
struct LayerInputs {
    const Workload *workload = nullptr;
    std::uint64_t seed = 0;
    const std::vector<sf::exp::RunSpec> *cells = nullptr;
    /** The untraced sweep's results (the replayed cells' outputs). */
    const std::vector<sf::exp::RunResult> *runs = nullptr;
};

/**
 * topos.build_ms.<design>, core.* and sim.cycle_ns.* / flit-hop
 * figures, appended to @p out. Appends one entry per check made to
 * @p checks: "" when it held, else why not. Checked: each replayed
 * cell reproduces the sweep's outputs, each gate/ungate applies,
 * and the topology stays consistent.
 */
void measureDirectLayers(const LayerInputs &in, Tracer &tracer,
                         Metrics &out, std::vector<std::string> &checks);

} // namespace sfbench

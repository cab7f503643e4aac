/**
 * @file
 * Registration entry points of the built-in experiments (one
 * function per translation unit under experiments/). Explicit
 * registration keeps static-library linking reliable — no
 * self-registering globals for the linker to drop.
 */

#pragma once

namespace sf::exp {

class Registry;

/** fig05, fig09a, table2_features, bisection_bandwidth. */
void registerStructureExperiments(Registry &r);
/** fig10_saturation, fig11_latency_curves. */
void registerTrafficExperiments(Registry &r);
/** fig12_workloads, fig09b_power_gating_edp. */
void registerWorkloadExperiments(Registry &r);
/** The ablation_* family. */
void registerAblationExperiments(Registry &r);
/** micro_routing + micro_simulator (wall-clock timings;
 *  non-deterministic). */
void registerMicroExperiments(Registry &r);
/** hockey_stick (open-loop tail latency) + micro_openloop. */
void registerOpenLoopExperiments(Registry &r);
/** routing_bakeoff (policy x design x pattern matrix). */
void registerRoutingExperiments(Registry &r);
/** elastic_serving (live gate/ungate under open-loop load). */
void registerElasticExperiments(Registry &r);

/** Register every built-in experiment. */
void registerBuiltinExperiments(Registry &r);

} // namespace sf::exp

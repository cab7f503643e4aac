#include "workload.hpp"

#include <sys/resource.h>

#include <chrono>
#include <optional>
#include <stdexcept>

#include "core/string_figure.hpp"
#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "topos/factory.hpp"
#include "trace.hpp"

namespace sfbench {

using sf::exp::Json;
using sf::exp::RunResult;
using sf::exp::RunSpec;

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> workloads{
        {"saturation_sweep", "fig10_saturation",
         sf::exp::Effort::Default, "", false},
        {"ugal_sweep", "routing_bakeoff", sf::exp::Effort::Default,
         "*/ugal", false},
        {"elastic_churn", "elastic_serving", sf::exp::Effort::Full, "",
         true},
    };
    return workloads;
}

const Workload &
findWorkload(std::string_view name)
{
    for (const Workload &w : allWorkloads())
        if (w.name == name)
            return w;
    throw std::invalid_argument("unknown workload '" +
                                std::string(name) + "'");
}

const sf::exp::ExperimentSpec &
familySpec(const Workload &w)
{
    const sf::exp::ExperimentSpec *spec =
        sf::exp::registry().find(w.family);
    if (!spec)
        throw std::invalid_argument("family '" + w.family +
                                    "' is not registered");
    return *spec;
}

std::vector<RunSpec>
planCells(const Workload &w, std::uint64_t seed)
{
    sf::exp::PlanContext ctx;
    ctx.effort = w.effort;
    ctx.baseSeed = seed;
    auto cells = familySpec(w).plan(ctx);
    if (!w.runFilter.empty())
        std::erase_if(cells, [&](const RunSpec &cell) {
            return !sf::exp::globMatch(w.runFilter, cell.id);
        });
    return cells;
}

namespace {

/** A distinct topology the cells route over. */
struct TopologyUse {
    sf::topos::TopoKind kind = sf::topos::TopoKind::SF;
    std::size_t nodes = 0;
};

/** Distinct (design, nodes) pairs of the planned cells. */
std::vector<TopologyUse>
distinctTopologies(const std::vector<RunSpec> &cells)
{
    std::vector<TopologyUse> uses;
    for (const RunSpec &cell : cells) {
        const std::string design = cell.params.at("design").asString();
        TopologyUse use;
        use.nodes = cell.params.at("nodes").asUint();
        bool known = false;
        for (const auto kind : sf::topos::kAllKinds) {
            if (sf::topos::kindName(kind) == design) {
                use.kind = kind;
                known = true;
            }
        }
        if (!known)
            throw std::invalid_argument("unknown design " + design);
        bool seen = false;
        for (const TopologyUse &u : uses)
            seen = seen || (u.kind == use.kind && u.nodes == use.nodes);
        if (!seen)
            uses.push_back(use);
    }
    return uses;
}

} // namespace

Setup
setUp(const Workload &w, std::uint64_t seed)
{
    const double start = nowSeconds();
    Setup setup;
    setup.cells = planCells(w, seed);
    const auto uses = distinctTopologies(setup.cells);
    if (w.privateTopologies) {
        // The cells construct exactly this String Figure themselves.
        for (const TopologyUse &use : uses) {
            if (use.kind != sf::topos::TopoKind::SF)
                throw std::logic_error(
                    "private topologies must be String Figures");
            sf::core::SFParams params;
            params.numNodes = use.nodes;
            params.routerPorts =
                sf::topos::randomTopologyPorts(use.nodes);
            params.seed = seed;
            const sf::core::StringFigure topo(params);
        }
    } else {
        sf::topos::topologyCache().clear();
        for (const TopologyUse &use : uses)
            sf::topos::cachedTopology(use.kind, use.nodes, seed);
    }
    setup.seconds = nowSeconds() - start;
    return setup;
}

Sweep
runSweep(const Workload &w, const std::vector<RunSpec> &cells,
         std::uint64_t seed, const SweepHooks &hooks)
{
    const sf::exp::ExperimentSpec &spec = familySpec(w);
    std::vector<RunSpec> runs = cells;
    if (hooks.tracer || hooks.probeTasks) {
        // Cells run on pool workers: name the sweep's span as their
        // parent explicitly.
        const std::uint64_t parent = ScopedSpan::current();
        for (RunSpec &run : runs) {
            run.body = [body = std::move(run.body), id = run.id, hooks,
                        parent](const sf::exp::RunContext &rc) {
                std::optional<ScopedSpan> span;
                if (hooks.tracer)
                    span.emplace(*hooks.tracer, id, "cell", parent);
                sf::exp::RunContext ctx = rc;
                std::optional<CountingExecutor> executor;
                if (hooks.probeTasks) {
                    executor.emplace(*rc.executor, *hooks.probeTasks,
                                     hooks.tracer, hooks.serialProbes);
                    ctx.executor = &*executor;
                }
                return body(ctx);
            };
        }
    }

    sf::exp::SchedulerOptions opts;
    opts.effort = w.effort;
    opts.baseSeed = seed;

    Sweep sweep;
    const double cpu0 = processCpuSeconds();
    const double t0 = nowSeconds();
    sf::exp::ExperimentResults results;
    results.spec = &spec;
    results.runs = sf::exp::runExperiment(spec, runs, opts);
    results.wallMs = (nowSeconds() - t0) * 1e3;
    sf::exp::ReportOptions ropts;
    ropts.effort = w.effort;
    ropts.baseSeed = seed;
    ropts.jobs = sf::exp::poolJobs(opts, runs.size());
    sweep.report = sf::exp::buildReport({results}, ropts).dump(2) + "\n";
    sweep.wallS = nowSeconds() - t0;
    sweep.cpuS = processCpuSeconds() - cpu0;
    sweep.runs = std::move(results.runs);
    return sweep;
}

Json
cellOutputs(const std::vector<RunResult> &runs)
{
    Json cells = Json::object();
    for (const RunResult &r : runs) {
        if (r.failed) {
            Json failed = Json::object();
            failed.set("failed", r.error);
            cells.set(r.id, std::move(failed));
        } else {
            cells.set(r.id, r.metrics);
        }
    }
    return cells;
}

namespace {

double
num(const Json &metrics, const char *key)
{
    return metrics.at(key).asDouble();
}

/** "" when @p m satisfies its family's invariants. */
std::string
invariantViolation(const Workload &w, const Json &m)
{
    const auto ordered = [&](std::initializer_list<const char *> keys) {
        const char *prev = nullptr;
        for (const char *key : keys) {
            if (prev && num(m, prev) > num(m, key))
                return false;
            prev = key;
        }
        return true;
    };
    if (w.family == "fig10_saturation" ||
        w.family == "routing_bakeoff") {
        const double sat = num(m, "saturation_rate");
        if (!(sat > 0.0 && sat <= 1.0))
            return "saturation_rate outside (0, 1]";
        if (num(m, "saturation_pct") != 100.0 * sat)
            return "saturation_pct != 100 x saturation_rate";
    }
    if (w.family == "routing_bakeoff") {
        if (num(m, "probe_rate") != 0.9 * num(m, "saturation_rate"))
            return "probe_rate != 0.9 x saturation_rate";
        if (!ordered({"p50", "p99", "p999"}))
            return "latency percentiles out of order";
        if (!(num(m, "avg_hops") > 0.0 && num(m, "accepted_load") > 0.0))
            return "no traffic delivered at the probe rate";
    }
    if (w.family == "elastic_serving") {
        if (!ordered({"p50", "p95", "p99", "p999", "max"}))
            return "latency percentiles out of order";
    }
    return "";
}

} // namespace

std::vector<std::string>
checkCells(const Workload &w, const std::vector<RunResult> &runs,
           const Json *reference)
{
    std::vector<std::string> why(runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunResult &r = runs[i];
        if (r.failed) {
            why[i] = "threw: " + r.error;
            continue;
        }
        try {
            why[i] = invariantViolation(w, r.metrics);
        } catch (const std::exception &e) {
            why[i] = std::string("malformed outputs: ") + e.what();
        }
        if (!why[i].empty() || !reference)
            continue;
        const Json *expected = reference->find(r.id);
        if (!expected)
            why[i] = "cell missing from the reference";
        else if (expected->dump() != r.metrics.dump())
            why[i] = "outputs differ from the reference";
    }
    return why;
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(usage.ru_utime) + sec(usage.ru_stime);
}

std::uint64_t
peakRssKb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<std::uint64_t>(usage.ru_maxrss);
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace sfbench

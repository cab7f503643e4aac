#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <stdexcept>

#include "core/route_cache.hpp"
#include "core/routing_policy.hpp"
#include "core/string_figure.hpp"
#include "net/rng.hpp"
#include "sim/reconfig_schedule.hpp"
#include "sim/simulator.hpp"
#include "topos/factory.hpp"
#include "trace.hpp"

namespace sfbench {

using sf::exp::Json;
using sf::exp::RunResult;
using sf::exp::RunSpec;

Distribution
distribution(std::vector<double> xs)
{
    Distribution d;
    d.samples = xs.size();
    if (xs.empty())
        return d;
    std::sort(xs.begin(), xs.end());
    const auto rank = [&](double q) {
        const auto i = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(xs.size())));
        return xs[std::clamp<std::size_t>(i, 1, xs.size()) - 1];
    };
    d.p50 = rank(0.5);
    d.p90 = rank(0.9);
    d.max = xs.back();
    return d;
}

namespace {

/** Timed passes per direct-call figure (median reported). */
constexpr int kReps = 15;
/** Distinct (source, destination) pairs per routing figure. */
constexpr std::size_t kPairs = 4096;
/** Gate/ungate pairs timed per run. */
constexpr std::size_t kVictims = 32;
/** Scale of the reconfiguration figures. */
constexpr std::size_t kReconfigNodes = 1024;

/** Defeats dead-code elimination of timed calls. */
volatile std::uint64_t g_sink = 0;

double
median(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/** Median over kReps passes of (pass time / @p calls), in ns. */
template <typename Pass>
double
nsPerCall(std::size_t calls, Pass &&pass)
{
    std::vector<double> per;
    for (int r = 0; r < kReps; ++r) {
        const double t0 = nowSeconds();
        pass();
        per.push_back((nowSeconds() - t0) * 1e9 /
                      static_cast<double>(calls));
    }
    return median(per);
}

std::vector<std::pair<sf::NodeId, sf::NodeId>>
seededPairs(std::size_t n, std::uint64_t seed)
{
    sf::Rng rng(seed ^ 0x9a11'5e7dULL);
    std::set<std::pair<sf::NodeId, sf::NodeId>> seen;
    std::vector<std::pair<sf::NodeId, sf::NodeId>> pairs;
    while (pairs.size() < std::min(kPairs, n * (n - 1))) {
        const auto u = static_cast<sf::NodeId>(rng.below(n));
        const auto t = static_cast<sf::NodeId>(rng.below(n));
        if (u != t && seen.insert({u, t}).second)
            pairs.emplace_back(u, t);
    }
    return pairs;
}

sf::core::SFParams
sfParams(std::size_t n, std::uint64_t seed)
{
    sf::core::SFParams params;
    params.numNodes = n;
    params.routerPorts = sf::topos::randomTopologyPorts(n);
    params.seed = seed;
    return params;
}

std::size_t
largestNodes(const std::vector<RunSpec> &cells)
{
    std::size_t n = 0;
    for (const RunSpec &cell : cells)
        n = std::max<std::size_t>(n, cell.params.at("nodes").asUint());
    return n;
}

sf::topos::TopoKind
kindNamed(const std::string &name)
{
    for (const auto kind : sf::topos::kAllKinds)
        if (sf::topos::kindName(kind) == name)
            return kind;
    throw std::invalid_argument("unknown design " + name);
}

sf::sim::TrafficPattern
patternNamed(const std::string &name)
{
    for (const auto pattern : sf::sim::kAllPatterns)
        if (sf::sim::patternName(pattern) == name)
            return pattern;
    throw std::invalid_argument("unknown pattern " + name);
}

/** The workload's String Figure at @p n: the shared cached build,
 *  or a private one for workloads that never use the cache. */
std::shared_ptr<const sf::core::StringFigure>
workloadStringFigure(const LayerInputs &in, std::size_t n)
{
    if (in.workload->privateTopologies)
        return std::make_shared<const sf::core::StringFigure>(
            sfParams(n, in.seed));
    auto net = std::dynamic_pointer_cast<const sf::core::StringFigure>(
        sf::topos::cachedTopology(sf::topos::TopoKind::SF, n,
                                  in.seed));
    if (!net)
        throw std::logic_error("cached SF is not a StringFigure");
    return net;
}

void
measureTopos(const LayerInputs &in, std::size_t n, Tracer &tracer,
             Metrics &out)
{
    for (const auto kind : sf::topos::kAllKinds) {
        const std::string name = sf::topos::kindName(kind);
        const ScopedSpan span(tracer, "build " + name, "topos");
        if (!sf::topos::supported(kind, n))
            throw std::logic_error(name + " unsupported at the "
                                          "workload's largest scale");
        std::vector<double> ms;
        for (int r = 0; r < 3; ++r) {
            const double t0 = nowSeconds();
            const auto topo = sf::topos::makeTopology(kind, n, in.seed);
            ms.push_back((nowSeconds() - t0) * 1e3);
            g_sink = g_sink + topo->graph().numLinks();
        }
        out.push_back({"topos.build_ms." + name, median(ms), "ms"});
    }
}

void
measureRouting(const LayerInputs &in, std::size_t n, Tracer &tracer,
               Metrics &out)
{
    const auto net = workloadStringFigure(in, n);
    const auto pairs = seededPairs(n, in.seed);
    sf::LinkId links[sf::net::kMaxRouteCandidates];

    {
        const ScopedSpan span(tracer, "greedy", "core");
        const sf::core::GreedyRouter &router = net->router();
        out.push_back(
            {"core.greedy.candidates_ns", nsPerCall(pairs.size(), [&] {
                 std::uint64_t sink = 0;
                 for (const auto &[u, t] : pairs)
                     sink += router.candidates(u, t, false, links);
                 g_sink = g_sink + sink;
             }),
             "ns"});
        out.push_back(
            {"core.greedy.distance_ns", nsPerCall(pairs.size(), [&] {
                 double sink = 0.0;
                 for (const auto &[u, t] : pairs)
                     sink += router.distance(u, t);
                 g_sink = g_sink + static_cast<std::uint64_t>(sink);
             }),
             "ns"});
    }

    {
        const ScopedSpan span(tracer, "route_cache", "core");
        std::vector<double> fill, hit;
        std::size_t rows = 0;
        for (int r = 0; r < kReps; ++r) {
            sf::core::RouteCache cache(*net);
            for (std::vector<double> *pass : {&fill, &hit}) {
                std::uint64_t sink = 0;
                const double t0 = nowSeconds();
                for (const auto &[u, t] : pairs)
                    sink += cache.candidates(u, t, false, links);
                pass->push_back((nowSeconds() - t0) * 1e9 /
                                static_cast<double>(pairs.size()));
                g_sink = g_sink + sink;
            }
            rows = cache.committedRows() + cache.firstHopRows();
        }
        out.push_back({"core.route_cache.fill_ns", median(fill), "ns"});
        out.push_back({"core.route_cache.hit_ns", median(hit), "ns"});
        out.push_back({"core.route_cache.rows",
                       static_cast<double>(rows), "count"});
    }

    {
        const ScopedSpan span(tracer, "ugal", "core");
        const auto policy = sf::core::makeRoutingPolicy(
            sf::core::RoutingPolicyKind::Ugal, *net);
        // A busy but unsaturated network: up to four packets queued
        // toward each link.
        sf::Rng rng(in.seed ^ 0x0c0f'fee5ULL);
        std::vector<std::uint32_t> queued(net->graph().numLinks());
        for (auto &q : queued)
            q = static_cast<std::uint32_t>(rng.below(21));
        const sf::core::CongestionSnapshot snapshot(queued);
        out.push_back(
            {"core.ugal.route_ns", nsPerCall(pairs.size(), [&] {
                 std::uint64_t sink = 0;
                 for (const auto &[u, t] : pairs)
                     sink += policy->route(u, t, true, snapshot, links);
                 g_sink = g_sink + sink;
             }),
             "ns"});
    }
}

void
measureReconfig(const LayerInputs &in, Tracer &tracer, Metrics &out,
                std::vector<std::string> &checks)
{
    const ScopedSpan span(tracer, "gate/ungate", "core");
    sf::core::StringFigure net(sfParams(kReconfigNodes, in.seed));
    sf::Rng rng(in.seed ^ 0x9a7e'0001ULL);
    std::vector<double> gate_us, ungate_us;
    std::set<sf::NodeId> tried;
    while (gate_us.size() < kVictims && tried.size() < kReconfigNodes) {
        const auto v = static_cast<sf::NodeId>(rng.below(kReconfigNodes));
        if (!tried.insert(v).second || !net.reconfig().canGate(v))
            continue;
        double t0 = nowSeconds();
        const auto gated = net.gate(v);
        gate_us.push_back((nowSeconds() - t0) * 1e6);
        t0 = nowSeconds();
        const auto ungated = net.ungate(v);
        ungate_us.push_back((nowSeconds() - t0) * 1e6);
        checks.push_back(gated.applied && ungated.applied
                             ? ""
                             : "reconfig: gate/ungate of node " +
                                   std::to_string(v) + " not applied");
    }
    const std::string broken = net.reconfig().checkInvariants();
    checks.push_back(
        broken.empty() && net.reconfig().numAlive() == kReconfigNodes
            ? ""
            : "reconfig: inconsistent after gate/ungate: " + broken);
    if (gate_us.empty())
        throw std::runtime_error("no gateable node found");
    out.push_back({"core.reconfig.gate_us", median(gate_us), "us"});
    out.push_back({"core.reconfig.ungate_us", median(ungate_us), "us"});
    out.push_back({"core.reconfig.samples",
                   static_cast<double>(gate_us.size()), "count"});
}

/** First key of @p got whose value differs from @p m's; "" if none. */
std::string
replayMismatch(const Json &m, const Json &got)
{
    for (const Json::Member &kv : got.asObject()) {
        const Json *want = m.find(kv.first);
        if (!want || want->dump() != kv.second.dump())
            return kv.first;
    }
    return "";
}

/**
 * Re-run one cell's simulation directly with per-phase profiling
 * on, and check it against the sweep's published outputs.
 */
sf::sim::RunResult
replayCell(const LayerInputs &in, const RunSpec &cell,
           const RunResult &run, double &wall_ns, std::string &failure)
{
    const Json &p = cell.params;
    const Json &m = run.metrics;
    const auto pattern = patternNamed(p.at("pattern").asString());
    const std::size_t n = p.at("nodes").asUint();
    const std::string &family = in.workload->family;

    sf::sim::SimConfig cfg;
    cfg.seed = run.seed;
    cfg.profilePhases = true;
    const auto phases = sf::sim::RunPhases::saturationProbe();

    sf::sim::RunResult r;
    Json got = Json::object();
    const double t0 = nowSeconds();
    if (family == "elastic_serving") {
        const auto params = sfParams(n, in.seed);
        sf::core::StringFigure topo(params);
        const auto open =
            in.workload->effort == sf::exp::Effort::Quick
                ? sf::sim::RunPhases::openLoopQuick()
                : sf::sim::RunPhases::openLoop();
        const auto schedule = sf::sim::planReconfigSchedule(
            p.at("schedule").asString(), params, open.warmup,
            open.measure, run.seed);
        r = sf::sim::runElastic(topo, pattern, sf::sim::ArrivalConfig{},
                                p.at("rate").asDouble(), schedule, cfg,
                                open);
        wall_ns = (nowSeconds() - t0) * 1e9;
        got.set("p50", static_cast<std::int64_t>(r.tailTotal.p50));
        got.set("p95", static_cast<std::int64_t>(r.tailTotal.p95));
        got.set("p99", static_cast<std::int64_t>(r.tailTotal.p99));
        got.set("p999", static_cast<std::int64_t>(r.tailTotal.p999));
        got.set("max", static_cast<std::int64_t>(r.tailTotal.max));
        got.set("measured_packets", r.measuredPackets);
        got.set("epochs", r.topologyEpochs);
        got.set("drops", r.droppedUnroutable);
        got.set("escalations", r.escapeTransfers);
    } else {
        const auto topo = sf::topos::cachedTopology(
            kindNamed(p.at("design").asString()), n, in.seed);
        if (family == "routing_bakeoff") {
            sf::core::RoutingPolicyKind policy{};
            if (!sf::core::parseRoutingPolicy(
                    p.at("policy").asString(), policy))
                throw std::invalid_argument("unknown policy");
            cfg.policy = policy;
            r = sf::sim::runSynthetic(*topo, pattern,
                                      m.at("probe_rate").asDouble(),
                                      cfg, phases);
            wall_ns = (nowSeconds() - t0) * 1e9;
            got.set("avg_latency", r.avgTotalLatency);
            got.set("p50", static_cast<std::int64_t>(r.tailTotal.p50));
            got.set("p99", static_cast<std::int64_t>(r.tailTotal.p99));
            got.set("p999", static_cast<std::int64_t>(r.tailTotal.p999));
            got.set("avg_hops", r.avgHops);
            got.set("accepted_load", r.acceptedLoad);
        } else {
            // Fig 10: the found rate must be one the search accepted
            // (not saturated, latency within 3x zero-load).
            const double rate = m.at("saturation_rate").asDouble();
            r = sf::sim::runSynthetic(*topo, pattern, rate, cfg, phases);
            wall_ns = (nowSeconds() - t0) * 1e9;
            sf::sim::SimConfig plain = cfg;
            plain.profilePhases = false;
            const double cap = std::max(
                3.0 * sf::sim::zeroLoadLatency(*topo, plain, pattern),
                120.0);
            if (rate > 1e-4 && (r.saturated || r.avgTotalLatency > cap))
                failure = cell.id + ": saturated at its own saturation "
                                    "rate on replay";
        }
    }
    const std::string key = replayMismatch(m, got);
    if (!key.empty())
        failure = cell.id + ": replay disagrees on " + key;
    return r;
}

void
measureSim(const LayerInputs &in, Tracer &tracer, Metrics &out,
           std::vector<std::string> &checks)
{
    // The same cells at every seed, so the figures compare across
    // seeds: uniform traffic on String Figure at the largest scale,
    // the first and the last such cell in plan order.
    const auto &cells = *in.cells;
    const std::size_t n = largestNodes(cells);
    std::vector<std::size_t> picked;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Json &p = cells[i].params;
        if (p.at("nodes").asUint() == n &&
            p.at("design").asString() == "SF" &&
            p.at("pattern").asString() == "uniform")
            picked.push_back(i);
    }
    if (picked.size() > 2)
        picked.erase(picked.begin() + 1, picked.end() - 1);

    std::uint64_t cycles = 0, land = 0, snapshot = 0, route = 0,
                  decide = 0, commit = 0, hops = 0, simulated = 0;
    double wall_ns = 0.0;
    for (const std::size_t i : picked) {
        const RunResult &run = (*in.runs)[i];
        if (run.failed)
            continue;
        const ScopedSpan span(tracer, "replay " + cells[i].id, "sim");
        double ns = 0.0;
        std::string failure;
        const auto r = replayCell(in, cells[i], run, ns, failure);
        checks.push_back(failure);
        wall_ns += ns;
        cycles += r.phaseProfiledCycles;
        land += r.phaseLandNs;
        snapshot += r.phaseSnapshotNs;
        route += r.phaseRouteNs;
        decide += r.phaseDecideNs;
        commit += r.phaseCommitNs;
        hops += r.flitHops;
        simulated += r.simulatedCycles;
    }
    const auto per = [](std::uint64_t num, std::uint64_t den) {
        return den ? static_cast<double>(num) / static_cast<double>(den)
                   : 0.0;
    };
    out.push_back({"sim.cycle_ns.land", per(land, cycles), "ns"});
    out.push_back({"sim.cycle_ns.snapshot", per(snapshot, cycles), "ns"});
    out.push_back({"sim.cycle_ns.route", per(route, cycles), "ns"});
    out.push_back({"sim.cycle_ns.decide", per(decide, cycles), "ns"});
    out.push_back({"sim.cycle_ns.commit", per(commit, cycles), "ns"});
    out.push_back({"sim.ns_per_flit_hop",
                   hops ? wall_ns / static_cast<double>(hops) : 0.0,
                   "ns"});
    out.push_back({"sim.flit_hops", static_cast<double>(hops), "count"});
    out.push_back({"sim.cycles", static_cast<double>(simulated),
                   "count"});
    out.push_back({"sim.replayed_cells",
                   static_cast<double>(picked.size()), "count"});
}

} // namespace

void
measureDirectLayers(const LayerInputs &in, Tracer &tracer, Metrics &out,
                    std::vector<std::string> &checks)
{
    const std::size_t n = largestNodes(*in.cells);
    measureTopos(in, n, tracer, out);
    measureRouting(in, n, tracer, out);
    measureReconfig(in, tracer, out, checks);
    measureSim(in, tracer, out, checks);
}

} // namespace sfbench

/**
 * @file
 * sfbench: the measuring process behind sfbench/run.py. One process
 * runs one workload; the last line of stdout is a JSON object.
 *
 *   sfbench setup   --workload W --seed S
 *       plan + cold topology builds only: {"setup_s"}
 *   sfbench run     --workload W --seed S [--reference F]
 *       set-up, then one untraced sweep: its wall/CPU time and the
 *       cell checks
 *   sfbench trace   --workload W --seed S [--reference F]
 *                   [--trace-out F]
 *       untraced sweep, traced sweep, serial-probe sweep, direct
 *       per-layer calls: every per-layer metric, plus a Chrome
 *       trace of all spans
 *   sfbench outputs --workload W --seed S --out F
 *       one sweep; write every cell's deterministic outputs (the
 *       reference format)
 *   sfbench plan    --workload W
 *       the planned cell ids, one per line
 *
 * The reference is consulted only when its seed equals --seed.
 */

#include <atomic>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>

#include "exp/report.hpp"
#include "layers.hpp"
#include "topos/factory.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace {

using sf::exp::Json;
using namespace sfbench;

struct Args {
    std::string mode;
    std::string workload;
    std::uint64_t seed = sf::exp::kBaseSeed;
    std::string reference;
    std::string traceOut;
    std::string out;
};

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        throw std::invalid_argument("missing mode");
    Args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload")
            a.workload = value;
        else if (flag == "--seed")
            a.seed = std::stoull(value);
        else if (flag == "--reference")
            a.reference = value;
        else if (flag == "--trace-out")
            a.traceOut = value;
        else if (flag == "--out")
            a.out = value;
        else
            throw std::invalid_argument("unknown flag " + flag);
    }
    return a;
}

/** The reference's cells when it was taken at @p seed, else null. */
std::optional<Json>
loadReference(const Args &a, const Workload &w)
{
    if (a.reference.empty())
        return std::nullopt;
    Json ref = Json::parse(sf::exp::readFile(a.reference));
    if (ref.at("workload").asString() != w.name)
        throw std::invalid_argument("reference is for another workload");
    if (ref.at("seed").asUint() != a.seed)
        return std::nullopt;
    return ref.at("cells");
}

/** Count failing cells; keep the first few reasons. */
std::size_t
tally(const std::vector<std::string> &why, const std::string &label,
      Json &reasons)
{
    std::size_t failed = 0;
    for (const std::string &reason : why) {
        if (reason.empty())
            continue;
        ++failed;
        if (reasons.asArray().size() < 8)
            reasons.push(label + ": " + reason);
    }
    return failed;
}

/** Cells whose outputs differ from @p base's. */
std::vector<std::string>
differences(const Sweep &base, const Sweep &other)
{
    std::vector<std::string> why(base.runs.size());
    for (std::size_t i = 0; i < base.runs.size(); ++i) {
        const auto &a = base.runs[i];
        const auto &b = other.runs[i];
        if (a.failed != b.failed || a.metrics.dump() != b.metrics.dump())
            why[i] = a.id + " differs between sweeps";
    }
    return why;
}

int
modeRun(const Args &a, const Workload &w)
{
    const auto reference = loadReference(a, w);
    const Setup setup = setUp(w, a.seed);
    const Sweep sweep = runSweep(w, setup.cells, a.seed);
    Json reasons = Json::array();
    const std::size_t failed =
        tally(checkCells(w, sweep.runs,
                         reference ? &*reference : nullptr),
              "check", reasons);
    Json out = Json::object();
    out.set("workload", w.name);
    out.set("seed", a.seed);
    out.set("setup_s", setup.seconds);
    out.set("wall_s", sweep.wallS);
    out.set("cpu_s", sweep.cpuS);
    out.set("peak_rss_kb", peakRssKb());
    out.set("attempted", static_cast<std::uint64_t>(sweep.runs.size()));
    out.set("failed", static_cast<std::uint64_t>(failed));
    out.set("reference_checked", reference.has_value());
    out.set("failures", std::move(reasons));
    std::printf("%s\n", out.dump().c_str());
    return 0;
}

/** exp: per-cell body wall, pool occupancy, report JSON cost. */
void
addExpMetrics(const Tracer &tracer, const Sweep &untraced,
              const Sweep &traced, std::size_t cells, Metrics &m)
{
    std::vector<double> body_s;
    double busy = 0.0;
    for (const Span &s : tracer.spansIn("cell")) {
        body_s.push_back(s.seconds());
        busy += s.seconds();
    }
    const Distribution cell = distribution(body_s);
    m.push_back({"exp.run_s.p50", cell.p50, "s"});
    m.push_back({"exp.run_s.p90", cell.p90, "s"});
    m.push_back({"exp.run_s.max", cell.max, "s"});
    m.push_back({"exp.run_s.samples", static_cast<double>(cell.samples),
                 "count"});
    const int threads = sf::exp::poolJobs({}, cells);
    m.push_back({"exp.busy_frac", busy / (threads * traced.wallS),
                 "ratio"});

    const Json report = Json::parse(untraced.report);
    std::vector<double> dump_ms, parse_ms;
    for (int r = 0; r < 5; ++r) {
        double t0 = nowSeconds();
        const std::string text = report.dump(2);
        dump_ms.push_back((nowSeconds() - t0) * 1e3);
        t0 = nowSeconds();
        const Json parsed = Json::parse(text);
        parse_ms.push_back((nowSeconds() - t0) * 1e3);
    }
    m.push_back({"exp.report_dump_ms", distribution(dump_ms).p50, "ms"});
    m.push_back({"exp.report_parse_ms", distribution(parse_ms).p50,
                 "ms"});
}

/** sim: saturation probes, speculative and needed. */
void
addProbeMetrics(const Tracer &tracer, std::uint64_t probes,
                std::uint64_t needed, Metrics &m)
{
    std::vector<double> probe_s;
    for (const Span &s : tracer.spansIn("probe"))
        probe_s.push_back(s.seconds());
    const Distribution probe = distribution(probe_s);
    m.push_back({"sim.probes", static_cast<double>(probes), "count"});
    m.push_back({"sim.probes_needed", static_cast<double>(needed),
                 "count"});
    m.push_back({"sim.probe_useful_frac",
                 probes ? static_cast<double>(needed) /
                              static_cast<double>(probes)
                        : 0.0,
                 "ratio"});
    m.push_back({"sim.probe_s.p50", probe.p50, "s"});
    m.push_back({"sim.probe_s.p90", probe.p90, "s"});
    m.push_back({"sim.probe_s.samples", static_cast<double>(probe.samples),
                 "count"});
}

int
modeTrace(const Args &a, const Workload &w)
{
    const auto reference = loadReference(a, w);
    auto &cache = sf::topos::topologyCache();
    const auto before_setup = cache.stats();
    const Setup setup = setUp(w, a.seed);
    const auto after_setup = cache.stats();

    // Untraced first, in the same position as in a measuring run.
    const Sweep untraced = runSweep(w, setup.cells, a.seed);

    Tracer tracer;
    std::atomic<std::uint64_t> probes{0}, probes_needed{0};
    const auto before_traced = cache.stats();
    Sweep traced;
    {
        const ScopedSpan span(tracer, "sweep " + w.name, "exp");
        traced = runSweep(w, setup.cells, a.seed,
                          {&tracer, &probes, false});
    }
    const auto after_traced = cache.stats();
    const Sweep serial = runSweep(w, setup.cells, a.seed,
                                  {nullptr, &probes_needed, true});

    Json reasons = Json::array();
    std::size_t failed =
        tally(checkCells(w, untraced.runs,
                         reference ? &*reference : nullptr),
              "check", reasons);
    failed += tally(differences(untraced, traced), "traced", reasons);
    failed += tally(differences(untraced, serial), "serial-probe",
                    reasons);

    Metrics m;
    addExpMetrics(tracer, untraced, traced, setup.cells.size(), m);
    addProbeMetrics(tracer, probes.load(), probes_needed.load(), m);
    // net: the shared topology cache over set-up and the traced sweep.
    m.push_back({"net.topo_cache.misses",
                 static_cast<double>(after_setup.misses -
                                     before_setup.misses),
                 "count"});
    m.push_back({"net.topo_cache.hits",
                 static_cast<double>(after_traced.hits -
                                     before_traced.hits),
                 "count"});

    std::vector<std::string> layer_checks;
    measureDirectLayers({&w, a.seed, &setup.cells, &untraced.runs},
                        tracer, m, layer_checks);
    failed += tally(layer_checks, "layer", reasons);

    m.push_back({"trace.overhead_wall_s", traced.wallS - untraced.wallS,
                 "s"});
    m.push_back({"trace.overhead_cpu_s", traced.cpuS - untraced.cpuS,
                 "s"});
    m.push_back({"trace.spans",
                 static_cast<double>(tracer.size()), "count"});
    if (!a.traceOut.empty())
        tracer.writeChromeTrace(a.traceOut);

    Json metrics = Json::object();
    for (const Metric &metric : m) {
        Json v = Json::object();
        v.set("value", metric.value);
        v.set("unit", metric.unit);
        metrics.set(metric.name, std::move(v));
    }
    Json out = Json::object();
    out.set("workload", w.name);
    out.set("seed", a.seed);
    out.set("untraced_wall_s", untraced.wallS);
    out.set("untraced_cpu_s", untraced.cpuS);
    out.set("attempted", static_cast<std::uint64_t>(
                             3 * setup.cells.size() + layer_checks.size()));
    out.set("failed", static_cast<std::uint64_t>(failed));
    out.set("reference_checked", reference.has_value());
    out.set("failures", std::move(reasons));
    out.set("metrics", std::move(metrics));
    std::printf("%s\n", out.dump().c_str());
    return 0;
}

int
modeOutputs(const Args &a, const Workload &w)
{
    if (a.out.empty())
        throw std::invalid_argument("outputs needs --out");
    const Setup setup = setUp(w, a.seed);
    const Sweep sweep = runSweep(w, setup.cells, a.seed);
    Json doc = Json::object();
    doc.set("workload", w.name);
    doc.set("family", w.family);
    doc.set("effort", std::string(sf::exp::effortName(w.effort)));
    doc.set("run_filter", w.runFilter);
    doc.set("seed", a.seed);
    doc.set("cells", cellOutputs(sweep.runs));
    sf::exp::writeFile(a.out, doc.dump(1) + "\n");
    std::size_t failed = 0;
    for (const auto &reason : checkCells(w, sweep.runs, nullptr))
        failed += !reason.empty();
    std::printf("{\"cells\": %zu, \"failed\": %zu}\n", sweep.runs.size(),
                failed);
    return failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args a = parseArgs(argc, argv);
        const Workload &w = findWorkload(a.workload);
        if (a.mode == "setup") {
            const Setup setup = setUp(w, a.seed);
            std::printf("{\"setup_s\": %.9f}\n", setup.seconds);
            return 0;
        }
        if (a.mode == "run")
            return modeRun(a, w);
        if (a.mode == "trace")
            return modeTrace(a, w);
        if (a.mode == "outputs")
            return modeOutputs(a, w);
        if (a.mode == "plan") {
            for (const auto &cell : planCells(w, a.seed))
                std::printf("%s\n", cell.id.c_str());
            return 0;
        }
        throw std::invalid_argument("unknown mode " + a.mode);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sfbench: %s\n", e.what());
        return 2;
    }
}

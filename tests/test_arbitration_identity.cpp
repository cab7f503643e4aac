/**
 * @file
 * Byte-identity pin of sleep/wake arbitration on the cells where it
 * is hardest. A separate binary from test_engine_identity so ctest
 * runs the two side by side.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/run_store.hpp"
#include "exp/scheduler.hpp"

#ifndef SF_SOURCE_DIR
#define SF_SOURCE_DIR "."
#endif

namespace {

using namespace sf::exp;

/**
 * The default-effort fig10_saturation cells where sleep/wake
 * arbitration is hardest: at hotspot n256 every design escalates
 * thousands of packets per cell to the escape VC and ejection
 * ports contend; tornado/n256/SF and uniform/n256/FB cover the
 * ring escape and the table-routed high-radix baseline near
 * saturation. tests/golden/fig10_n256_hard.json was generated by
 * the exhaustive-scan engine (every head attempted every cycle);
 * the event-driven engine must reproduce it byte for byte.
 */
std::string
fig10HardCellsReport(int jobs, int shards)
{
    static const char *const kCells[] = {
        "hotspot/n256/*", "tornado/n256/SF", "uniform/n256/FB"};
    const ExperimentSpec *spec = registry().find("fig10_saturation");
    EXPECT_NE(spec, nullptr);
    if (!spec)
        return {};
    PlanContext plan_ctx;
    plan_ctx.effort = Effort::Default;
    auto runs = spec->plan(plan_ctx);
    std::erase_if(runs, [](const RunSpec &run) {
        for (const char *cell : kCells) {
            if (globMatch(cell, run.id))
                return false;
        }
        return true;
    });
    EXPECT_EQ(runs.size(), 8u);
    SchedulerOptions sched;
    sched.jobs = jobs;
    sched.shards = shards;
    sched.effort = Effort::Default;
    ExperimentResults results;
    results.spec = spec;
    results.runs = runExperiment(*spec, runs, sched);
    for (const RunResult &r : results.runs)
        EXPECT_FALSE(r.failed) << r.id << ": " << r.error;
    std::vector<ExperimentResults> all;
    all.push_back(std::move(results));
    ReportOptions ropts;
    ropts.effort = Effort::Default;
    ropts.jobs = jobs;
    return buildReport(all, ropts).dump(2) + "\n";
}

/**
 * Sleep/wake arbitration skips heads and routers that provably
 * cannot move; skipping a failed, side-effect-free attempt must
 * change no simulated event. Pinned on the hardest default-effort
 * fig10 cells (escape escalation, ejection contention, drains at
 * saturation) across jobs x shards.
 */
TEST(ArbitrationIdentity, Fig10HardCellsMatchGoldenAcrossMatrix)
{
    const std::string golden = readFile(
        std::string(SF_SOURCE_DIR) + "/tests/golden/fig10_n256_hard.json");
    ASSERT_FALSE(golden.empty());
    for (const int jobs : {1, 4}) {
        for (const int shards : {1, 4}) {
            EXPECT_EQ(fig10HardCellsReport(jobs, shards), golden)
                << "fig10 n256 cells diverged at --jobs " << jobs
                << " --shards " << shards;
        }
    }
}

} // namespace

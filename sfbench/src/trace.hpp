/**
 * @file
 * In-memory span tracing for the traced benchmark run, recorded
 * entirely from the benchmark's side of each module boundary: the
 * program under test carries no instrumentation of its own.
 *
 * A span is (name, category, start, end, id, parent id, worker).
 * Spans are held in memory while the workload runs and written
 * once at exit as Chrome trace-event JSON, which Perfetto
 * (ui.perfetto.dev) and chrome://tracing open directly.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sim/executor.hpp"

namespace sfbench {

/** One closed span; times in microseconds since the tracer began. */
struct Span {
    std::string name;
    std::string category;
    double startUs = 0.0;
    double endUs = 0.0;
    std::uint64_t id = 0;
    /** Id of the span that caused this one; 0 for a root. */
    std::uint64_t parent = 0;
    /** Small per-thread index (Chrome "tid"). */
    int worker = 0;

    double seconds() const { return (endUs - startUs) * 1e-6; }
};

/** Thread-safe span store. */
class Tracer {
  public:
    Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Microseconds since construction (steady clock). */
    double nowUs() const;

    /** Fresh span id (never 0). */
    std::uint64_t nextId() { return nextId_.fetch_add(1) + 1; }

    /** Record a closed span. */
    void record(Span span);

    /** Number of spans recorded so far. */
    std::size_t size() const;

    /** Closed spans of @p category. */
    std::vector<Span> spansIn(const std::string &category) const;

    /** Small stable index of the calling thread. */
    int workerIndex();

    /** Write every span as Chrome trace-event JSON to @p path. */
    void writeChromeTrace(const std::string &path) const;

  private:
    const std::chrono::steady_clock::time_point origin_;
    std::atomic<std::uint64_t> nextId_{0};

    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::unordered_map<std::thread::id, int> workers_;
};

/**
 * RAII span. The innermost open span of a thread is the default
 * parent of the next span opened on it; a span handed to another
 * thread names its parent explicitly.
 */
class ScopedSpan {
  public:
    ScopedSpan(Tracer &tracer, std::string name, std::string category,
               std::uint64_t parent = kInheritParent);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return span_.id; }

    /** Id of the calling thread's innermost open span (0 if none). */
    static std::uint64_t current();

    static constexpr std::uint64_t kInheritParent = ~0ULL;

  private:
    Tracer &tracer_;
    Span span_;
    std::uint64_t previous_ = 0;
};

/**
 * sim::Executor wrapper that counts every task (one saturation
 * probe per task) and, given a tracer, records one "probe" span per
 * task parented to the span that submitted the batch.
 *
 * With @p serial set it reports availableParallelism() == 1, which
 * makes sim::findSaturationRate run the classic serial search: its
 * task count is then exactly the number of probes the search needs.
 */
class CountingExecutor final : public sf::sim::Executor {
  public:
    CountingExecutor(sf::sim::Executor &inner,
                     std::atomic<std::uint64_t> &tasks,
                     Tracer *tracer, bool serial)
        : inner_(inner), tasks_(tasks), tracer_(tracer),
          serial_(serial)
    {
    }

    int availableParallelism() const override;

    void runAll(std::vector<std::function<void()>> &tasks) override;

  private:
    sf::sim::Executor &inner_;
    std::atomic<std::uint64_t> &tasks_;
    Tracer *tracer_;
    bool serial_;
};

} // namespace sfbench

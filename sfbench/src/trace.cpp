#include "trace.hpp"

#include "exp/json.hpp"
#include "exp/report.hpp"

namespace sfbench {

namespace {

thread_local std::uint64_t t_currentSpan = 0;

} // namespace

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

void
Tracer::record(Span span)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::size_t
Tracer::size() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::vector<Span>
Tracer::spansIn(const std::string &category) const
{
    std::vector<Span> out;
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const Span &s : spans_)
        if (s.category == category)
            out.push_back(s);
    return out;
}

int
Tracer::workerIndex()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = workers_.try_emplace(
        std::this_thread::get_id(),
        static_cast<int>(workers_.size()));
    return it->second;
}

void
Tracer::writeChromeTrace(const std::string &path) const
{
    using sf::exp::Json;
    Json events = Json::array();
    int workers = 0;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        workers = static_cast<int>(workers_.size());
        for (const Span &s : spans_) {
            Json e = Json::object();
            e.set("name", s.name);
            e.set("cat", s.category);
            e.set("ph", "X");
            e.set("ts", s.startUs);
            e.set("dur", s.endUs - s.startUs);
            e.set("pid", 1);
            e.set("tid", s.worker);
            Json args = Json::object();
            args.set("id", s.id);
            args.set("parent", s.parent);
            e.set("args", std::move(args));
            events.push(std::move(e));
        }
    }
    for (int w = 0; w < workers; ++w) {
        Json meta = Json::object();
        meta.set("name", "thread_name");
        meta.set("ph", "M");
        meta.set("pid", 1);
        meta.set("tid", w);
        Json args = Json::object();
        args.set("name", "worker " + std::to_string(w));
        meta.set("args", std::move(args));
        events.push(std::move(meta));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    sf::exp::writeFile(path, doc.dump() + "\n");
}

ScopedSpan::ScopedSpan(Tracer &tracer, std::string name,
                       std::string category, std::uint64_t parent)
    : tracer_(tracer), previous_(t_currentSpan)
{
    span_.name = std::move(name);
    span_.category = std::move(category);
    span_.id = tracer.nextId();
    span_.parent = parent == kInheritParent ? t_currentSpan : parent;
    span_.worker = tracer.workerIndex();
    t_currentSpan = span_.id;
    span_.startUs = tracer.nowUs();
}

ScopedSpan::~ScopedSpan()
{
    span_.endUs = tracer_.nowUs();
    t_currentSpan = previous_;
    tracer_.record(std::move(span_));
}

std::uint64_t
ScopedSpan::current()
{
    return t_currentSpan;
}

int
CountingExecutor::availableParallelism() const
{
    return serial_ ? 1 : inner_.availableParallelism();
}

void
CountingExecutor::runAll(std::vector<std::function<void()>> &tasks)
{
    tasks_.fetch_add(tasks.size(), std::memory_order_relaxed);
    if (!tracer_) {
        inner_.runAll(tasks);
        return;
    }
    const std::uint64_t parent = ScopedSpan::current();
    std::vector<std::function<void()>> wrapped;
    wrapped.reserve(tasks.size());
    for (auto &task : tasks)
        wrapped.push_back([this, parent, &task] {
            const ScopedSpan span(*tracer_, "probe", "probe", parent);
            task();
        });
    inner_.runAll(wrapped);
}

} // namespace sfbench

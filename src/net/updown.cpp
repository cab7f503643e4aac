#include "net/updown.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "net/paths.hpp"

namespace sf::net {

namespace {

constexpr std::uint32_t kInf =
    std::numeric_limits<std::uint32_t>::max();

} // namespace

std::atomic<std::uint64_t> UpDownRouting::builds_{0};

UpDownRouting::UpDownRouting(const Graph &g,
                             const std::vector<bool> &alive)
    : graph_(&g), n_(g.numNodes()),
      // Value-initialised: every column starts unbuilt (null).
      columns_(std::make_unique<std::atomic<const std::uint8_t *>[]>(
          n_))
{
    builds_.fetch_add(1, std::memory_order_relaxed);
    alive_ = alive.empty() ? std::vector<bool>(n_, true) : alive;
    for (NodeId u = 0; u < n_; ++u) {
        if (g.outLinks(u).size() >= kNone)
            throw std::invalid_argument(
                "UpDownRouting: out-degree exceeds the one-byte "
                "table index");
    }
    const auto usable = [&](const Link &l) {
        return l.enabled && alive_[l.src] && alive_[l.dst];
    };

    // Tree levels: BFS from the first live node over the enabled
    // links treated as undirected (the escape network only needs a
    // consistent ordering, not direction-specific reachability).
    Graph undirected(n_);
    for (LinkId id = 0;
         id < static_cast<LinkId>(g.numLinks()); ++id) {
        const Link &l = g.link(id);
        if (usable(l)) {
            undirected.addLink(l.src, l.dst);
            undirected.addLink(l.dst, l.src);
        }
    }
    NodeId root = kInvalidNode;
    for (NodeId u = 0; u < n_ && root == kInvalidNode; ++u) {
        if (alive_[u])
            root = u;
    }
    std::vector<std::uint16_t> level(n_, kUnreachable);
    if (root != kInvalidNode)
        level = bfsDistances(undirected, root);

    // Link classification: "up" strictly ascends (level, id). The
    // usable classes freeze this generation's enabled links and
    // liveness for the lazy column builds.
    isUp_.assign(g.numLinks(), false);
    class_.assign(g.numLinks(), kUnusable);
    for (LinkId id = 0;
         id < static_cast<LinkId>(g.numLinks()); ++id) {
        const Link &l = g.link(id);
        isUp_[id] = std::pair(level[l.dst], l.dst) <
                    std::pair(level[l.src], l.src);
        if (usable(l))
            class_[id] = isUp_[id] ? kUp : kDown;
    }

    // Node processing order for the up-phase DP: ascending (level,
    // id), so every up link's target is processed before its source.
    for (NodeId u = 0; u < n_; ++u) {
        if (alive_[u])
            order_.push_back(u);
    }
    std::sort(order_.begin(), order_.end(), [&](NodeId a, NodeId b) {
        return std::pair(level[a], a) < std::pair(level[b], b);
    });
}

std::size_t
UpDownRouting::columnsBuilt() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::size_t built = 0;
    for (std::size_t t = 0; t < n_; ++t)
        built += columns_[t].load(std::memory_order_relaxed) ? 1 : 0;
    return built;
}

const std::uint8_t *
UpDownRouting::buildColumn(NodeId t) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const std::uint8_t *column =
            columns_[t].load(std::memory_order_relaxed))
        return column;  // another thread won the race
    const Graph &g = *graph_;
    auto owned = std::make_unique<std::uint8_t[]>(2 * n_);
    std::uint8_t *down = owned.get();
    std::uint8_t *up = down + n_;
    std::fill_n(down, 2 * n_, kNone);

    if (alive_[t]) {
        // Down-phase distances: BFS from t over reversed down links.
        std::vector<std::uint32_t> &dist = dist_;
        dist.assign(n_, kInf);
        dist[t] = 0;
        queue_.assign(1, t);
        for (std::size_t head = 0; head < queue_.size(); ++head) {
            const NodeId v = queue_[head];
            for (LinkId id : g.inLinks(v)) {
                const NodeId src = g.link(id).src;
                if (class_[id] == kDown && dist[src] == kInf) {
                    dist[src] = dist[v] + 1;
                    queue_.push_back(src);
                }
            }
        }
        for (NodeId u = 0; u < n_; ++u) {
            if (dist[u] == kInf || u == t)
                continue;
            const std::vector<LinkId> &out = g.outLinks(u);
            for (std::size_t i = 0; i < out.size(); ++i) {
                if (class_[out[i]] == kDown &&
                    dist[g.link(out[i]).dst] + 1 == dist[u]) {
                    down[u] = static_cast<std::uint8_t>(i);
                    break;
                }
            }
        }

        // Up-phase DP in ascending (level, id) order over the same
        // distances, now "any phase": an up link's destination
        // always precedes its source, so its distance is final when
        // the source is processed.
        for (NodeId u : order_) {
            if (u == t)
                continue;
            std::uint8_t best = down[u];
            const std::vector<LinkId> &out = g.outLinks(u);
            for (std::size_t i = 0; i < out.size(); ++i) {
                if (class_[out[i]] != kUp)
                    continue;
                const std::uint32_t via = dist[g.link(out[i]).dst];
                if (via != kInf && via + 1 < dist[u]) {
                    dist[u] = via + 1;
                    best = static_cast<std::uint8_t>(i);
                }
            }
            up[u] = best;
        }
    }

    const std::uint8_t *column = owned.get();
    storage_.push_back(std::move(owned));
    columns_[t].store(column, std::memory_order_release);
    return column;
}

} // namespace sf::net

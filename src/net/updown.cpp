#include "net/updown.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
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
    : graph_(&g), n_(g.numNodes())
{
    builds_.fetch_add(1, std::memory_order_relaxed);
    const auto is_alive = [&](NodeId u) {
        return alive.empty() || alive[u];
    };
    for (NodeId u = 0; u < n_; ++u) {
        if (g.outLinks(u).size() >= kNone)
            throw std::invalid_argument(
                "UpDownRouting: out-degree exceeds the one-byte "
                "table index");
    }

    // Tree levels: BFS from the first live node over the enabled
    // links treated as undirected (the escape network only needs a
    // consistent ordering, not direction-specific reachability).
    Graph undirected(n_);
    for (LinkId id = 0;
         id < static_cast<LinkId>(g.numLinks()); ++id) {
        const Link &l = g.link(id);
        if (l.enabled && is_alive(l.src) && is_alive(l.dst)) {
            undirected.addLink(l.src, l.dst);
            undirected.addLink(l.dst, l.src);
        }
    }
    NodeId root = kInvalidNode;
    for (NodeId u = 0; u < n_ && root == kInvalidNode; ++u) {
        if (is_alive(u))
            root = u;
    }
    std::vector<std::uint16_t> level(n_, kUnreachable);
    if (root != kInvalidNode)
        level = bfsDistances(undirected, root);

    // Link classification: "up" strictly ascends (level, id).
    isUp_.assign(g.numLinks(), false);
    for (LinkId id = 0;
         id < static_cast<LinkId>(g.numLinks()); ++id) {
        const Link &l = g.link(id);
        isUp_[id] = std::pair(level[l.dst], l.dst) <
                    std::pair(level[l.src], l.src);
    }

    // Node processing order for the up-phase DP: ascending (level,
    // id), so every up link's target is processed before its source.
    std::vector<NodeId> order(n_);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
        return std::pair(level[a], a) < std::pair(level[b], b);
    });

    nextUpPhase_.assign(n_ * n_, kNone);
    nextDownPhase_.assign(n_ * n_, kNone);
    std::vector<std::uint32_t> d_down(n_);
    std::vector<std::uint32_t> d_any(n_);
    std::vector<NodeId> queue;
    queue.reserve(n_);

    for (NodeId t = 0; t < n_; ++t) {
        if (!is_alive(t))
            continue;
        std::uint8_t *down = nextDownPhase_.data() + t * n_;
        std::uint8_t *up = nextUpPhase_.data() + t * n_;
        // Down-phase distances: BFS from t over reversed down links.
        std::fill(d_down.begin(), d_down.end(), kInf);
        d_down[t] = 0;
        queue.assign(1, t);
        for (std::size_t head = 0; head < queue.size(); ++head) {
            const NodeId v = queue[head];
            for (LinkId id : g.inLinks(v)) {
                const Link &l = g.link(id);
                if (!l.enabled || isUp_[id] || !is_alive(l.src))
                    continue;
                if (d_down[l.src] == kInf) {
                    d_down[l.src] = d_down[v] + 1;
                    queue.push_back(l.src);
                }
            }
        }
        for (NodeId u = 0; u < n_; ++u) {
            if (d_down[u] == kInf || u == t || !is_alive(u))
                continue;
            const std::vector<LinkId> &out = g.outLinks(u);
            for (std::size_t i = 0; i < out.size(); ++i) {
                const Link &l = g.link(out[i]);
                if (l.enabled && !isUp_[out[i]] && is_alive(l.dst) &&
                    d_down[l.dst] + 1 == d_down[u]) {
                    down[u] = static_cast<std::uint8_t>(i);
                    break;
                }
            }
        }

        // Up-phase DP in ascending (level, id) order: an up link's
        // destination always precedes its source, so d_any of the
        // target is final when the source is processed.
        std::copy(d_down.begin(), d_down.end(), d_any.begin());
        for (NodeId u : order) {
            if (u == t || !is_alive(u))
                continue;
            std::uint8_t best = down[u];
            const std::vector<LinkId> &out = g.outLinks(u);
            for (std::size_t i = 0; i < out.size(); ++i) {
                const Link &l = g.link(out[i]);
                if (!l.enabled || !isUp_[out[i]] || !is_alive(l.dst))
                    continue;
                if (d_any[l.dst] != kInf &&
                    d_any[l.dst] + 1 < d_any[u]) {
                    d_any[u] = d_any[l.dst] + 1;
                    best = static_cast<std::uint8_t>(i);
                }
            }
            up[u] = best;
        }
    }
}

} // namespace sf::net

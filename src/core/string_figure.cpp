#include "core/string_figure.hpp"

#include <cassert>

#include "net/paths.hpp"

namespace sf::core {

StringFigure::StringFigure(const SFParams &params)
    : data_(buildTopologyData(params)), router_(data_, tables_)
{
    tables_.rebuildAll(data_.graph);
    reconfig_ = std::make_unique<ReconfigEngine>(data_, tables_);
}

std::size_t
StringFigure::routeCandidates(NodeId current, NodeId dest,
                              bool first_hop,
                              std::span<LinkId> out) const
{
    return router_.candidates(current, dest, first_hop, out);
}

LinkId
StringFigure::ringEscapeLink(NodeId current) const
{
    const NodeId next = reconfig_->liveNext(0, current);
    if (next == current)
        return kInvalidLink;
    // Both link modes register the clockwise direction in the wire
    // inventory (bidirectional wires register both directions).
    const LinkId fwd = data_.findWire(current, next);
    if (fwd != kInvalidLink && data_.graph.link(fwd).enabled)
        return fwd;
    return kInvalidLink;  // space-0 hole (ShortcutsOnly mode only)
}

int
StringFigure::vcClass(NodeId src, NodeId dst) const
{
    // Paper Section IV: one VC for packets travelling toward higher
    // space coordinates, the other toward lower. Space 0 orders the
    // comparison; node id breaks exact ties.
    const Coord a = data_.spaces.coord(src, 0);
    const Coord b = data_.spaces.coord(dst, 0);
    if (a != b)
        return a < b ? 0 : 1;
    return src < dst ? 0 : 1;
}

ReconfigResult
StringFigure::gate(NodeId u)
{
    const ReconfigResult r = reconfig_->gate(u);
    if (r.applied)
        invalidateEscapeTables();
    return r;
}

ReconfigResult
StringFigure::ungate(NodeId u)
{
    const ReconfigResult r = reconfig_->ungate(u);
    if (r.applied)
        invalidateEscapeTables();
    return r;
}

std::vector<NodeId>
StringFigure::reduceTo(std::size_t live_target, Rng &rng)
{
    std::vector<NodeId> gated;
    if (reconfig_->numAlive() <= live_target)
        return gated;
    gated = reconfig_->gateRandom(
        reconfig_->numAlive() - live_target, rng);
    invalidateEscapeTables();
    return gated;
}

void
StringFigure::invalidateEscapeTables()
{
    invalidateUpDownRouting();
    const std::lock_guard<std::mutex> lock(fallbackMutex_);
    fallbackValid_.store(false, std::memory_order_release);
    fallbackNextLink_.clear();
}

LinkId
StringFigure::escapeLink(NodeId current, NodeId dest) const
{
    fallbacks_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t n = numNodes();
    if (!fallbackValid_.load(std::memory_order_acquire))
        buildFallbackTable();
    return fallbackNextLink_[current * n + dest];
}

void
StringFigure::buildFallbackTable() const
{
    const std::lock_guard<std::mutex> lock(fallbackMutex_);
    if (fallbackValid_.load(std::memory_order_relaxed))
        return;
    const std::size_t n = numNodes();
    // Next-hop table from per-destination reverse BFS: for each
    // destination column, a node's entry is any enabled out-link
    // that decreases the BFS distance to the destination.
    fallbackNextLink_.assign(n * n, kInvalidLink);
    net::Graph reversed(n);
    const net::Graph &g = data_.graph;
    for (LinkId id = 0; id < static_cast<LinkId>(g.numLinks());
         ++id) {
        const net::Link &l = g.link(id);
        if (l.enabled)
            reversed.addLink(l.dst, l.src);
    }
    for (NodeId dst = 0; dst < n; ++dst) {
        if (!reconfig_->alive(dst))
            continue;
        const auto dist = net::bfsDistances(
            reversed, dst, reconfig_->aliveMask());
        for (NodeId u = 0; u < n; ++u) {
            if (u == dst || dist[u] == net::kUnreachable)
                continue;
            for (LinkId id : g.outLinks(u)) {
                const net::Link &l = g.link(id);
                if (l.enabled &&
                    dist[l.dst] != net::kUnreachable &&
                    dist[l.dst] < dist[u]) {
                    fallbackNextLink_[u * n + dst] = id;
                    break;
                }
            }
        }
    }
    fallbackValid_.store(true, std::memory_order_release);
}

} // namespace sf::core

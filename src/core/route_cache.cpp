#include "core/route_cache.hpp"

#include <algorithm>

namespace sf::core {

RouteCache::RouteCache(const net::Topology &topo)
    : topo_(&topo), n_(topo.numNodes()), version_(n_),
      committed_(n_), firstHop_(n_)
{
    for (NodeId u = 0; u < n_; ++u)
        version_[u] = topo.routeVersion(u);
    // The one-byte committed encoding reserves three sentinels, so
    // out-link indices must stay below kNoRoute. Every topology in
    // this library has out-degree under 16; a hypothetical denser
    // one simply runs uncached.
    active_ = true;
    const net::Graph &g = topo.graph();
    for (NodeId u = 0; u < n_; ++u) {
        if (g.outLinks(u).size() >= kNoRoute) {
            active_ = false;
            break;
        }
    }
}

RouteCache::Revalidation
RouteCache::revalidate()
{
    Revalidation r;
    for (NodeId u = 0; u < n_; ++u) {
        const std::size_t rows =
            (committed_[u] ? 1 : 0) + (firstHop_[u] ? 1 : 0);
        const std::uint64_t now = topo_->routeVersion(u);
        if (now != net::Topology::kUnversioned &&
            now == version_[u]) {
            r.kept += rows;
            continue;
        }
        version_[u] = now;
        committed_[u].reset();
        firstHop_[u].reset();
        r.dropped += rows;
    }
    return r;
}

std::size_t
RouteCache::committedRows() const
{
    std::size_t rows = 0;
    for (const auto &row : committed_)
        rows += row ? 1 : 0;
    return rows;
}

std::size_t
RouteCache::firstHopRows() const
{
    std::size_t rows = 0;
    for (const auto &row : firstHop_)
        rows += row ? 1 : 0;
    return rows;
}

int
RouteCache::outIndexOf(NodeId current, LinkId link) const
{
    const std::vector<LinkId> &out =
        topo_->graph().outLinks(current);
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (out[i] == link)
            return static_cast<int>(i);
    }
    return -1;
}

std::size_t
RouteCache::candidates(NodeId current, NodeId dest, bool first_hop,
                       std::span<LinkId> out)
{
    return first_hop ? firstHopLookup(current, dest, out)
                     : committedLookup(current, dest, out);
}

std::size_t
RouteCache::committedLookup(NodeId current, NodeId dest,
                            std::span<LinkId> out)
{
    std::unique_ptr<std::uint8_t[]> &row = committed_[current];
    if (!row) {
        row = std::make_unique<std::uint8_t[]>(n_);
        std::fill_n(row.get(), n_, kUnfilled);
    }
    std::uint8_t &entry = row[dest];
    if (entry == kUnfilled) {
        LinkId buf[net::kMaxRouteCandidates];
        const std::size_t count =
            topo_->routeCandidates(current, dest, false, buf);
        if (count == 0) {
            entry = kNoRoute;
        } else if (count == 1) {
            const int idx = outIndexOf(current, buf[0]);
            entry = idx >= 0 ? static_cast<std::uint8_t>(idx)
                             : kUncacheable;
        } else {
            // Multiple committed candidates (a topology that widens
            // regardless of first_hop — mesh parallel wires,
            // table-routed equal-cost sets): one byte cannot hold
            // the set, so this pair stays on the direct call.
            entry = kUncacheable;
        }
        // Serve the fill from the just-computed value.
        const std::size_t emit = std::min(count, out.size());
        std::copy_n(buf, emit, out.begin());
        return emit;
    }
    if (entry == kNoRoute)
        return 0;
    if (entry == kUncacheable)
        return topo_->routeCandidates(current, dest, false, out);
    if (out.empty())
        return 0;
    out[0] = topo_->graph().outLinks(current)[entry];
    return 1;
}

std::size_t
RouteCache::firstHopLookup(NodeId current, NodeId dest,
                           std::span<LinkId> out)
{
    std::unique_ptr<FirstHopEntry[]> &row = firstHop_[current];
    if (!row)
        row = std::make_unique<FirstHopEntry[]>(n_);
    FirstHopEntry &entry = row[dest];
    if (entry.count == kUnfilled) {
        LinkId buf[net::kMaxRouteCandidates];
        const std::size_t count =
            topo_->routeCandidates(current, dest, true, buf);
        std::uint8_t encoded =
            static_cast<std::uint8_t>(count);
        std::uint8_t idx[net::kMaxRouteCandidates] = {};
        for (std::size_t i = 0; i < count; ++i) {
            const int j = outIndexOf(current, buf[i]);
            if (j < 0) {
                encoded = kUncacheable;
                break;
            }
            idx[i] = static_cast<std::uint8_t>(j);
        }
        if (encoded != kUncacheable)
            std::copy_n(idx, net::kMaxRouteCandidates, entry.idx);
        entry.count = encoded;
        const std::size_t emit = std::min(count, out.size());
        std::copy_n(buf, emit, out.begin());
        return emit;
    }
    if (entry.count == kUncacheable)
        return topo_->routeCandidates(current, dest, true, out);
    const std::vector<LinkId> &links =
        topo_->graph().outLinks(current);
    const std::size_t emit =
        std::min<std::size_t>(entry.count, out.size());
    for (std::size_t i = 0; i < emit; ++i)
        out[i] = links[entry.idx[i]];
    return emit;
}

} // namespace sf::core

#include "core/routing_table.hpp"

#include <algorithm>
#include <stdexcept>

namespace sf::core {

void
RoutingTable::setBlocking(NodeId node, bool value)
{
    bool flipped = false;
    for (TableEntry &e : entries_) {
        if (e.node == node && e.blocking != value) {
            e.blocking = value;
            flipped = true;
        }
    }
    if (flipped)
        ++version_;
}

void
RoutingTables::rebuildAll(const net::Graph &g)
{
    // Existing tables keep their versions: a rebuild that changes
    // nothing must not look like a change.
    tables_.resize(g.numNodes());
    maxEntries_ = 0;
    for (NodeId u = 0; u < g.numNodes(); ++u)
        rebuildNode(u, g);
}

void
RoutingTables::rebuildNode(NodeId self, const net::Graph &g)
{
    if (seen_.size() < g.numNodes())
        seen_.resize(g.numNodes(), 0);
    if (++stamp_ == 0) {  // wrapped: forget every old mark
        std::fill(seen_.begin(), seen_.end(), 0);
        stamp_ = 1;
    }
    std::vector<TableEntry> &fresh = scratch_;
    fresh.clear();
    // Self is never an entry.
    seen_[self] = stamp_;

    // One-hop entries: destinations of enabled out-links. A wire can
    // serve several virtual spaces; it still yields one entry.
    for (LinkId id : g.outLinks(self)) {
        const net::Link &l = g.link(id);
        if (!l.enabled || seen_[l.dst] == stamp_)
            continue;  // self loop or parallel wire to a neighbour
        if (fresh.size() > 0xff)
            throw std::length_error(
                "RoutingTable: more than 255 one-hop neighbours");
        seen_[l.dst] = stamp_;
        fresh.push_back(TableEntry{
            l.dst, id, 1, static_cast<std::uint8_t>(fresh.size()),
            true, false});
    }

    // Two-hop entries: the one-hop neighbours' own out-neighbours.
    // Skip self and nodes already present; keep the first path
    // found for each two-hop neighbour.
    const std::size_t n_one_hop = fresh.size();
    for (std::size_t i = 0; i < n_one_hop; ++i) {
        const TableEntry first = fresh[i];
        for (LinkId id : g.outLinks(first.node)) {
            const net::Link &l = g.link(id);
            if (!l.enabled || seen_[l.dst] == stamp_)
                continue;
            seen_[l.dst] = stamp_;
            fresh.push_back(TableEntry{
                l.dst, first.viaLink, 2,
                static_cast<std::uint8_t>(i), true, false});
        }
    }

    RoutingTable &table = tables_[self];
    if (fresh != table.entries_) {
        table.entries_.swap(fresh);
        ++table.version_;
    }
    maxEntries_ = std::max(maxEntries_, table.size());
}

} // namespace sf::core

/**
 * @file
 * Per-router routing tables (paper Fig 6(b)).
 *
 * Each router keeps one entry per one- or two-hop neighbour: the
 * neighbour's node number, the first-hop output link that reaches
 * it, a hop bit (1- vs 2-hop), a valid bit, and a blocking bit used
 * by the atomic reconfiguration protocol. Neighbour coordinates are
 * read from the shared VirtualSpaces (hardware stores them in the
 * entry; the routing decision is identical). The paper bounds the
 * table at p(p+1) entries; tests assert the bound on the basic
 * topology and the high-water mark is reported after
 * reconfiguration, where repair wires can introduce neighbours that
 * were 4 ring hops away.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "net/graph.hpp"
#include "net/types.hpp"

namespace sf::core {

/** One routing-table row. */
struct TableEntry {
    NodeId node = kInvalidNode;  ///< The 1-/2-hop neighbour.
    LinkId viaLink = kInvalidLink;  ///< First-hop link toward it.
    std::uint8_t hops = 1;       ///< Hop bit: 1 or 2.
    /**
     * Index (in the table) of the one-hop entry this entry is
     * reached through; a one-hop entry's own index. One-hop entries
     * come first, so the index fits a byte whenever the router has
     * at most 255 distinct neighbours (checked at build).
     */
    std::uint8_t parent = 0;
    bool valid = true;
    bool blocking = false;

    /** Usable for forwarding decisions right now? */
    bool usable() const { return valid && !blocking; }

    bool operator==(const TableEntry &) const = default;
};
// The parent index rides in what was padding: routing reads these
// rows on every table scan, so they stay 12 bytes.
static_assert(sizeof(TableEntry) == 12);

/**
 * Routing table of a single router. Rebuilt by RoutingTables, which
 * owns the build scratch.
 */
class RoutingTable
{
  public:
    const std::vector<TableEntry> &entries() const { return entries_; }

    /** Set the blocking bit on every entry referring to @p node. */
    void setBlocking(NodeId node, bool value);

    /** Number of entries (valid or not). */
    std::size_t size() const { return entries_.size(); }

    /**
     * Changes whenever the entries do: a rebuild that produced
     * different entries, or a setBlocking that flipped a bit. Equal
     * versions mean equal entries, so anything derived from this
     * table alone (the greedy candidates at this router) is still
     * valid.
     */
    std::uint64_t version() const { return version_; }

  private:
    friend class RoutingTables;

    std::vector<TableEntry> entries_;
    std::uint64_t version_ = 0;
};

/** All routers' tables plus bookkeeping. */
class RoutingTables
{
  public:
    RoutingTables() = default;

    /** Build tables for every node of @p g. */
    void rebuildAll(const net::Graph &g);

    /**
     * Rebuild the table of one node after local link changes from
     * the enabled out-links of @p u and of its neighbours. The
     * version moves only if the entries differ from the current
     * ones.
     */
    void rebuildNode(NodeId u, const net::Graph &g);

    const RoutingTable &table(NodeId u) const { return tables_[u]; }
    RoutingTable &table(NodeId u) { return tables_[u]; }

    std::size_t numNodes() const { return tables_.size(); }

    /** Largest table size ever observed (paper bound: p(p+1)). */
    std::size_t maxEntriesSeen() const { return maxEntries_; }

  private:
    std::vector<RoutingTable> tables_;
    std::size_t maxEntries_ = 0;
    /**
     * Build scratch: the fresh entries (swapped with the table's
     * when they differ, so steady-state rebuilds allocate nothing)
     * and a per-node stamp marking nodes already entered.
     */
    std::vector<TableEntry> scratch_;
    std::vector<std::uint32_t> seen_;
    std::uint32_t stamp_ = 0;
};

} // namespace sf::core

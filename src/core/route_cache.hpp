/**
 * @file
 * Memoized route plane: per-topology next-hop tables that turn the
 * dominant greedy-routing cost into array lookups.
 *
 * `Topology::routeCandidates` is a pure function of the immutable
 * topology — that purity is what let the route plane shard (PR 5) —
 * but sharding only divides the cost. At near-saturation n=1024 the
 * same (current, dest) pairs are re-derived millions of times per
 * run (table scan + per-entry multi-space distances + ranking). The
 * RouteCache memoizes the virtual call at the simulator's span size
 * (net::kMaxRouteCandidates), so a repeat lookup is one or two
 * array reads. A cached value is literally the same pure function's
 * output, so the simulated event stream is byte-identical with the
 * cache on or off — validity rests only on the answers at a row's
 * node staying unchanged (see docs/greedy_routing.md). Within a
 * topology generation everything is immutable; across one,
 * NetworkModel calls revalidate(), which keeps a node's rows only
 * when net::Topology::routeVersion says its routing state did not
 * move and drops them otherwise.
 *
 * Two independent tables, both lazily filled on first miss:
 *
 *  - the **committed** table (first_hop = false): one byte per
 *    (current, dest) holding an index into
 *    `graph().outLinks(current)`. String Figure commits non-first
 *    hops to the single greediest choice (widen=false in
 *    GreedyRouter), so one link almost always suffices; topologies
 *    that ignore `first_hop` and emit several equal-cost candidates
 *    anyway (mesh parallel wires, table-routed shortest-path sets)
 *    mark the entry *uncacheable* and every lookup falls through to
 *    the direct virtual call — correctness never depends on the
 *    widen semantics of a Topology subclass. n^2 bytes = 1 MB at
 *    n = 1024.
 *
 *  - the **first-hop** table (first_hop = true): count plus up to
 *    kMaxRouteCandidates out-link indices per (source, dest) — the
 *    ranked widened set adaptive injection picks from. Touched only
 *    for pairs that actually inject, 5 bytes each.
 *
 * Rows (one per `current`) are allocated on first touch, so memory
 * tracks the pairs a run actually routes. Concurrent use: the
 * sharded route plane partitions nodes into contiguous blocks and a
 * shard only ever looks up its own nodes as `current`, so each row
 * is read and written by exactly one thread per cycle barrier —
 * plain stores, no atomics, TSan-clean by ownership (the row
 * pointers themselves are pre-sized and never resized).
 */

#pragma once

#include <memory>
#include <span>
#include <vector>

#include "net/topology.hpp"

namespace sf::core {

/**
 * Memoizes `topo.routeCandidates(current, dest, first_hop, out)`
 * for spans of net::kMaxRouteCandidates entries (the simulator's
 * packet-record size). One instance per NetworkModel; valid while
 * the topology is immutable, and again after each reconfiguration
 * once revalidate() has run.
 */
class RouteCache
{
  public:
    explicit RouteCache(const net::Topology &topo);

    /**
     * False when the topology cannot be index-encoded (an
     * out-degree beyond the one-byte sentinel space — far above
     * anything this library builds); callers then keep the direct
     * virtual call.
     */
    bool active() const { return active_; }

    /**
     * Drop-in replacement for Topology::routeCandidates at the
     * simulator's span size: identical links, identical count, from
     * the cache when the pair was seen before. Writes at most
     * min(out.size(), kMaxRouteCandidates) entries.
     */
    std::size_t candidates(NodeId current, NodeId dest,
                           bool first_hop, std::span<LinkId> out);

    /** Rows kept and dropped by one revalidate() call. */
    struct Revalidation {
        std::size_t kept = 0;
        std::size_t dropped = 0;
    };

    /**
     * Bring the cache to a new topology generation: a node's rows
     * (committed and first-hop) survive when its routeVersion is
     * tracked and unchanged since they were filled, and are dropped
     * otherwise. Call only between generations, never concurrently
     * with lookups.
     */
    Revalidation revalidate();

    /** Committed-table rows allocated so far (tests/bench). */
    std::size_t committedRows() const;
    /** First-hop-table rows allocated so far (tests/bench). */
    std::size_t firstHopRows() const;

  private:
    // Committed-table byte encoding. Values below kNoRoute are
    // indices into graph().outLinks(current).
    static constexpr std::uint8_t kUnfilled = 0xFF;
    static constexpr std::uint8_t kUncacheable = 0xFE;
    static constexpr std::uint8_t kNoRoute = 0xFD;

    /** One first-hop entry: ranked prefix as out-link indices. */
    struct FirstHopEntry {
        std::uint8_t count = kUnfilled;  ///< kUnfilled until seen
        std::uint8_t idx[net::kMaxRouteCandidates] = {};
    };

    std::size_t committedLookup(NodeId current, NodeId dest,
                                std::span<LinkId> out);
    std::size_t firstHopLookup(NodeId current, NodeId dest,
                               std::span<LinkId> out);
    /** Index of @p link in outLinks(@p current), or -1. */
    int outIndexOf(NodeId current, LinkId link) const;

    const net::Topology *topo_;
    std::size_t n_;
    bool active_ = false;
    /** Per node: the routeVersion its rows answer for. */
    std::vector<std::uint64_t> version_;
    /** Per-`current` rows of n_ bytes, allocated on first touch. */
    std::vector<std::unique_ptr<std::uint8_t[]>> committed_;
    /** Per-`current` rows of n_ entries, allocated on first touch. */
    std::vector<std::unique_ptr<FirstHopEntry[]>> firstHop_;
};

} // namespace sf::core

/**
 * @file
 * Up*-down* escape routing (Autonet-style).
 *
 * The simulator gives every network one escape virtual channel on
 * which packets follow up*-down* routes: links are classified "up"
 * (toward a BFS root) or "down", and a legal route takes zero or
 * more up links followed by zero or more down links. Because the
 * up-phase strictly ascends the tree ordering and the down-phase
 * strictly descends it, the channel dependency graph on the escape
 * VC is acyclic, so packets on it always drain — a topology-agnostic
 * deadlock safety net (Duato's protocol). A packet that waits too
 * long on its normal VC transfers to the escape VC and stays there.
 *
 * This module computes, for a given Graph, the next-hop table of the
 * escape network: nextLink(u, dest) such that following it repeatedly
 * reaches dest along a legal up*-down* path.
 *
 * Cost model: the constructor does only the O(n + E) work — BFS
 * levels, up/down link classes, the DP processing order, and a
 * snapshot of which links were usable (enabled, both endpoints live)
 * at build time. A destination's column (one byte per node and
 * phase, 2n bytes, holding an index into graph.outLinks(u) or kNone)
 * is computed on the first nextLink() toward that destination. Runs
 * read only the columns their escalated packets need, so they no
 * longer pay for all n of them (2 n² bytes, ~24 ms at n = 1024) per
 * topology generation.
 *
 * The tables are a pure function of the snapshot, not of the live
 * graph: a model holding an old generation after a gate keeps
 * answering for that generation, even for destinations it first
 * asks about later. Only the graph's structure (link endpoints and
 * adjacency order, which reconfiguration never changes) is read at
 * column time. The topology owns one shared instance per topology
 * generation (net::Topology::upDownRouting).
 *
 * Concurrency: shared topologies answer from many simulator threads
 * at once. Each column is published through its own atomic pointer
 * (release after the fill, acquire on lookup) and filled under a
 * mutex, so racing first lookups compute it exactly once.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "net/graph.hpp"

namespace sf::net {

/** Up*-down* next-hop tables over the enabled links of one graph. */
class UpDownRouting
{
  public:
    /** Table entry meaning "no legal next hop". */
    static constexpr std::uint8_t kNone = 0xff;

    /**
     * Classify the links and snapshot their usability. @p g must
     * outlive this object (columns resolve adjacency through it).
     *
     * @param alive Optional liveness mask: gated nodes are excluded.
     * @throws std::invalid_argument when a node has more than 254
     *         out-links (the index would not fit one byte).
     */
    explicit UpDownRouting(const Graph &g,
                           const std::vector<bool> &alive = {});

    UpDownRouting(const UpDownRouting &) = delete;
    UpDownRouting &operator=(const UpDownRouting &) = delete;

    /**
     * Next link from @p u toward @p dest. Thread-safe; the first
     * call toward @p dest computes its column.
     *
     * @param up_phase_allowed False once the packet has taken a down
     *        link; up links are then illegal.
     * @return Link id, or kInvalidLink if unreachable.
     */
    LinkId
    nextLink(NodeId u, NodeId dest, bool up_phase_allowed) const
    {
        if (u == dest)
            return kInvalidLink;
        const std::uint8_t *column =
            columns_[dest].load(std::memory_order_acquire);
        if (column == nullptr)
            column = buildColumn(dest);
        const std::uint8_t idx =
            column[up_phase_allowed ? n_ + u : u];
        return idx == kNone ? kInvalidLink : graph_->outLinks(u)[idx];
    }

    /** True when the link classifies as "up". */
    bool isUp(LinkId id) const { return isUp_[id]; }

    /** Whether @p dest is reachable from @p u at all. */
    bool
    reachable(NodeId u, NodeId dest) const
    {
        return u == dest ||
               nextLink(u, dest, true) != kInvalidLink;
    }

    /** Destination columns computed so far by this instance. */
    std::size_t columnsBuilt() const;

    /** Instances constructed so far in this process. */
    static std::uint64_t
    buildCount()
    {
        return builds_.load(std::memory_order_relaxed);
    }

  private:
    /** Usability class of a link in the build-time snapshot. */
    enum LinkClass : std::uint8_t { kUnusable, kDown, kUp };

    /** Compute and publish @p dest's column (once, under mutex_). */
    const std::uint8_t *buildColumn(NodeId dest) const;

    const Graph *graph_;
    std::size_t n_ = 0;
    std::vector<bool> isUp_;
    /** Per link: unusable, or a usable down/up link. */
    std::vector<LinkClass> class_;
    std::vector<bool> alive_;
    /** Up-phase DP order: ascending (level, id), live nodes only. */
    std::vector<NodeId> order_;

    /**
     * Per destination: 2n bytes, down phase at [u], up phase at
     * [n + u]; null until first asked. storage_ owns the columns
     * and is only touched under mutex_.
     */
    std::unique_ptr<std::atomic<const std::uint8_t *>[]> columns_;
    mutable std::mutex mutex_;
    mutable std::vector<std::unique_ptr<std::uint8_t[]>> storage_;
    /** Column-build scratch, guarded by mutex_. */
    mutable std::vector<std::uint32_t> dist_;
    mutable std::vector<NodeId> queue_;

    static std::atomic<std::uint64_t> builds_;
};

} // namespace sf::net

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
 * Layout: one byte per (dest, u) entry per phase, at [dest * n + u],
 * holding an index into graph.outLinks(u) (kNone = no legal hop).
 * Destination-major rows match the build loop, which fills one
 * destination column at a time, and keep the tables at 2 n² bytes
 * (2 MB at n = 1024). The tables are a pure function of the graph's
 * enabled links and the liveness mask at build time; the topology
 * owns one shared instance per topology generation
 * (net::Topology::upDownRouting).
 */

#pragma once

#include <atomic>
#include <cstdint>
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
     * Build the tables. @p g must outlive this object (lookups
     * resolve out-link indices through it).
     *
     * @param alive Optional liveness mask: gated nodes are excluded.
     * @throws std::invalid_argument when a node has more than 254
     *         out-links (the index would not fit one byte).
     */
    explicit UpDownRouting(const Graph &g,
                           const std::vector<bool> &alive = {});

    /**
     * Next link from @p u toward @p dest.
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
        const std::vector<std::uint8_t> &table =
            up_phase_allowed ? nextUpPhase_ : nextDownPhase_;
        const std::uint8_t idx = table[dest * n_ + u];
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

    /** Tables built so far in this process (all instances). */
    static std::uint64_t
    buildCount()
    {
        return builds_.load(std::memory_order_relaxed);
    }

  private:
    const Graph *graph_;
    std::size_t n_ = 0;
    std::vector<bool> isUp_;
    /**
     * Per (dest, node): out-link index of the best next hop when
     * still in the up phase and when restricted to the down phase.
     */
    std::vector<std::uint8_t> nextUpPhase_;
    std::vector<std::uint8_t> nextDownPhase_;

    static std::atomic<std::uint64_t> builds_;
};

} // namespace sf::net

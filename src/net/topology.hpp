/**
 * @file
 * Abstract interface every network topology implements.
 *
 * The flit simulator, the analysis helpers, and the benchmark
 * harnesses are all topology-agnostic: they consume this interface.
 * A topology owns its link graph and its routing function; routing is
 * exposed as "candidate output links" so the simulator can apply
 * adaptive (congestion-aware) selection among them.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "net/graph.hpp"
#include "net/rng.hpp"
#include "net/types.hpp"
#include "net/updown.hpp"

namespace sf::net {

/**
 * Candidate capacity the simulator's routing fast path provides:
 * routeCandidates() writes into a caller-owned span and the flit
 * simulator sizes it at this many entries (one cache line of the
 * packet record). Analysis callers may pass larger spans to see the
 * full ranked set.
 */
inline constexpr std::size_t kMaxRouteCandidates = 4;

/** Static feature flags reported in the paper's Table II. */
struct TopologyFeatures {
    bool requiresHighRadix = false;  ///< Needs many-port routers?
    bool portCountScales = false;    ///< Ports grow with N?
    bool reconfigurable = false;     ///< Supports elastic scaling?
};

/**
 * Deadlock-safety scheme of the simulator's escape virtual channel.
 *
 * UpDown assumes every wire is usable in both directions (mesh, FB,
 * bidirectional random graphs). Ring follows a directed cycle
 * covering all live nodes (String Figure / S2's space-0 ring) with a
 * dateline VC switch, which also works for unidirectional wiring.
 */
enum class EscapeScheme { UpDown, Ring };

/** Abstract routed network topology. */
class Topology
{
  public:
    virtual ~Topology() = default;

    /** Short name for reports ("SF", "ODM", "AFB", ...). */
    virtual std::string name() const = 0;

    /** The link graph (directed; disabled links are gated off). */
    virtual const Graph &graph() const = 0;

    /** Number of memory nodes. */
    std::size_t numNodes() const { return graph().numNodes(); }

    /** Router radix p (network ports, excluding the terminal port). */
    virtual int routerPorts() const = 0;

    /**
     * Candidate output links for a packet at @p current heading to
     * @p dest, in decreasing order of preference. Candidates beyond
     * the first are alternatives an adaptive selector may use.
     * Zero means no enabled progress-making link exists (only
     * possible during/after reconfiguration in degraded modes;
     * callers fall back or count a stall).
     *
     * Writes at most @c out.size() link ids into @p out — the
     * caller owns the storage, so the per-hop fast path allocates
     * nothing. Implementations rank internally and emit a prefix:
     * truncation keeps the best candidates.
     *
     * @param first_hop True at the packet's source router; String
     *        Figure only widens the adaptive choice there.
     * @return Number of candidates written.
     */
    virtual std::size_t routeCandidates(NodeId current, NodeId dest,
                                        bool first_hop,
                                        std::span<LinkId> out)
        const = 0;

    /**
     * Number of deadlock-avoidance virtual-channel classes the
     * routing function needs (String Figure: 2).
     */
    virtual int numVcClasses() const { return 1; }

    /** Deadlock VC class for a packet from @p src to @p dst. */
    virtual int
    vcClass(NodeId src, NodeId dst) const
    {
        (void)src;
        (void)dst;
        return 0;
    }

    /**
     * Escape next-hop for packets whose normal routing stalled
     * (possible only in degraded reconfiguration states). Once a
     * packet takes an escape hop it must keep using escape hops
     * until delivery: escape hops strictly decrease a precomputed
     * distance-to-destination, so mixing them with normal hops could
     * oscillate, while staying in escape mode cannot.
     *
     * @return A link id, or kInvalidLink when @p dest is unreachable.
     */
    virtual LinkId
    escapeLink(NodeId current, NodeId dest) const
    {
        (void)current;
        (void)dest;
        return kInvalidLink;
    }

    /** Escape-channel scheme the simulator should use. */
    virtual EscapeScheme escapeScheme() const
    {
        return EscapeScheme::UpDown;
    }

    /**
     * Ring-escape support: the link continuing the covering directed
     * cycle from @p current (String Figure: the live space-0 ring).
     */
    virtual LinkId ringEscapeLink(NodeId current) const
    {
        (void)current;
        return kInvalidLink;
    }

    /** Position of @p u on the covering cycle (dateline detection). */
    virtual std::uint32_t ringPosition(NodeId u) const
    {
        (void)u;
        return 0;
    }

    /** Liveness of @p u (false while power-gated). */
    virtual bool nodeAlive(NodeId u) const
    {
        (void)u;
        return true;
    }

    /** Table II feature flags. */
    virtual TopologyFeatures features() const { return {}; }

    /**
     * The up*-down* escape tables of the current topology
     * generation, over the enabled links and live nodes. Built on
     * the first call (never at construction) and shared by every
     * caller until a reconfiguration invalidates them. Thread-safe:
     * shared immutable instances hand the tables to many simulator
     * threads at once, so the lazy build is double-checked under a
     * mutex. A holder keeps its generation's tables alive across
     * an invalidation.
     */
    std::shared_ptr<const UpDownRouting> upDownRouting() const;

  protected:
    /**
     * Drop the escape tables after a link or liveness change; the
     * next upDownRouting() call rebuilds them. Writers only — like
     * every topology mutation, never concurrent with routing.
     */
    void invalidateUpDownRouting();

  private:
    mutable std::mutex updownMutex_;
    mutable std::shared_ptr<const UpDownRouting> updown_;
    mutable std::atomic<bool> updownValid_{false};
};

/**
 * Walk a packet from @p src to @p dst taking the top routing
 * candidate at every hop (no congestion), as the hop-count analyses
 * in Fig 5 / Fig 9(a) require for routed (not just shortest) paths.
 * Mirrors the simulator: a stall engages escape mode permanently.
 *
 * @return Hop count, or -1 if the walk dead-ends or exceeds 4N hops.
 */
inline int routedHops(const Topology &topo, NodeId src, NodeId dst);

/** Result of probeRoutedHops: routed-path quality over node pairs. */
struct RoutedProbe {
    /** Mean routed hops over delivered pairs; -1 when none. */
    double avgHops = -1.0;
    /** Delivered / attempted, percent (attempted excludes s == t
     *  and pairs with a gated endpoint). */
    double deliveredPct = 0.0;
    std::size_t attempted = 0;
    std::size_t delivered = 0;
};

/**
 * Probe routed-path quality: walk @p samples random (or, when
 * @p samples <= 0, all) live ordered pairs with routedHops and
 * aggregate. The shared engine behind the Fig 9(a) hop counts and
 * the routing-table / reconfiguration ablations.
 */
RoutedProbe probeRoutedHops(const Topology &topo, Rng &rng,
                            int samples);


inline int
routedHops(const Topology &topo, NodeId src, NodeId dst)
{
    if (src == dst)
        return 0;
    const int limit = static_cast<int>(topo.numNodes()) * 4 + 16;
    LinkId candidates[kMaxRouteCandidates];
    NodeId at = src;
    bool escape = false;
    for (int hops = 0; hops < limit; ++hops) {
        if (at == dst)
            return hops;
        LinkId next = kInvalidLink;
        if (!escape) {
            if (topo.routeCandidates(at, dst, hops == 0,
                                     candidates) > 0)
                next = candidates[0];
            else
                escape = true;
        }
        if (escape)
            next = topo.escapeLink(at, dst);
        if (next == kInvalidLink)
            return -1;
        at = topo.graph().link(next).dst;
    }
    return -1;
}

} // namespace sf::net

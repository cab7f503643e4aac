/**
 * @file
 * StringFigure: the public facade tying together topology
 * construction, greediest routing, routing tables, and elastic
 * reconfiguration behind the generic net::Topology interface.
 *
 * Quick start:
 * @code
 *   sf::core::SFParams params;
 *   params.numNodes = 1296;
 *   params.routerPorts = 8;
 *   sf::core::StringFigure network(params);
 *   int hops = sf::net::routedHops(network, 3, 977);
 *   network.gate(42);    // power-gate a memory node
 *   network.ungate(42);  // and bring it back
 * @endcode
 */

#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/greedy_router.hpp"
#include "core/params.hpp"
#include "core/reconfig.hpp"
#include "core/routing_table.hpp"
#include "core/topology_builder.hpp"
#include "net/topology.hpp"

namespace sf::core {

/** A deployed String Figure memory network. */
class StringFigure : public net::Topology
{
  public:
    /** Build and deploy a network from @p params. */
    explicit StringFigure(const SFParams &params);

    // net::Topology interface -------------------------------------
    std::string name() const override { return "SF"; }
    const net::Graph &graph() const override { return data_.graph; }
    int routerPorts() const override { return data_.params.routerPorts; }
    std::size_t routeCandidates(NodeId current, NodeId dest,
                                bool first_hop,
                                std::span<LinkId> out) const override;
    LinkId escapeLink(NodeId current, NodeId dest) const override;
    net::EscapeScheme escapeScheme() const override
    {
        return net::EscapeScheme::Ring;
    }
    LinkId ringEscapeLink(NodeId current) const override;
    std::uint32_t ringPosition(NodeId u) const override
    {
        return static_cast<std::uint32_t>(
            data_.spaces.ringIndex(u, 0));
    }
    int numVcClasses() const override { return 2; }
    int vcClass(NodeId src, NodeId dst) const override;
    bool nodeAlive(NodeId u) const override
    {
        return reconfig_->alive(u);
    }
    net::TopologyFeatures
    features() const override
    {
        return net::TopologyFeatures{
            .requiresHighRadix = false,
            .portCountScales = false,
            .reconfigurable = true,
        };
    }

    // String Figure specifics --------------------------------------
    const SFParams &params() const { return data_.params; }
    const SFTopologyData &data() const { return data_; }
    const VirtualSpaces &spaces() const { return data_.spaces; }
    const RoutingTables &tables() const { return tables_; }
    const GreedyRouter &router() const { return router_; }
    ReconfigEngine &reconfig() { return *reconfig_; }
    const ReconfigEngine &reconfig() const { return *reconfig_; }

    /** Power-gate node @p u (dynamic down-scale). */
    ReconfigResult gate(NodeId u);

    /** Re-activate node @p u (dynamic up-scale). */
    ReconfigResult ungate(NodeId u);

    /**
     * Gate random repairable victims until only @p live_target nodes
     * remain (static reduction / deploy-subset). Returns the gated
     * victims; may stop early when no repairable victim is left.
     */
    std::vector<NodeId> reduceTo(std::size_t live_target, Rng &rng);

    /**
     * Times the escape table was consulted because greedy routing
     * found no strictly improving neighbour (only possible in
     * degraded reconfiguration states; always 0 on the full
     * topology).
     */
    std::uint64_t fallbackCount() const
    {
        return fallbacks_.load(std::memory_order_relaxed);
    }

  private:
    /** Drop the fallback and up*-down* tables after a gate. */
    void invalidateEscapeTables();
    void buildFallbackTable() const;

    SFTopologyData data_;
    RoutingTables tables_;
    GreedyRouter router_;
    std::unique_ptr<ReconfigEngine> reconfig_;

    /**
     * Lazily built fallback next-hop table (link id per (u, dst)).
     * Shared const instances may route from many threads, so the
     * build is double-checked under the mutex and the counter is
     * atomic. Gating (non-const) invalidates; shared instances are
     * never gated.
     */
    mutable std::mutex fallbackMutex_;
    mutable std::vector<LinkId> fallbackNextLink_;
    mutable std::atomic<bool> fallbackValid_{false};
    mutable std::atomic<std::uint64_t> fallbacks_{0};
};

} // namespace sf::core

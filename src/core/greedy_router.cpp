#include "core/greedy_router.hpp"

#include <algorithm>
#include <array>
#include <cassert>

namespace sf::core {

Coord
GreedyRouter::distance(NodeId u, NodeId t) const
{
    const VirtualSpaces &vs = data_->spaces;
    const bool directed =
        data_->params.linkMode == LinkMode::Unidirectional;
    // One row fetch per node, not one per space: this runs a few
    // hundred times per forwarding decision.
    const std::vector<Coord> &cu = vs.coords(u);
    const std::vector<Coord> &ct = vs.coords(t);
    const std::size_t spaces = cu.size();
    // Branch-free min per link mode (see coordinates.hpp).
    Coord best = 2.0;
    if (directed) {
        for (std::size_t s = 0; s < spaces; ++s)
            best = std::min(best, clockwiseDistance(cu[s], ct[s]));
    } else {
        for (std::size_t s = 0; s < spaces; ++s)
            best = std::min(best, circularDistance(cu[s], ct[s]));
    }
    return best;
}

std::size_t
GreedyRouter::candidates(NodeId current, NodeId dest, bool widen,
                         std::span<LinkId> out) const
{
    assert(current != dest);
    if (out.empty())
        return 0;
    const RoutingTable &table = tables_->table(current);
    const Coord md_here = distance(current, dest);

    // Plans per first-hop link: the best MD reachable within the
    // table horizon through that link. A plan qualifies when its
    // target strictly improves on this node's MD — either the
    // one-hop neighbour itself (classic greediest) or a two-hop
    // entry reached through it (lookahead). Forwarding along plans
    // terminates: the plan value never increases across a hop, and
    // the directed/symmetric ring lemma guarantees every non-
    // destination node has a strictly improving successor, so the
    // value strictly decreases at least every second hop (formal
    // argument in docs/greedy_routing.md).
    struct Ranked {
        LinkId via;
        NodeId node;      ///< first-hop neighbour
        Coord oneHopMd;
        Coord planValue;  ///< best MD in this plan
        bool qualifies;   ///< some target strictly improves
    };
    // One plan per one-hop entry: a fixed stack array keeps the
    // per-hop fast path allocation-free. planOf maps a one-hop
    // entry's table index (any TableEntry::parent value) to its
    // plan, kNoPlan when it has none, so each two-hop entry finds
    // its plan through its parent index.
    constexpr std::uint8_t kNoPlan = 0xff;
    static_assert(kMaxPlans < kNoPlan);
    Ranked plans[kMaxPlans];
    std::array<std::uint8_t, 256> planOf;
    planOf.fill(kNoPlan);
    std::size_t num_plans = 0;
    // One-hop entries come first in every table.
    const std::vector<TableEntry> &entries = table.entries();
    std::size_t i = 0;
    for (; i < entries.size() && entries[i].hops == 1; ++i) {
        const TableEntry &e = entries[i];
        if (!e.usable())
            continue;
        if (e.node == dest) {
            // Direct delivery always wins outright.
            out[0] = e.viaLink;
            return 1;
        }
        assert(num_plans < kMaxPlans);
        if (num_plans >= kMaxPlans)
            continue;
        const Coord md = distance(e.node, dest);
        planOf[i] = static_cast<std::uint8_t>(num_plans);
        plans[num_plans++] =
            Ranked{e.viaLink, e.node, md, md, md < md_here};
    }

    // Two-hop lookahead: fold each two-hop entry into the plan of
    // its one-hop parent. (Nothing to fold into when no one-hop
    // plan exists, so the distance evaluations are skipped.)
    if (data_->params.twoHopTable && num_plans > 0) {
        for (; i < entries.size(); ++i) {
            const TableEntry &e = entries[i];
            if (!e.usable())
                continue;
            const std::uint8_t p = planOf[e.parent];
            if (p == kNoPlan)
                continue;
            Ranked &plan = plans[p];
            const Coord md = distance(e.node, dest);
            plan.planValue = std::min(plan.planValue, md);
            plan.qualifies |= md < md_here;
        }
    }

    num_plans = static_cast<std::size_t>(
        std::remove_if(plans, plans + num_plans,
                       [](const Ranked &p) {
                           return !p.qualifies;
                       }) -
        plans);
    if (num_plans == 0)
        return 0;

    std::sort(plans, plans + num_plans,
              [](const Ranked &a, const Ranked &b) {
                  if (a.planValue != b.planValue)
                      return a.planValue < b.planValue;
                  if (a.oneHopMd != b.oneHopMd)
                      return a.oneHopMd < b.oneHopMd;
                  return a.node < b.node;  // deterministic ties
              });

    const std::size_t count =
        std::min(widen ? num_plans : std::size_t{1}, out.size());
    for (std::size_t i = 0; i < count; ++i)
        out[i] = plans[i].via;
    return count;
}

} // namespace sf::core

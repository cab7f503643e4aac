#include "core/reconfig.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <sstream>

namespace sf::core {

namespace {

/** Canonical link id of a wire (collapses bidirectional pairs). */
LinkId
canonicalId(const net::Graph &g, LinkId id)
{
    const LinkId pair = g.link(id).pairId;
    return (pair != kInvalidLink && pair < id) ? pair : id;
}

} // namespace

ReconfigEngine::ReconfigEngine(SFTopologyData &data,
                               RoutingTables &tables)
    : data_(&data), tables_(&tables)
{
    const std::size_t n = data_->params.numNodes;
    const int spaces = data_->spaces.numSpaces();
    alive_.assign(n, true);
    numAlive_ = n;
    liveNext_.assign(spaces, std::vector<NodeId>(n));
    livePrev_.assign(spaces, std::vector<NodeId>(n));
    for (int s = 0; s < spaces; ++s) {
        const auto &ring = data_->spaces.ring(s);
        for (std::size_t i = 0; i < n; ++i) {
            liveNext_[s][ring[i]] = ring[(i + 1) % n];
            livePrev_[s][ring[(i + 1) % n]] = ring[i];
        }
    }
    if (tables_->numNodes() != n)
        tables_->rebuildAll(data_->graph);
    nodeMark_.assign(n, 0);
    wireMark_.assign(data_->graph.numLinks(), 0);
}

bool
ReconfigEngine::bidir() const
{
    return data_->params.linkMode == LinkMode::Bidirectional;
}

bool
ReconfigEngine::wireEnabled(LinkId id) const
{
    return data_->graph.link(id).enabled;
}

bool
ReconfigEngine::ringUse(NodeId a, NodeId b) const
{
    for (const auto &next : liveNext_) {
        if (next[a] == b)
            return true;
    }
    return false;
}

bool
ReconfigEngine::wireDesired(LinkId id) const
{
    const net::Link &l = data_->graph.link(id);
    if (!alive_[l.src] || !alive_[l.dst] || l.src == l.dst)
        return false;
    if (ringUse(l.src, l.dst))
        return true;
    if (bidir() && ringUse(l.dst, l.src))
        return true;
    if (l.kind == net::LinkKind::Pairing)
        return true;
    if (l.kind == net::LinkKind::Shortcut) {
        // Shortcuts activated at build time for throughput come back
        // whenever both endpoints are live and ports allow.
        const auto &tp = data_->throughputShortcuts;
        const LinkId canon = canonicalId(data_->graph, id);
        if (std::find(tp.begin(), tp.end(), canon) != tp.end())
            return true;
    }
    return false;
}

void
ReconfigEngine::enableWire(LinkId id)
{
    const net::Link &l = data_->graph.link(id);
    assert(!l.enabled);
    data_->graph.setWireEnabled(id, true);
    ++data_->portsUsed[l.src];
    ++data_->portsUsed[l.dst];
}

void
ReconfigEngine::disableWire(LinkId id)
{
    const net::Link &l = data_->graph.link(id);
    assert(l.enabled);
    data_->graph.setWireEnabled(id, false);
    --data_->portsUsed[l.src];
    --data_->portsUsed[l.dst];
}

bool
ReconfigEngine::freePortAt(NodeId x, bool dry_run)
{
    const int budget = data_->portBudget();
    if (data_->portsUsed[x] < budget)
        return true;
    // The topology switch can re-target a port: drop an enabled
    // non-ring wire (pairing or throughput shortcut) whose loss
    // costs path diversity but never ring connectivity.
    const net::Graph &g = data_->graph;
    const auto try_links = [&](const std::vector<LinkId> &ids)
        -> LinkId {
        for (LinkId id : ids) {
            const net::Link &l = g.link(id);
            if (!l.enabled)
                continue;
            if (l.kind != net::LinkKind::Pairing &&
                l.kind != net::LinkKind::Shortcut)
                continue;
            if (ringUse(l.src, l.dst) ||
                (bidir() && ringUse(l.dst, l.src)))
                continue;  // currently load-bearing for a ring
            return id;
        }
        return kInvalidLink;
    };
    LinkId victim = try_links(g.outLinks(x));
    if (victim == kInvalidLink)
        victim = try_links(g.inLinks(x));
    if (victim == kInvalidLink)
        return false;
    if (!dry_run) {
        disableWire(canonicalId(g, victim));
        ++stats_.portsStolen;
    }
    return true;
}

std::uint32_t
ReconfigEngine::freshStamp()
{
    if (++stamp_ == 0) {  // wrapped: forget every old mark
        std::fill(nodeMark_.begin(), nodeMark_.end(), 0);
        std::fill(wireMark_.begin(), wireMark_.end(), 0);
        stamp_ = 1;
    }
    return stamp_;
}

void
ReconfigEngine::settleWires(const std::vector<LinkId> &candidates,
                            ReconfigResult &result)
{
    // Dedupe to canonical wire handles, keeping first-seen order.
    const std::uint32_t stamp = freshStamp();
    std::vector<LinkId> wires;
    for (LinkId id : candidates) {
        const LinkId canon = canonicalId(data_->graph, id);
        if (wireMark_[canon] != stamp) {
            wireMark_[canon] = stamp;
            wires.push_back(canon);
        }
    }

    // Pass 1: drop wires that lost their purpose (frees ports).
    for (LinkId id : wires) {
        if (wireEnabled(id) && !wireDesired(id)) {
            disableWire(id);
            ++result.wiresDisabled;
        }
    }

    // Pass 2: bring up desired wires, ring repairs first so that
    // scarce ports go to connectivity before throughput extras.
    // A stable bucket pass over a rank computed once per wire (the
    // rank reads liveness and kind only, never enable state).
    std::vector<std::uint8_t> rank(wires.size());
    for (std::size_t i = 0; i < wires.size(); ++i) {
        const net::Link &l = data_->graph.link(wires[i]);
        const bool ring = alive_[l.src] && alive_[l.dst] &&
                          (ringUse(l.src, l.dst) ||
                           (bidir() && ringUse(l.dst, l.src)));
        rank[i] = ring ? 0
                       : (l.kind == net::LinkKind::Pairing ? 1 : 2);
    }
    std::vector<LinkId> ordered;
    ordered.reserve(wires.size());
    for (std::uint8_t r = 0; r < 3; ++r) {
        for (std::size_t i = 0; i < wires.size(); ++i) {
            if (rank[i] == r)
                ordered.push_back(wires[i]);
        }
    }
    const int budget = data_->portBudget();
    for (LinkId id : ordered) {
        const net::Link &l = data_->graph.link(id);
        if (wireEnabled(id) || !wireDesired(id))
            continue;
        const bool is_ring_repair =
            ringUse(l.src, l.dst) ||
            (bidir() && ringUse(l.dst, l.src));
        if (data_->portsUsed[l.src] >= budget ||
            data_->portsUsed[l.dst] >= budget) {
            // Ring repairs may steal a port from a non-ring wire
            // (the topology switch re-targets the port); throughput
            // extras never do.
            if (!is_ring_repair)
                continue;
            if (!freePortAt(l.src, true) || !freePortAt(l.dst, true))
                continue;  // genuinely starved; stays dormant
            if (!freePortAt(l.src, false) ||
                !freePortAt(l.dst, false))
                continue;
        }
        enableWire(id);
        ++result.wiresEnabled;
        if (l.kind == net::LinkKind::Shortcut ||
            l.kind == net::LinkKind::Repair) {
            ++result.closuresEnabled;
            ++stats_.closuresEnabled;
        }
    }
}

std::vector<LinkId>
ReconfigEngine::incidentWires(const std::vector<NodeId> &nodes) const
{
    const net::Graph &g = data_->graph;
    std::vector<LinkId> wires;
    for (NodeId x : nodes) {
        wires.insert(wires.end(), g.outLinks(x).begin(),
                     g.outLinks(x).end());
        wires.insert(wires.end(), g.inLinks(x).begin(),
                     g.inLinks(x).end());
    }
    return wires;
}

std::vector<NodeId>
ReconfigEngine::tableScope(const std::vector<NodeId> &changed)
{
    // Every node within two enabled hops upstream of a changed
    // node (its table can hold a changed node as a 1- or 2-hop
    // entry): a two-layer reverse BFS with stamped membership.
    const net::Graph &g = data_->graph;
    const std::uint32_t stamp = freshStamp();
    std::vector<NodeId> scope;
    for (NodeId c : changed) {
        if (nodeMark_[c] != stamp) {
            nodeMark_[c] = stamp;
            scope.push_back(c);
        }
    }
    std::size_t layer_begin = 0;
    for (int depth = 0; depth < 2; ++depth) {
        const std::size_t layer_end = scope.size();
        for (std::size_t i = layer_begin; i < layer_end; ++i) {
            for (LinkId id : g.inLinks(scope[i])) {
                const net::Link &l = g.link(id);
                if (l.enabled && nodeMark_[l.src] != stamp) {
                    nodeMark_[l.src] = stamp;
                    scope.push_back(l.src);
                }
            }
        }
        layer_begin = layer_end;
    }
    return scope;
}

void
ReconfigEngine::rebuildTables(const std::vector<NodeId> &scope,
                              ReconfigResult &result)
{
    for (NodeId x : scope) {
        tables_->rebuildNode(x, data_->graph);
        ++result.tablesRebuilt;
        ++stats_.tableRebuilds;
    }
}

bool
ReconfigEngine::canGate(NodeId u) const
{
    if (!alive_[u] || numAlive_ <= 2)
        return false;
    for (std::size_t s = 0; s < liveNext_.size(); ++s) {
        const NodeId a = livePrev_[s][u];
        const NodeId b = liveNext_[s][u];
        if (a == u || a == b)
            continue;  // degenerate tiny ring
        if (data_->wireExists(a, b))
            continue;
        if (bidir() && data_->wireExists(b, a))
            continue;
        return false;  // no fabricated wire spans the hole
    }
    return true;
}

ReconfigResult
ReconfigEngine::gate(NodeId u)
{
    ReconfigResult result;
    if (!alive_[u])
        return result;
    result.applied = true;
    ++stats_.gateOps;
    const net::Graph &g = data_->graph;
    const int spaces = data_->spaces.numSpaces();

    // Nodes whose wires may change state: the victim, its wire
    // partners, and the hole edges of every space.
    std::vector<NodeId> changed{u};
    const auto note_node = [&](NodeId x) {
        if (std::find(changed.begin(), changed.end(), x) ==
            changed.end())
            changed.push_back(x);
    };
    for (LinkId id : g.outLinks(u))
        note_node(g.link(id).dst);
    for (LinkId id : g.inLinks(u))
        note_node(g.link(id).src);

    // Phase 1: block every table entry that refers to the victim.
    const auto pre_scope = tableScope(changed);
    for (NodeId x : pre_scope) {
        if (x != u) {
            tables_->table(x).setBlocking(u, true);
            ++stats_.entriesBlocked;
        }
    }

    // Phase 2a: unlink the victim from every live ring.
    struct Hole { NodeId a; NodeId b; };
    std::vector<Hole> holes;
    for (int s = 0; s < spaces; ++s) {
        const NodeId a = livePrev_[s][u];
        const NodeId b = liveNext_[s][u];
        liveNext_[s][a] = b;
        livePrev_[s][b] = a;
        if (a != u && a != b) {
            holes.push_back(Hole{a, b});
            note_node(a);
            note_node(b);
        }
    }
    alive_[u] = false;
    --numAlive_;

    // Phase 2b: drop the victim's wires, raise the spare wires.
    settleWires(incidentWires(changed), result);

    // Count rings this operation left open.
    for (const Hole &h : holes) {
        LinkId id = data_->findWire(h.a, h.b);
        if (bidir() && (id == kInvalidLink || !wireEnabled(id))) {
            const LinkId rev = data_->findWire(h.b, h.a);
            if (rev != kInvalidLink)
                id = rev;
        }
        if (id == kInvalidLink || !wireEnabled(id)) {
            ++result.holes;
            ++stats_.holesCreated;
        }
    }

    // Phases 3 + 4: re-validate (rebuild) every affected table;
    // fresh entries carry cleared blocking bits, which unblocks.
    auto scope = tableScope(changed);
    scope.insert(scope.end(), pre_scope.begin(), pre_scope.end());
    std::sort(scope.begin(), scope.end());
    scope.erase(std::unique(scope.begin(), scope.end()), scope.end());
    rebuildTables(scope, result);
    return result;
}

ReconfigResult
ReconfigEngine::ungate(NodeId u)
{
    ReconfigResult result;
    if (alive_[u])
        return result;
    result.applied = true;
    ++stats_.ungateOps;
    const net::Graph &g = data_->graph;
    const int spaces = data_->spaces.numSpaces();

    std::vector<NodeId> changed{u};
    const auto note_node = [&](NodeId x) {
        if (std::find(changed.begin(), changed.end(), x) ==
            changed.end())
            changed.push_back(x);
    };
    for (LinkId id : g.outLinks(u))
        note_node(g.link(id).dst);
    for (LinkId id : g.inLinks(u))
        note_node(g.link(id).src);
    const auto pre_scope = tableScope(changed);

    // Re-insert into every live ring between the nearest live
    // static neighbours; the old closure wire (if any) becomes a
    // candidate for removal.
    alive_[u] = true;
    ++numAlive_;
    for (int s = 0; s < spaces; ++s) {
        if (numAlive_ == 1) {
            liveNext_[s][u] = u;
            livePrev_[s][u] = u;
            continue;
        }
        NodeId a = u;
        for (std::size_t k = 1;; ++k) {
            a = data_->spaces.ringBehind(u, s, k);
            if (alive_[a])
                break;
        }
        const NodeId b = liveNext_[s][a];
        liveNext_[s][a] = u;
        livePrev_[s][u] = a;
        liveNext_[s][u] = b;
        livePrev_[s][b] = u;
        note_node(a);
        note_node(b);
    }

    settleWires(incidentWires(changed), result);

    // Holes left around the revived node (wire missing or starved).
    for (int s = 0; s < spaces; ++s) {
        for (const auto &[from, to] :
             {std::pair{livePrev_[s][u], u},
              std::pair{u, liveNext_[s][u]}}) {
            if (from == to)
                continue;
            LinkId id = data_->findWire(from, to);
            if (bidir() && (id == kInvalidLink || !wireEnabled(id))) {
                const LinkId rev = data_->findWire(to, from);
                if (rev != kInvalidLink)
                    id = rev;
            }
            if (id == kInvalidLink || !wireEnabled(id)) {
                ++result.holes;
                ++stats_.holesCreated;
            }
        }
    }

    auto scope = tableScope(changed);
    scope.insert(scope.end(), pre_scope.begin(), pre_scope.end());
    std::sort(scope.begin(), scope.end());
    scope.erase(std::unique(scope.begin(), scope.end()), scope.end());
    rebuildTables(scope, result);
    return result;
}

std::vector<NodeId>
ReconfigEngine::gateRandom(std::size_t target, Rng &rng)
{
    std::vector<NodeId> order(data_->params.numNodes);
    std::iota(order.begin(), order.end(), 0u);
    rng.shuffle(order);

    std::vector<NodeId> gated;
    for (NodeId u : order) {
        if (gated.size() >= target || numAlive_ <= 8)
            break;
        if (!alive_[u] || !canGate(u))
            continue;
        const ReconfigResult r = gate(u);
        if (r.applied)
            gated.push_back(u);
    }
    return gated;
}

int
ReconfigEngine::currentHoles() const
{
    int holes = 0;
    for (std::size_t s = 0; s < liveNext_.size(); ++s) {
        for (NodeId a = 0; a < alive_.size(); ++a) {
            if (!alive_[a])
                continue;
            const NodeId b = liveNext_[s][a];
            if (b == a)
                continue;
            LinkId id = data_->findWire(a, b);
            if (id == kInvalidLink || !wireEnabled(id)) {
                if (bidir()) {
                    const LinkId rev = data_->findWire(b, a);
                    if (rev != kInvalidLink && wireEnabled(rev))
                        continue;
                }
                ++holes;
            }
        }
    }
    return holes;
}

std::string
ReconfigEngine::checkInvariants() const
{
    const net::Graph &g = data_->graph;
    std::ostringstream os;

    // Port accounting matches enabled wires; budgets respected.
    std::vector<int> ports(alive_.size(), 0);
    for (LinkId id = 0;
         id < static_cast<LinkId>(g.numLinks()); ++id) {
        const net::Link &l = g.link(id);
        if (!l.enabled || canonicalId(g, id) != id)
            continue;
        ++ports[l.src];
        ++ports[l.dst];
    }
    for (NodeId u = 0; u < alive_.size(); ++u) {
        if (ports[u] != data_->portsUsed[u]) {
            os << "port count mismatch at node " << u << ": "
               << ports[u] << " vs " << data_->portsUsed[u];
            return os.str();
        }
        if (ports[u] > data_->portBudget()) {
            os << "port budget exceeded at node " << u;
            return os.str();
        }
        if (!alive_[u] && ports[u] != 0) {
            os << "gated node " << u << " still has enabled wires";
            return os.str();
        }
    }

    // Every enabled wire serves a purpose.
    for (LinkId id = 0;
         id < static_cast<LinkId>(g.numLinks()); ++id) {
        const net::Link &l = g.link(id);
        if (!l.enabled || canonicalId(g, id) != id)
            continue;
        if (!wireDesired(id) &&
            !(l.pairId != kInvalidLink && wireDesired(l.pairId))) {
            os << "enabled wire " << id << " (" << l.src << "->"
               << l.dst << ") serves no purpose";
            return os.str();
        }
    }

    // Live ring lists are permutations of the live set.
    for (std::size_t s = 0; s < liveNext_.size(); ++s) {
        NodeId start = kInvalidNode;
        for (NodeId u = 0; u < alive_.size(); ++u) {
            if (alive_[u]) {
                start = u;
                break;
            }
        }
        if (start == kInvalidNode)
            continue;
        std::size_t count = 0;
        NodeId at = start;
        do {
            if (!alive_[at]) {
                os << "dead node " << at << " on live ring " << s;
                return os.str();
            }
            if (livePrev_[s][liveNext_[s][at]] != at) {
                os << "ring list corrupt at node " << at
                   << " space " << s;
                return os.str();
            }
            at = liveNext_[s][at];
            ++count;
        } while (at != start && count <= alive_.size());
        if (count != numAlive_) {
            os << "live ring " << s << " visits " << count
               << " nodes, expected " << numAlive_;
            return os.str();
        }
    }
    return {};
}

} // namespace sf::core

/**
 * @file
 * Cycle-level network model: virtual cut-through routers with
 * per-VC buffering, credit-limited forwarding, congestion-adaptive
 * output selection, escape channels, and a deadlock watchdog.
 *
 * Router microarchitecture (one per memory node):
 *  - one input unit per incoming link, holding V virtual channels of
 *    @c vcDepth flits each;
 *  - a source queue (terminal/processor port) injecting at one flit
 *    per cycle;
 *  - one ejection port delivering at one flit per cycle;
 *  - per cycle, each input port forwards at most one packet and each
 *    output link accepts at most one packet (crossbar constraints),
 *    chosen round-robin for fairness;
 *  - virtual cut-through: a packet moves only when the downstream VC
 *    has room for all its flits; the link then serialises it at one
 *    flit per cycle, plus wire latency and SerDes delay.
 *
 * Virtual channel map per input port:
 *    [0, C)            normal VCs: msgClass x topology vcClass
 *    [C, C+4)          escape VCs: msgClass x dateline parity
 * where C = numVcClasses() * 2. Escape routing follows the
 * topology's scheme (up*-down* or dateline ring); packets switch to
 * escape after a head-of-line wait threshold and stay there, which
 * keeps the escape network's channel dependencies acyclic.
 *
 * Data plane: the hot path is allocation-free in steady state.
 * Packets live in a slab pool (packet_pool.hpp) and every queue —
 * source FIFOs, per-VC buffers, the arrival queue — holds 32-bit
 * slot indices chained intrusively through the pool. Routing writes
 * candidates straight into the packet record via the span-based
 * Topology::routeCandidates, so no per-hop vector exists.
 *
 * The arrival queue is a binary min-heap of 24-byte entries driven
 * by std::push_heap / std::pop_heap with the same at-only ordering
 * the original std::priority_queue<Arrival> used. That keeps the
 * pop order of same-cycle arrivals bit-for-bit identical to the
 * historical engine — the tie order is load-bearing, because it
 * decides the round-robin order of newly activated VCs and routers.
 * (A cycle-bucketed FIFO calendar ring was prototyped and measured:
 * it lands O(1) but reorders same-cycle ties, which changes
 * simulated events and breaks byte-identical reports, so it was
 * rejected. With pooled packets the heap sifts 24-byte PODs over a
 * bounded horizon of flits + wire latency + SerDes cycles, so the
 * sift cost is a few word moves, not ~100-byte Packet copies.)
 *
 * Sharded route plane (cfg.shards > 1 + setRouteExecutor): the one
 * part of a cycle that is a pure function of immutable state — the
 * greedy route computation of every cycle-start head packet, ~3/4
 * of near-saturation runtime at n=1024 — is partitioned spatially:
 * nodes map to shards in contiguous blocks, each shard owns its
 * nodes' head packets, and the shards fill in Packet::candidates
 * concurrently on Executor threads between the arrival-landing and
 * arbitration phases (a cycle barrier: runAll returns before any
 * serial state advances). Everything whose *order* is load-bearing
 * stays on the serial commit path, because the engine's total event
 * order is defined by it: the global arrival heap's push
 * interleaving (pop ties replay insertion structure), the
 * activeNodes_ walk with its swap-removal compaction (same-cycle
 * neighbour drain-then-reserve ordering), escape escalation (its
 * stats can land in a report mid-window), drops, deliveries, and
 * every RNG draw. Because a precomputed route is the same pure
 * function the serial loop would evaluate at its own point in the
 * cycle — the topology is immutable *within an epoch* and a head's
 * (node, dst, hops, escape) inputs cannot change before the loop
 * consumes or invalidates the cache — the sharded engine is
 * event-for-event identical to the serial one at every shard
 * count, and the partition never appears in results.
 *
 * Topology generations: a reconfig (onTopologyChanged) advances an
 * epoch counter instead of disabling anything. Reconfig events
 * apply serially at a cycle barrier (between step() calls, before
 * injection), so each epoch's route plane shards against an
 * immutable-within-epoch snapshot and routing stays a pure
 * per-epoch function. The one cross-epoch hazard is a precomputed
 * route the serial loop deferred: the sharded plane may mark a
 * head routed that arbitration skips this cycle (input port busy),
 * and a route carried across the boundary would be the *previous*
 * epoch's pure function. The epoch barrier therefore clears the
 * routed flag on every queue head — routes never outlive their
 * epoch, both engines recompute against the new topology, and
 * byte-identity across shard counts survives reconfiguration.
 *
 * Memoized route plane (cfg.routeCache + enableRouteCache): the
 * same purity argument lets the greedy route computation be cached
 * outright in per-topology next-hop tables (core/route_cache.hpp)
 * instead of re-derived per head-packet cycle — a cached value is
 * the identical pure function's output, so the event stream is
 * byte-identical with the cache on or off, at any shard count.
 * Rows are keyed by the `current` node: under sharding a shard
 * only looks up its own contiguous node block, and the serial loop
 * only touches the cache outside the route phase (the executor
 * barrier), so the lazy fills are single-writer per row and need
 * no atomics. The cache outlives reconfiguration: at each epoch
 * boundary onTopologyChanged revalidates it (counted in
 * NetStats::routeCacheRebuilds), keeping the rows of every node
 * whose net::Topology::routeVersion did not move and dropping the
 * rest, so memoization stays engaged across reconfig boundaries
 * and every cached row is the current epoch's answer.
 *
 * Routing-policy seam (cfg.policy + core/routing_policy.hpp): every
 * normal-VC route query goes through one RoutingPolicy::route()
 * call. The greedy policy delegates straight to the topology's own
 * routeCandidates, so routing through the seam is the incumbent
 * behaviour byte for byte. Adaptive policies additionally read a
 * CongestionSnapshot — per-link queued flits summed over VCs —
 * filled exactly once per cycle in step(), after arrivals land and
 * before any route is computed (the same barrier the sharded route
 * plane fans out from). Freezing the snapshot there keeps every
 * policy a pure per-cycle function: the serial loop, the sharded
 * route plane, and any shard count all read identical inputs, so
 * reports stay byte-identical across shards for every policy. The
 * route cache only engages for policies that are pure functions of
 * (node, dest, first_hop) — its exact key space; congestion-aware
 * decisions are uncacheable by construction and enableRouteCache
 * refuses them (see docs/routing_policies.md).
 *
 * Phase-pipeline cycle engine (docs/engine_phases.md): step() is an
 * explicit five-phase pipeline — Land → Snapshot → Route →
 * Arbitrate(decide) → Commit. Arbitration is split per node into a
 * *decide* stage and a *commit* stage. Decide mutates only state
 * this node exclusively owns (its input-VC FIFOs and reservations,
 * its input/output link grants, its ejection/source ports, the
 * head packets themselves) and buffers every global or cross-node
 * effect — downstream VC reservations, arrival-heap pushes,
 * deliveries, drops, pool releases, shared stats counters — into
 * an ordered per-node effect set (NodeEffects). Commit replays
 * effect sets serially in exact activeNodes_ σ-order (the dynamic
 * swap-removal walk), so the arrival heap's push interleaving and
 * the same-cycle neighbour drain/reserve ordering — the PR 5
 * total-event-order constraint — are reproduced byte-for-byte.
 * Decide's one cross-node read is downstream VC occupancy on its
 * own out-links (the VCT admission check), satisfied from
 * committed state plus a local overlay of the node's own pending
 * reservations this cycle — exactly the values the interleaved
 * loop read.
 *
 * Commit-wavefront scheduler (cfg.wavefront > 0 +
 * setWavefrontExecutor): because decide's only cross-node input is
 * written by graph-adjacent σ-predecessors' commits, decide stages
 * may run concurrently on Executor workers once those predecessors
 * have committed. The walk order is pre-sequenced against a
 * virtual copy of activeNodes_ using a decide-free removal
 * classification (a listed VC holding ≥ 2 packets, or ≥ 2 queued
 * source packets, pins a node active — at most one packet leaves
 * per input port and per source port per cycle; all-empty pins it
 * removed; anything else pauses sequencing until that node's own
 * decide resolves the real bit — and when the topology has gated
 * nodes the ≥ 2 VC rule is downgraded too, because unroutable
 * drops can empty a deeper FIFO in one cycle). A ring of
 * cfg.wavefront decide jobs carries ABA-safe position-tagged
 * states; workers claim jobs whose σ-predecessor commit count has
 * been reached (acquire on the commit counter pairs with the
 * driver's release after each commit), and the driver task commits
 * strictly in σ-order, running any still-unclaimed job inline so
 * the walk never deadlocks. The schedule changes *wall-clock*
 * interleaving only — every simulated event replays in σ-order —
 * so reports are byte-identical at every wavefront width,
 * including 0 (the plain serial decide→commit loop).
 *
 * Sleep/wake arbitration (docs/engine_phases.md): a failed forward
 * attempt has no side effects, so decide records when each blocked
 * head could next move (busy link, busy ejection port, or full
 * downstream VC until a drain) and skips attempts that provably
 * fail. A router whose every head holds such a proof sleeps until
 * the earliest one expires or a wake event arrives (landing,
 * inject, drain, reconfiguration). The drain signal crosses nodes,
 * so decide buffers it and commit applies it, in σ-order like
 * every other cross-node effect. The escape tables belong to the
 * topology (net::Topology::upDownRouting), shared by every model
 * on it.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "core/route_cache.hpp"
#include "core/routing_policy.hpp"
#include "net/rng.hpp"
#include "net/topology.hpp"
#include "net/updown.hpp"
#include "sim/executor.hpp"
#include "sim/packet.hpp"
#include "sim/packet_pool.hpp"
#include "sim/sim_config.hpp"
#include "sim/stats.hpp"

namespace sf::sim {

/** The simulated network: all routers, links, and queues. */
class NetworkModel
{
  public:
    /** Called when a packet fully ejects at its destination. */
    using DeliverHandler =
        std::function<void(const Packet &, Cycle)>;

    /**
     * Called when a packet is dropped because its destination was
     * gated away mid-flight (reconfiguration); callers typically
     * reissue the operation to the address's new owner.
     */
    using DropHandler = std::function<void(const Packet &, Cycle)>;

    NetworkModel(const net::Topology &topo, const SimConfig &cfg);

    /**
     * Queue a packet at @p src's terminal port. Packets with
     * src == dst bypass the network and deliver next cycle.
     */
    void inject(NodeId src, NodeId dst, int flits, MsgClass mc,
                Cycle now, std::uint64_t payload = 0,
                bool measured = false);

    /** Advance the network by one cycle. */
    void step(Cycle now);

    /** Packets injected but not yet delivered or dropped. */
    std::uint64_t inFlight() const;

    /** Total packets waiting in source queues (saturation signal).
     *  O(1): maintained at inject/dequeue, never recounted. */
    std::uint64_t sourceQueueBacklog() const
    {
        return sourceBacklog_;
    }

    /**
     * Called after step(@p now): a lower bound on
     * sourceQueueBacklog() after step(@p check), for any
     * @p check > @p now, whatever is injected in between, provided
     * no packet shorter than every packet injected so far is
     * injected (README, "Probes stop at their verdict").
     *
     * Injection only grows a source FIFO, and a terminal-port
     * forward keeps the port busy for the packet's flits, so node u
     * forwards at most D_u = ceil((check - first_u + 1) / f_min)
     * packets, with first_u = max(now + 1, its port's busy-until
     * cycle) and f_min the shortest packet seen; the floor is
     * sum_u max(0, q_u - D_u). A source drop leaves the port free,
     * and drops need a gated node, so with any node gated the floor
     * is 0. O(n).
     */
    std::uint64_t sourceBacklogFloor(Cycle now, Cycle check) const;

    /** No buffered, queued, or in-flight traffic touches @p u. */
    bool nodeQuiescent(NodeId u) const;

    /** Statistics. */
    const NetStats &stats() const { return stats_; }
    NetStats &stats() { return stats_; }

    void setDeliverHandler(DeliverHandler handler)
    {
        onDeliver_ = std::move(handler);
    }

    void setDropHandler(DropHandler handler)
    {
        onDrop_ = std::move(handler);
    }

    /**
     * Advance the topology generation after a reconfiguration:
     * escape tables rebuild lazily, every queue-head route is
     * invalidated (precomputed routes must not outlive their
     * epoch — see the file header), and the memoized route plane
     * drops the rows of every node whose routing changed. The
     * sharded route plane stays enabled: each epoch shards against
     * an immutable-within-epoch snapshot. Must be called serially
     * at a cycle barrier (never mid-step).
     */
    void onTopologyChanged();

    /** Current topology generation (onTopologyChanged calls). */
    std::uint64_t topologyEpoch() const
    {
        return stats_.topologyEpochs;
    }

    /**
     * Enable the sharded route plane (see the file header): with
     * cfg.shards > 1, each step() fans the cycle-start head-packet
     * route computations out over @p executor in cfg.shards spatial
     * node partitions. Pass nullptr (or leave cfg.shards at 1) for
     * the exact serial engine. The executor must outlive the model.
     * Results are byte-identical either way and at any shard count.
     */
    void setRouteExecutor(Executor *executor);

    /**
     * Enable the commit-wavefront scheduler (see the file header):
     * with cfg.wavefront > 0, each step()'s arbitration phase
     * pipelines per-node decide stages onto @p executor while the
     * calling side commits effect sets in exact serial σ-order.
     * Pass nullptr (or leave cfg.wavefront at 0) for the serial
     * decide→commit loop. The executor must outlive the model.
     * Results are byte-identical either way and at any width.
     *
     * While the wavefront walk is in flight, inject() is forbidden
     * (delivery/drop handlers must buffer and inject between
     * steps, which every workload already does — the packet pool's
     * slab vector may grow during alloc and decide stages read it
     * concurrently).
     */
    void setWavefrontExecutor(Executor *executor);

    /**
     * Enable the memoized route plane (see the file header): greedy
     * route lookups go through a lazily-filled core::RouteCache
     * instead of the virtual topology call. No-op when
     * cfg.routeCache is off or the topology cannot be
     * index-encoded. Supported at any epoch, including after
     * reconfigurations: the cache memoizes the current epoch's
     * topology, and onTopologyChanged revalidates it at each epoch
     * boundary. Byte-identical results either way.
     */
    void enableRouteCache();

    /** Is the memoized route plane currently engaged? (tests) */
    bool routeCacheActive() const { return routeCache_ != nullptr; }

    /** The active routing policy (never null). */
    const core::RoutingPolicy &routingPolicy() const
    {
        return *policy_;
    }

    /** The configured topology. */
    const net::Topology &topology() const { return *topo_; }

    /**
     * The up*-down* escape tables this model routes with: fetched
     * from the topology on first use and held until
     * onTopologyChanged, so a gate the model has not been told
     * about yet cannot swap tables under it.
     */
    const net::UpDownRouting &upDownRouting();

    /**
     * Where every live packet currently sits — a full walk of the
     * engine's queues, for conservation-invariant tests. The sum of
     * the four locations must equal both liveSlots and inFlight()
     * at every step boundary.
     */
    struct Accounting {
        std::uint64_t sourceQueued = 0;  ///< terminal-port FIFOs
        std::uint64_t vcBuffered = 0;    ///< per-VC input buffers
        std::uint64_t onLinks = 0;       ///< arrival queue (in wire)
        std::uint64_t localPending = 0;  ///< src == dst loopbacks
        std::uint64_t liveSlots = 0;     ///< pool slots claimed

        std::uint64_t
        total() const
        {
            return sourceQueued + vcBuffered + onLinks +
                   localPending;
        }
    };

    /** Audit packet conservation (walks every queue; test-only). */
    Accounting audit() const;

  private:
    /**
     * One virtual-channel input buffer (flat per link x VC). Kept at
     * 32 bytes — two per cache line — because the arbitration scan
     * walks these records every cycle. flitsReserved fits 16 bits
     * because the VCT admission check caps it at cfg.vcDepth (the
     * constructor rejects larger depths).
     */
    struct VcState {
        PacketFifo fifo;
        std::int16_t flitsReserved = 0;  ///< incl. packets in flight
        bool inActiveList = false;       ///< O(1) activeVcs_ member?
        Cycle headSince = 0;
        LinkId link = kInvalidLink;      ///< owning input port
        /** The head cannot move before this cycle (low 32 bits,
         *  compared with wrap-around; see proofHolds) unless a
         *  drain or a reconfiguration discards the proof. */
        std::uint32_t proofUntil = 0;
    };
    static_assert(sizeof(VcState) == 32, "VcState must stay 32 bytes");

    /** A packet in flight on a link (or a local loopback). */
    struct Arrival {
        Cycle at;
        std::uint32_t slot;       ///< pool index of the packet
        LinkId link;              ///< kInvalidLink for loopbacks
        std::int32_t vcIndex;

        /** Heap order: earliest arrival first — at only, exactly
         *  like the historical priority_queue (tie order matters). */
        bool operator>(const Arrival &o) const { return at > o.at; }
    };

    int totalVcs() const { return escapeBase_ + 4; }
    int normalVcIndex(const Packet &p) const
    {
        return p.msgClass * topo_->numVcClasses() + p.vcClass;
    }
    int escapeVcIndex(const Packet &p) const
    {
        return escapeBase_ + p.msgClass * 2 + p.escapeVcBit;
    }
    /** VC index the packet occupies downstream of link @p l. */
    int downstreamVcIndex(const Packet &p) const
    {
        return p.escape ? escapeVcIndex(p) : normalVcIndex(p);
    }

    /** Flat VcState index of (link, vc). */
    std::size_t
    vcStateIndex(LinkId link, int vc_index) const
    {
        return static_cast<std::size_t>(link) *
                   static_cast<std::size_t>(totalVcs()) +
               static_cast<std::size_t>(vc_index);
    }

    /** One unit of route-plane work: the head packet in @p slot is
     *  parked at @p node and needs greedy candidates. */
    struct RouteJob {
        std::uint32_t slot;
        NodeId node;
    };

    /**
     * One buffered global effect of a node's decide stage, replayed
     * verbatim by commitNode in decision order. Everything the
     * effect needs beyond these fields is read from the packet
     * record at commit time — decide is the slot's last writer
     * until the commit, so the reads are exact.
     */
    struct PendingOp {
        enum Kind : std::uint8_t {
            kForward,        ///< hop: reserve downstream + arrival
            kSourceForward,  ///< kForward + source-backlog decrement
            kEject,          ///< delivered at the destination
            kDrop,           ///< unroutable VC head dropped
            kSourceDrop,     ///< unroutable source head dropped
        };
        Kind kind;
        std::int32_t vcIndex;  ///< downstream VC (forwards)
        std::uint32_t slot;    ///< pool slot of the packet
        LinkId link;           ///< output link (forwards)
        Cycle at;              ///< arrival / delivery cycle
    };

    /**
     * The buffered effect set of one node's decide stage: the
     * ordered global ops plus additive stat deltas, and decide's
     * private overlay of its own not-yet-committed downstream
     * reservations (flat VcState index → reserved flits) so the
     * VCT admission check sees exactly what the interleaved loop
     * saw. Cleared and reused — steady state allocates nothing.
     */
    struct NodeEffects {
        std::vector<PendingOp> ops;
        std::uint64_t escapeTransfers = 0;
        bool progressed = false;
        std::vector<std::uint32_t> resVc;
        std::vector<int> resFlits;
        /** Upstream node of every input VC this decide popped: the
         *  drain signal, applied to drainCount_ at commit. */
        std::vector<NodeId> drains;
        // Work counters (NetStats), added at commit.
        std::uint64_t forwardAttempts = 0;
        std::uint64_t headsSkipped = 0;
        bool slept = false;

        void
        clear()
        {
            ops.clear();
            escapeTransfers = 0;
            progressed = false;
            resVc.clear();
            resFlits.clear();
            drains.clear();
            forwardAttempts = 0;
            headsSkipped = 0;
            slept = false;
        }
    };

    /** One slot of the wavefront decide-job ring. `tag` packs the
     *  σ-position with a lifecycle phase (pos * 4 + phase) so a
     *  recycled slot can never be claimed for a stale position. */
    struct WavefrontJob {
        std::atomic<std::uint64_t> tag{0};
        NodeId node = 0;
        /** Atomic because a worker that observed kReady may read
         *  it after the slot was recycled for a later position; the
         *  stale value is then harmless (the exact-tag CAS fails),
         *  but the read must not be a data race. */
        std::atomic<std::uint32_t> needCommits{0};
        NodeEffects fx;
    };

    // Phase pipeline (see the file header / docs/engine_phases.md).
    void phaseLand(Cycle now);
    void phaseSnapshot(Cycle now);
    void phaseRoute(Cycle now);
    void phaseArbitrate(Cycle now);
    void phaseArbitrateSerial(Cycle now, bool time_phases);
    void phaseArbitrateWavefront(Cycle now);
    void wavefrontDriver();
    void wavefrontWorker();

    /**
     * Arbitration decide stage for @p node: the exact per-node
     * decision sequence of the historical interleaved loop, with
     * every global effect buffered into @p fx instead of applied.
     * Mutates only node-owned state; safe to run concurrently for
     * nodes whose graph-adjacent σ-predecessors have committed.
     * A sleeping router returns at once (see "Sleep/wake
     * arbitration" in docs/engine_phases.md).
     */
    void decideNode(NodeId node, Cycle now, NodeEffects &fx);
    /** The scan of decideNode: every listed VC head, then the
     *  terminal port. */
    void decideHeads(NodeId node, Cycle now, NodeEffects &fx);
    /**
     * After a decide without progress: the cycle until which every
     * head of @p node provably stays blocked (derived from the
     * final activeVcs_ list, not from the scan), or 0 when some
     * head holds no proof.
     */
    Cycle sleepUntil(NodeId node, Cycle now) const;
    /** Serial σ-order replay of one node's buffered effect set. */
    void commitNode(NodeId node, Cycle now, NodeEffects &fx);
    /** Committed + this node's pending downstream reservation. */
    int reservedWithOverlay(const NodeEffects &fx,
                            std::size_t flat) const;
    /**
     * Decide-free removal prediction for the wavefront sequencer:
     * will the post-arbitration removal check pull @p node out of
     * activeNodes_ this cycle?
     */
    enum class RemovalClass : std::uint8_t {
        kStays,
        kRemoved,
        kUncertain
    };
    RemovalClass classifyRemoval(NodeId node) const;
    /**
     * Sharded route plane, between arrival landing and arbitration:
     * collect every cycle-start head the serial loop would route
     * through the pure greedy fast path this cycle (or a later one)
     * and fill in its candidates concurrently, one spatial node
     * partition per shard. Heads on the order-sensitive paths —
     * escape escalation due, dead destination, already routed —
     * are left for the serial loop untouched.
     */
    void precomputeRoutes(Cycle now);
    /** Compute one shard's collected routes (runs on any thread;
     *  writes only to its own jobs' Packet records). */
    void routeShard(std::size_t shard);
    /**
     * Compute (or escalate) the route of head packet @p p at
     * @p node. Runs inside decide: an escape escalation is counted
     * into @p fx, not the shared stats.
     *
     * @return False when the packet must be dropped (destination
     *         gated away and unreachable).
     */
    bool computeRoute(NodeId node, Packet &p, Cycle now,
                      NodeEffects &fx);
    /**
     * The fast-path lookup both route planes share: fill @p p's
     * candidates for its next hop from @p node, through the route
     * cache when one is engaged, through the policy seam otherwise
     * (for greedy the two are the same pure function).
     *
     * @return Number of candidates written into p.candidates.
     */
    std::size_t routeCandidatesFor(NodeId node, Packet &p);
    /** Freeze this cycle's CongestionSnapshot (per-link queued
     *  flits summed over VCs). Called once per step(), before any
     *  route is computed; only when the policy reads it. */
    void fillCongestionSnapshot();
    /**
     * Decide whether head packet @p p (pool slot @p slot) moves one
     * hop or ejects this cycle. Own-state link/port bookkeeping is
     * applied directly; the cross-node consequences (reservation,
     * arrival push, delivery) are buffered into @p fx.
     *
     * A failed attempt has no side effects beyond clearing a stale
     * route, so it yields a proof: @p blocked_until is the earliest
     * cycle at which the head could move, as long as no downstream
     * VC drains first (`now` when there is no proof).
     *
     * @return True when the packet left this router.
     */
    bool tryForward(NodeId node, Packet &p, std::uint32_t slot,
                    Cycle now, bool from_source, NodeEffects &fx,
                    Cycle &blocked_until);
    void activateNode(NodeId node);
    void recordDelivery(const Packet &p, Cycle delivered_at);
    void pushArrival(std::vector<Arrival> &heap, Arrival a);
    void popArrival(std::vector<Arrival> &heap);

    const net::Topology *topo_;
    SimConfig cfg_;
    int escapeBase_;

    PacketPool pool_;

    std::vector<Cycle> linkBusyUntil_;   ///< per link
    std::vector<Cycle> outputGrantAt_;   ///< per link
    std::vector<Cycle> inputGrantAt_;    ///< per link (as input port)
    /** VC buffers at each link's destination, flattened to one
     *  contiguous array: index link * totalVcs() + vc. */
    std::vector<VcState> vcs_;
    std::vector<PacketFifo> sourceQueue_;  ///< per node
    std::uint64_t sourceBacklog_ = 0;
    /** Shortest packet injected so far (sourceBacklogFloor). */
    int minFlits_ = std::numeric_limits<int>::max();
    std::vector<Cycle> sourceBusyUntil_;
    std::vector<Cycle> ejectBusyUntil_;
    std::vector<std::uint32_t> pendingArrivals_;  ///< per node

    // Sleep/wake arbitration (docs/engine_phases.md), per node.
    /** Proof for the terminal-port head (as VcState::proofUntil). */
    std::vector<std::uint32_t> sourceProof_;
    /** The router sleeps while now < wakeAt_ and no drain arrived. */
    std::vector<Cycle> wakeAt_;
    /** Drains of VCs fed by the node's out-links (bumped at commit
     *  by the downstream node) and the count its proofs saw. */
    std::vector<std::uint32_t> drainCount_;
    std::vector<std::uint32_t> drainSeen_;

    /** Flat VcState indices that may hold a head packet, per node. */
    std::vector<std::vector<std::uint32_t>> activeVcs_;
    std::vector<std::uint8_t> nodeActive_;
    std::vector<NodeId> activeNodes_;

    /** Min-heaps ordered by Arrival::operator> (see file header). */
    std::vector<Arrival> arrivals_;
    /** Local (src == dst) deliveries scheduled for the next cycle. */
    std::vector<Arrival> localDeliveries_;

    // Sharded route plane (inert unless setRouteExecutor was
    // called with cfg_.shards > 1; see the file header).
    Executor *routeExecutor_ = nullptr;
    /** Per-shard job lists, cleared (capacity kept) every cycle. */
    std::vector<std::vector<RouteJob>> routeWork_;
    /** Reusable shard tasks, built once (steady state allocates
     *  nothing, matching the rest of the data plane). */
    std::vector<std::function<void()>> routeTasks_;

    /** Memoized route plane (null = direct virtual calls). */
    std::unique_ptr<core::RouteCache> routeCache_;
    /** The routing-policy seam (never null; greedy by default). */
    std::unique_ptr<core::RoutingPolicy> policy_;
    /** Per-link queued-flit totals frozen at the cycle barrier;
     *  sized once (only for congestion-aware policies). */
    std::vector<std::uint32_t> congestionFlits_;
    /** Read-only view over congestionFlits_ handed to route(). */
    core::CongestionSnapshot congestion_;

    // Commit-wavefront cost model (cfg_.profileWavefront): per-node
    // scratch for the dependency-depth recurrence, sized lazily.
    std::vector<Cycle> wfStamp_;          ///< cycle of last arb
    std::vector<std::uint32_t> wfDepth_;  ///< chain depth then

    /** Reused effect set of the serial decide→commit loop. */
    NodeEffects serialFx_;

    // Commit-wavefront scheduler (inert unless setWavefrontExecutor
    // was called with cfg_.wavefront > 0; see the file header).
    Executor *wavefrontExecutor_ = nullptr;
    /** Decide-job ring, cfg_.wavefront slots (non-copyable). */
    std::vector<std::unique_ptr<WavefrontJob>> wfJobs_;
    /** Reusable driver + worker tasks, built once. */
    std::vector<std::function<void()>> wfTasks_;
    /** σ-positions committed so far this cycle (driver releases
     *  after each commit; workers acquire before eligible claims —
     *  the happens-before edge the VCT cross-node reads ride). */
    std::atomic<std::uint32_t> wfCommitted_{0};
    /** σ-positions whose job slots have been filled (kReady). */
    std::atomic<std::uint32_t> wfDispatched_{0};
    /** Walk finished; workers drain and return. */
    std::atomic<bool> wfWalkDone_{false};
    /** The cycle the in-flight walk arbitrates (tasks are built
     *  once and cannot capture per-call locals). */
    Cycle wfNow_ = 0;
    /** Decide stages may be running on workers: inject() throws. */
    bool wfInWalk_ = false;
    /** True when the current topology epoch has gated nodes —
     *  unroutable drops become possible, so neither the ≥ 2-packet
     *  VC stay-rule of classifyRemoval nor sourceBacklogFloor is
     *  sound. */
    bool anyGated_ = false;
    // Sequencer scratch (reused; steady state allocates nothing).
    std::vector<NodeId> wfSlice_;      ///< virtual activeNodes_ walk
    std::vector<NodeId> wfSeqNodes_;   ///< σ-sequenced nodes
    std::vector<std::uint32_t> wfSeqNeed_;  ///< commits needed
    /** Predicted removal bit per σ-position (0 stay, 1 removed,
     *  2 resolved-at-decide); checked against reality at commit. */
    std::vector<std::uint8_t> wfSeqPred_;
    std::vector<Cycle> wfSeqStamp_;    ///< per-node: sequenced cycle
    std::vector<std::uint32_t> wfSeqIdx_;  ///< per-node: σ-position

    /** This generation's escape tables (see upDownRouting()). */
    std::shared_ptr<const net::UpDownRouting> escapeTables_;
    DeliverHandler onDeliver_;
    DropHandler onDrop_;
    NetStats stats_;
    Rng rng_;
    std::uint64_t nextPacketId_ = 1;
    std::uint64_t dropped_ = 0;
    Cycle lastProgress_ = 0;
};

} // namespace sf::sim

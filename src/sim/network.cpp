#include "sim/network.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace sf::sim {

namespace {

/** Comparator handed to the std heap algorithms: min-heap on at.
 *  Must stay at-only — the equal-key permutation the std heap
 *  produces is part of the engine's deterministic behaviour. */
const auto kLaterFirst = [](const auto &a, const auto &b) {
    return a > b;
};

/**
 * Route-plane fan-out floor: below this many collected jobs the
 * shards run inline on the calling thread — an Executor batch
 * costs more than the routes at light load. Results are identical
 * either way (the jobs are pure), so the threshold is a pure
 * wall-clock knob.
 */
constexpr std::size_t kRoutePhaseMinJobs = 32;

/**
 * Wavefront fan-out floor: below this many active nodes the
 * arbitration phase runs the serial decide→commit loop even when a
 * wavefront executor is set — an Executor batch costs more than the
 * walk at light load. Results are identical either way (the commit
 * replay is σ-ordered in both paths), so the threshold is a pure
 * wall-clock knob. Low enough that n = 64 test topologies exercise
 * the parallel path near saturation.
 */
constexpr std::size_t kWavefrontMinWalk = 32;

/** Lifecycle phases packed into WavefrontJob::tag (pos * 4 + phase).
 *  Tag transitions for one σ-position: Ready → Claimed → Done; a
 *  refilled ring slot carries a strictly larger position, so a CAS
 *  on the exact observed tag can never claim a stale job (no ABA). */
constexpr std::uint64_t kWfReady = 1;
constexpr std::uint64_t kWfClaimed = 2;
constexpr std::uint64_t kWfDone = 3;

/**
 * Longest proof a blocked head may hold (cycles). A head blocked
 * only by full downstream VCs is blocked "until a drain", which has
 * no cycle bound; capping it keeps every proof far inside the
 * 32-bit wrap-around window (a proof is re-derived at least this
 * often), and an expiry only costs one re-check.
 */
constexpr Cycle kProofHorizon = Cycle(1) << 30;

/** Does a proof stored as @p until still block the head at @p t?
 *  Wrap-around compare on the low 32 bits (until - t < 2^31). */
bool
proofHolds(std::uint32_t until, Cycle t)
{
    return static_cast<std::int32_t>(
               until - static_cast<std::uint32_t>(t)) > 0;
}

/** The full cycle of a proof that holds at @p now. */
Cycle
proofCycle(std::uint32_t until, Cycle now)
{
    return now + (until - static_cast<std::uint32_t>(now));
}

std::uint64_t
elapsedNs(std::chrono::steady_clock::time_point from,
          std::chrono::steady_clock::time_point to)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to -
                                                             from)
            .count());
}

} // namespace

NetworkModel::NetworkModel(const net::Topology &topo,
                           const SimConfig &cfg)
    : topo_(&topo), cfg_(cfg),
      escapeBase_(topo.numVcClasses() * kNumMsgClasses),
      rng_(cfg.seed)
{
    if (cfg.vcDepth > std::numeric_limits<std::int16_t>::max())
        throw std::invalid_argument(
            "SimConfig::vcDepth exceeds the 16-bit VC occupancy "
            "counter");
    const std::size_t n = topo.numNodes();
    const std::size_t links = topo.graph().numLinks();
    linkBusyUntil_.assign(links, 0);
    outputGrantAt_.assign(links, Cycle(-1));
    inputGrantAt_.assign(links, Cycle(-1));
    vcs_.resize(links * static_cast<std::size_t>(totalVcs()));
    for (LinkId l = 0; l < static_cast<LinkId>(links); ++l) {
        for (int v = 0; v < totalVcs(); ++v)
            vcs_[vcStateIndex(l, v)].link = l;
    }
    sourceQueue_.resize(n);
    sourceBusyUntil_.assign(n, 0);
    ejectBusyUntil_.assign(n, 0);
    pendingArrivals_.assign(n, 0);
    sourceProof_.assign(n, 0);
    wakeAt_.assign(n, 0);
    drainCount_.assign(n, 0);
    drainSeen_.assign(n, 0);
    activeVcs_.resize(n);
    nodeActive_.assign(n, 0);
    if (cfg.profileWavefront) {
        wfStamp_.assign(n, 0);
        wfDepth_.assign(n, 0);
    }
    anyGated_ = false;
    for (NodeId u = 0; u < topo.numNodes(); ++u) {
        if (!topo.nodeAlive(u)) {
            anyGated_ = true;
            break;
        }
    }
    policy_ = core::makeRoutingPolicy(cfg.policy, topo);
    if (policy_->congestionAware()) {
        // Sized once; re-filled (never resized) each cycle, so the
        // snapshot view stays valid for the model's lifetime.
        congestionFlits_.assign(links, 0);
        congestion_ = core::CongestionSnapshot(congestionFlits_);
    }
}

void
NetworkModel::pushArrival(std::vector<Arrival> &heap, Arrival a)
{
    heap.push_back(a);
    std::push_heap(heap.begin(), heap.end(), kLaterFirst);
}

void
NetworkModel::popArrival(std::vector<Arrival> &heap)
{
    std::pop_heap(heap.begin(), heap.end(), kLaterFirst);
    heap.pop_back();
}

void
NetworkModel::inject(NodeId src, NodeId dst, int flits, MsgClass mc,
                     Cycle now, std::uint64_t payload, bool measured)
{
    if (wfInWalk_) {
        // Decide stages may be reading the packet pool on Executor
        // workers, and alloc() can grow the pool's slab vector.
        // Handlers must buffer and inject between steps (every
        // workload already does).
        throw std::logic_error(
            "NetworkModel::inject during the wavefront walk");
    }
    const std::uint32_t slot = pool_.alloc();
    stats_.poolHighWater = pool_.capacity();
    minFlits_ = std::min(minFlits_, flits);
    Packet &p = pool_.at(slot);
    p.id = nextPacketId_++;
    p.src = src;
    p.dst = dst;
    p.flits = static_cast<std::uint16_t>(flits);
    p.msgClass = mc;
    p.vcClass = static_cast<std::uint8_t>(topo_->vcClass(src, dst));
    p.createdAt = now;
    p.measured = measured;
    p.payload = payload;
    ++stats_.injectedPackets;
    stats_.injectedFlits += static_cast<std::uint64_t>(flits);
    if (src == dst) {
        // Local access: the terminal port loops straight back.
        p.enteredNetworkAt = p.createdAt;
        pushArrival(localDeliveries_,
                    Arrival{now + 1, slot, kInvalidLink, 0});
        return;
    }
    if (sourceQueue_[src].empty())
        sourceProof_[src] = static_cast<std::uint32_t>(now);
    sourceQueue_[src].push(pool_, slot);
    ++sourceBacklog_;
    wakeAt_[src] = 0;
    activateNode(src);
}

std::uint64_t
NetworkModel::inFlight() const
{
    return stats_.injectedPackets - stats_.deliveredPackets -
           dropped_;
}

std::uint64_t
NetworkModel::sourceBacklogFloor(Cycle now, Cycle check) const
{
    if (anyGated_ || check <= now)
        return 0;
    const Cycle f_min = static_cast<Cycle>(minFlits_);
    std::uint64_t floor = 0;
    for (NodeId u = 0; u < topo_->numNodes(); ++u) {
        const std::uint64_t queued = sourceQueue_[u].size;
        if (queued == 0)
            continue;
        const Cycle first = std::max(now + 1, sourceBusyUntil_[u]);
        const std::uint64_t departures =
            first > check ? 0 : (check - first + f_min) / f_min;
        if (queued > departures)
            floor += queued - departures;
    }
    return floor;
}

bool
NetworkModel::nodeQuiescent(NodeId u) const
{
    if (!sourceQueue_[u].empty() || pendingArrivals_[u] > 0)
        return false;
    for (LinkId id : topo_->graph().inLinks(u)) {
        for (int v = 0; v < totalVcs(); ++v) {
            if (vcs_[vcStateIndex(id, v)].flitsReserved > 0)
                return false;
        }
    }
    return true;
}

NetworkModel::Accounting
NetworkModel::audit() const
{
    Accounting acc;
    for (const PacketFifo &q : sourceQueue_)
        acc.sourceQueued += q.size;
    for (const VcState &vc : vcs_)
        acc.vcBuffered += vc.fifo.size;
    acc.onLinks = arrivals_.size();
    acc.localPending = localDeliveries_.size();
    acc.liveSlots = pool_.liveCount();
    return acc;
}

void
NetworkModel::onTopologyChanged()
{
    escapeTables_.reset();
    ++stats_.topologyEpochs;
    anyGated_ = false;
    for (NodeId u = 0; u < topo_->numNodes(); ++u) {
        if (!topo_->nodeAlive(u)) {
            anyGated_ = true;
            break;
        }
    }
    // Epoch barrier: a precomputed route is only provably the value
    // the serial loop would compute while the topology is immutable,
    // so no route may outlive its epoch. The sharded plane can have
    // marked heads routed that arbitration then skipped (input port
    // busy) — carried across the boundary those would be the old
    // epoch's pure function. routed is only ever true on queue
    // heads (tryForward clears it on every hop, arrivals enqueue
    // with it false), so clearing the heads of every active VC and
    // source FIFO invalidates every precomputed route; both engines
    // then recompute against the new topology and stay
    // event-for-event identical.
    for (const NodeId node : activeNodes_) {
        for (const std::uint32_t flat : activeVcs_[node]) {
            const VcState &vc = vcs_[flat];
            if (!vc.fifo.empty())
                pool_.at(vc.fifo.head).routed = false;
        }
        if (!sourceQueue_[node].empty())
            pool_.at(sourceQueue_[node].head).routed = false;
        // Every proof assumed the old candidates and link set: a
        // drain signal discards them at the node's next decide and
        // wakes it if it sleeps.
        ++drainCount_[node];
    }
    // The memoized plane follows the topology into the new epoch:
    // rows whose node's routing version did not move are still the
    // pure function's answers and stay; every other row is dropped
    // and refills lazily. Runs on the serial engine thread at a
    // cycle barrier (the route executor is quiescent between
    // steps), so the revalidation cannot race a route-plane shard.
    policy_->onTopologyChanged();
    if (routeCache_) {
        const core::RouteCache::Revalidation r =
            routeCache_->revalidate();
        stats_.routeCacheRowsKept += r.kept;
        stats_.routeCacheRowsDropped += r.dropped;
        ++stats_.routeCacheRebuilds;
    }
}

void
NetworkModel::setRouteExecutor(Executor *executor)
{
    routeExecutor_ =
        (executor && cfg_.shards > 1) ? executor : nullptr;
    routeWork_.clear();
    routeTasks_.clear();
    if (routeExecutor_)
        routeWork_.resize(static_cast<std::size_t>(cfg_.shards));
}

void
NetworkModel::setWavefrontExecutor(Executor *executor)
{
    wavefrontExecutor_ =
        (executor && cfg_.wavefront > 0) ? executor : nullptr;
    wfJobs_.clear();
    wfTasks_.clear();
    if (!wavefrontExecutor_)
        return;
    const std::size_t n = topo_->numNodes();
    const std::size_t width =
        static_cast<std::size_t>(cfg_.wavefront);
    wfJobs_.reserve(width);
    for (std::size_t i = 0; i < width; ++i)
        wfJobs_.push_back(std::make_unique<WavefrontJob>());
    wfSeqStamp_.assign(n, 0);
    wfSeqIdx_.assign(n, 0);
    // One driver (commits in σ-order, runs unclaimed decides
    // inline) plus width-1 opportunistic decide workers. WorkPool
    // hands tasks out in submission order and the caller
    // participates, so even with every worker thread busy
    // elsewhere the driver alone completes the walk.
    wfTasks_.reserve(width);
    wfTasks_.push_back([this] { wavefrontDriver(); });
    for (std::size_t i = 1; i < width; ++i)
        wfTasks_.push_back([this] { wavefrontWorker(); });
}

void
NetworkModel::enableRouteCache()
{
    // A cache entry is keyed by (node, dest, first_hop) only — a
    // CongestionSnapshot can never be part of the key (it changes
    // every cycle), so only policies whose decisions are pure
    // functions of that key space may be memoized. Adaptive
    // policies therefore keep the cache disengaged for good.
    if (!cfg_.routeCache || routeCache_ || !policy_->cacheable())
        return;
    auto cache = std::make_unique<core::RouteCache>(*topo_);
    if (cache->active())
        routeCache_ = std::move(cache);
}

std::size_t
NetworkModel::routeCandidatesFor(NodeId node, Packet &p)
{
    if (routeCache_)
        return routeCache_->candidates(node, p.dst, p.hops == 0,
                                       p.candidates);
    return policy_->route(node, p.dst, p.hops == 0, congestion_,
                          p.candidates);
}

void
NetworkModel::fillCongestionSnapshot()
{
    // Sum flitsReserved over each link's VCs: flits committed to
    // land in that link's input buffers — the engine's queue-depth
    // estimate. Written only here, on the serial engine thread,
    // before any route (serial or sharded) is computed this cycle.
    const int vcs = totalVcs();
    const std::size_t links = congestionFlits_.size();
    for (std::size_t l = 0; l < links; ++l) {
        std::uint32_t sum = 0;
        const std::size_t base = l * static_cast<std::size_t>(vcs);
        for (int v = 0; v < vcs; ++v)
            sum += static_cast<std::uint32_t>(
                vcs_[base + static_cast<std::size_t>(v)]
                    .flitsReserved);
        congestionFlits_[l] = sum;
    }
}

void
NetworkModel::precomputeRoutes(Cycle now)
{
    // Serial barrier routing: with a congestion-aware policy and no
    // route executor (shards = 1), the same eligibility walk runs
    // here but routes inline. This keeps the policy's semantics —
    // "every cycle-start head routes against this cycle's frozen
    // snapshot" — identical at every shard count. (A greedy route
    // for a head the serial loop skips this cycle equals the route
    // it would compute next cycle, so greedy never needs this; a
    // snapshot-dependent route does NOT have that property, which
    // is exactly why lazy serial routing and barrier-sharded
    // routing would diverge without it.)
    const bool inline_routes = routeWork_.empty();
    const std::size_t shards = routeWork_.size();
    const std::size_t n = topo_->numNodes();
    std::size_t total = 0;
    for (const NodeId node : activeNodes_) {
        // Contiguous spatial blocks: nodes [k*n/S, (k+1)*n/S) form
        // shard k, so a shard owns its nodes' whole route workload.
        const std::size_t shard =
            inline_routes
                ? 0
                : static_cast<std::size_t>(node) * shards / n;
        const auto consider = [&](std::uint32_t slot) {
            Packet &p = pool_.at(slot);
            // Only the pure policy fast path is precomputable; the
            // loop owns every order-sensitive case: cached routes,
            // escape routing, escalation due this cycle (its stats
            // counter can land inside the measurement window), the
            // gated-destination drop path, and ejection heads.
            if (p.routed || p.escape || p.dst == node ||
                !topo_->nodeAlive(p.dst))
                return;
            if (inline_routes) {
                const std::size_t count =
                    routeCandidatesFor(node, p);
                if (count > 0) {
                    p.numCandidates =
                        static_cast<std::uint8_t>(count);
                    p.routed = true;
                }
                return;
            }
            routeWork_[shard].push_back(RouteJob{slot, node});
            ++total;
        };
        for (const std::uint32_t flat : activeVcs_[node]) {
            const VcState &vc = vcs_[flat];
            if (vc.fifo.empty())
                continue;
            if (!pool_.at(vc.fifo.head).escape &&
                now - vc.headSince > cfg_.escapeThreshold)
                continue;  // the loop escalates before routing
            consider(vc.fifo.head);
        }
        const PacketFifo &source = sourceQueue_[node];
        if (!source.empty() && sourceBusyUntil_[node] <= now)
            consider(source.head);
    }
    if (total == 0)
        return;
    if (total < kRoutePhaseMinJobs) {
        for (std::size_t s = 0; s < shards; ++s)
            routeShard(s);
    } else {
        if (routeTasks_.empty()) {
            routeTasks_.reserve(shards);
            for (std::size_t s = 0; s < shards; ++s)
                routeTasks_.push_back([this, s] { routeShard(s); });
        }
        routeExecutor_->runAll(routeTasks_);
    }
    for (std::vector<RouteJob> &work : routeWork_)
        work.clear();
}

void
NetworkModel::routeShard(std::size_t shard)
{
    // Runs concurrently with other shards: every job writes only
    // its own Packet record (a head sits in exactly one queue, so
    // slots never repeat across jobs) and reads only the immutable
    // topology, whose const routing paths are thread-safe. Route-
    // cache rows are keyed by the job's node, and a shard's node
    // block is exclusively its own, so the lazy fills inside
    // routeCandidatesFor are single-writer too.
    for (const RouteJob &job : routeWork_[shard]) {
        Packet &p = pool_.at(job.slot);
        const std::size_t count = routeCandidatesFor(job.node, p);
        if (count > 0) {
            p.numCandidates = static_cast<std::uint8_t>(count);
            p.routed = true;
        }
        // count == 0 (greedy stall on a degraded topology): leave
        // the packet untouched so the serial loop escalates it to
        // the escape path exactly as the unsharded engine does.
    }
}

const net::UpDownRouting &
NetworkModel::upDownRouting()
{
    if (!escapeTables_)
        escapeTables_ = topo_->upDownRouting();
    return *escapeTables_;
}

void
NetworkModel::activateNode(NodeId node)
{
    if (!nodeActive_[node]) {
        nodeActive_[node] = 1;
        activeNodes_.push_back(node);
    }
}

void
NetworkModel::step(Cycle now)
{
    // The five-phase pipeline (file header, docs/engine_phases.md):
    // Land → Snapshot → Route → Arbitrate(decide) → Commit. The
    // phase boundaries are exactly the barriers the interleaved
    // loop already respected, so the decomposition changes no
    // simulated event; cfg_.profilePhases adds steady-clock
    // accounting per phase (decide/commit are timed inside the
    // serial walk).
    if (cfg_.profilePhases) {
        using Clock = std::chrono::steady_clock;
        const Clock::time_point t0 = Clock::now();
        phaseLand(now);
        const Clock::time_point t1 = Clock::now();
        phaseSnapshot(now);
        const Clock::time_point t2 = Clock::now();
        phaseRoute(now);
        const Clock::time_point t3 = Clock::now();
        stats_.phaseLandNs += elapsedNs(t0, t1);
        stats_.phaseSnapshotNs += elapsedNs(t1, t2);
        stats_.phaseRouteNs += elapsedNs(t2, t3);
        ++stats_.phaseProfiledCycles;
    } else {
        phaseLand(now);
        phaseSnapshot(now);
        phaseRoute(now);
    }
    phaseArbitrate(now);

    // Deadlock watchdog (after commit: lastProgress_ is final).
    if (inFlight() == 0) {
        lastProgress_ = now;
    } else if (now - lastProgress_ > cfg_.watchdogCycles) {
        std::ostringstream os;
        os << "deadlock watchdog: no forward progress for "
           << cfg_.watchdogCycles << " cycles on " << topo_->name()
           << " with " << inFlight() << " packets in flight";
        throw std::runtime_error(os.str());
    }
}

void
NetworkModel::phaseLand(Cycle now)
{
    // Land arrivals whose last flit reached the downstream
    // buffer (space was reserved at grant time).
    while (!arrivals_.empty() && arrivals_.front().at <= now) {
        const Arrival top = arrivals_.front();
        popArrival(arrivals_);
        const NodeId at_node = topo_->graph().link(top.link).dst;
        const std::size_t flat =
            vcStateIndex(top.link, top.vcIndex);
        VcState &vc = vcs_[flat];
        if (vc.fifo.empty()) {
            vc.headSince = now;
            vc.proofUntil = static_cast<std::uint32_t>(now);
        }
        vc.fifo.push(pool_, top.slot);
        --pendingArrivals_[at_node];
        wakeAt_[at_node] = 0;
        if (!vc.inActiveList) {
            vc.inActiveList = true;
            activeVcs_[at_node].push_back(
                static_cast<std::uint32_t>(flat));
        }
        activateNode(at_node);
    }
    // Local loopback deliveries. The handler runs before the heap
    // pop (as the historical engine did): it may inject new local
    // packets, whose strictly later arrival cycles cannot displace
    // the entry being delivered from the heap front.
    while (!localDeliveries_.empty() &&
           localDeliveries_.front().at <= now) {
        const Arrival top = localDeliveries_.front();
        recordDelivery(pool_.at(top.slot), top.at);
        popArrival(localDeliveries_);
        pool_.release(top.slot);
    }
}

void
NetworkModel::phaseSnapshot(Cycle now)
{
    // Freeze this cycle's congestion snapshot (adaptive policies
    // only): after arrivals landed, before any route — serial or
    // sharded — is computed, so every route decision this cycle
    // reads the same frozen queue depths regardless of shard count
    // or arbitration order. Adaptive policies then route every
    // cycle-start head at this barrier even without a route
    // executor: a snapshot-dependent decision deferred to a later
    // cycle would read a different snapshot, so lazy serial routing
    // and barrier-sharded routing would diverge (see
    // precomputeRoutes).
    if (policy_->congestionAware()) {
        fillCongestionSnapshot();
        if (!routeExecutor_)
            precomputeRoutes(now);
    }
}

void
NetworkModel::phaseRoute(Cycle now)
{
    // Sharded route plane: fill in this cycle's pure routes
    // concurrently before any serial state advances.
    if (routeExecutor_)
        precomputeRoutes(now);
}

void
NetworkModel::phaseArbitrate(Cycle now)
{
    // The wavefront scheduler pays an Executor batch per engaged
    // cycle; below the fan-out floor the serial loop wins outright.
    // profilePhases forces the serial walk — per-node decide/commit
    // timings summed across concurrent workers would be noise.
    if (wavefrontExecutor_ && !cfg_.profilePhases &&
        activeNodes_.size() >= kWavefrontMinWalk) {
        phaseArbitrateWavefront(now);
        return;
    }
    phaseArbitrateSerial(now, cfg_.profilePhases);
}

void
NetworkModel::phaseArbitrateSerial(Cycle now, bool time_phases)
{
    using Clock = std::chrono::steady_clock;
    const bool profile =
        cfg_.profileWavefront && !activeNodes_.empty();
    std::uint64_t wfWalked = 0;
    std::uint64_t wfCycleDepth = 0;
    for (std::size_t i = 0; i < activeNodes_.size();) {
        const NodeId node = activeNodes_[i];
        if (profile) {
            // Dependency-chain depth of the walk in its real
            // order: this node depends on every graph-adjacent
            // node already arbitrated this cycle (their drains and
            // reservations touch link/VC state this node reads).
            ++wfWalked;
            const Cycle stamp = now + 1;
            std::uint32_t depth = 1;
            const net::Graph &g = topo_->graph();
            const auto relax = [&](NodeId v) {
                if (wfStamp_[v] == stamp)
                    depth = std::max(depth, wfDepth_[v] + 1);
            };
            for (const LinkId l : g.outLinks(node))
                relax(g.link(l).dst);
            for (const LinkId l : g.inLinks(node))
                relax(g.link(l).src);
            wfStamp_[node] = stamp;
            wfDepth_[node] = depth;
            wfCycleDepth = std::max<std::uint64_t>(wfCycleDepth,
                                                   depth);
        }
        serialFx_.clear();
        if (time_phases) {
            const Clock::time_point t0 = Clock::now();
            decideNode(node, now, serialFx_);
            const Clock::time_point t1 = Clock::now();
            commitNode(node, now, serialFx_);
            stats_.phaseDecideNs += elapsedNs(t0, t1);
            stats_.phaseCommitNs += elapsedNs(t1, Clock::now());
        } else {
            decideNode(node, now, serialFx_);
            commitNode(node, now, serialFx_);
        }
        if (activeVcs_[node].empty() && sourceQueue_[node].empty()) {
            nodeActive_[node] = 0;
            activeNodes_[i] = activeNodes_.back();
            activeNodes_.pop_back();
        } else {
            ++i;
        }
    }
    if (profile && wfWalked > 0) {
        ++stats_.wavefrontCycles;
        stats_.wavefrontNodesWalked += wfWalked;
        stats_.wavefrontMaxWalk =
            std::max(stats_.wavefrontMaxWalk, wfWalked);
        stats_.wavefrontDepthSum += wfCycleDepth;
        stats_.wavefrontMaxDepth =
            std::max(stats_.wavefrontMaxDepth, wfCycleDepth);
    }
}

void
NetworkModel::decideNode(NodeId node, Cycle now, NodeEffects &fx)
{
    // A sleeping router: every head holds a proof that it cannot
    // move before wakeAt_, and no wake event (landing, inject,
    // drain, reconfiguration) has arrived since. Its decide would
    // fail every attempt without side effects, so skipping it
    // changes no simulated event.
    const bool drained = drainCount_[node] != drainSeen_[node];
    if (!drained && now < wakeAt_[node]) {
        fx.slept = true;
        return;
    }
    if (drained) {
        // A downstream VC freed space (or the topology changed):
        // any "until a drain" proof may be void, so drop them all.
        drainSeen_[node] = drainCount_[node];
        const auto cleared = static_cast<std::uint32_t>(now);
        for (const std::uint32_t flat : activeVcs_[node])
            vcs_[flat].proofUntil = cleared;
        sourceProof_[node] = cleared;
    }
    decideHeads(node, now, fx);
    wakeAt_[node] = fx.progressed ? 0 : sleepUntil(node, now);
}

Cycle
NetworkModel::sleepUntil(NodeId node, Cycle now) const
{
    // Derived from the final list, not from the scan: the
    // round-robin walk can leave one listed VC unvisited for a
    // cycle while visiting another twice, so only proofs actually
    // held by every listed head are trusted.
    const Cycle next = now + 1;
    Cycle wake = now + kProofHorizon;
    bool any = false;
    for (const std::uint32_t flat : activeVcs_[node]) {
        const VcState &vc = vcs_[flat];
        if (vc.fifo.empty() || !proofHolds(vc.proofUntil, next))
            return 0;
        wake = std::min(wake, proofCycle(vc.proofUntil, now));
        any = true;
    }
    if (!sourceQueue_[node].empty()) {
        if (sourceBusyUntil_[node] > next)
            wake = std::min(wake, sourceBusyUntil_[node]);
        else if (proofHolds(sourceProof_[node], next))
            wake = std::min(wake, proofCycle(sourceProof_[node], now));
        else
            return 0;
        any = true;
    }
    return any ? wake : 0;
}

void
NetworkModel::decideHeads(NodeId node, Cycle now, NodeEffects &fx)
{
    auto &active = activeVcs_[node];
    const auto cleared = static_cast<std::uint32_t>(now);
    // Round-robin start offset for fairness.
    const std::size_t start =
        active.empty() ? 0 : static_cast<std::size_t>(
            (now + node) % active.size());

    for (std::size_t k = 0; k < active.size();) {
        const std::size_t idx = (start + k) % active.size();
        VcState &vc = vcs_[active[idx]];
        if (vc.fifo.empty()) {
            // Lazy deactivation (swap-remove preserves round-robin
            // closely enough).
            vc.inActiveList = false;
            active[idx] = active.back();
            active.pop_back();
            continue;
        }
        const LinkId link = vc.link;
        // One crossbar pass per input port per cycle.
        if (inputGrantAt_[link] == now) {
            ++k;
            continue;
        }
        // A head proven blocked: the attempt would fail.
        if (proofHolds(vc.proofUntil, now)) {
            ++fx.headsSkipped;
            ++k;
            continue;
        }
        const std::uint32_t slot = vc.fifo.head;
        Packet &p = pool_.at(slot);
        // Escalate to the escape VC after a long head-of-line wait.
        if (!p.escape && now - vc.headSince > cfg_.escapeThreshold) {
            p.escape = true;
            p.escapeUpPhase = true;
            p.routed = false;
            ++fx.escapeTransfers;
        }
        if (!p.routed && !computeRoute(node, p, now, fx)) {
            // Destination unreachable (gated): drop the packet.
            vc.flitsReserved -= p.flits;
            vc.fifo.pop(pool_);
            vc.headSince = now;
            vc.proofUntil = cleared;
            fx.progressed = true;
            fx.drains.push_back(topo_->graph().link(link).src);
            fx.ops.push_back(PendingOp{PendingOp::kDrop, 0, slot,
                                       kInvalidLink, now});
            continue;
        }
        Cycle blocked_until = now;
        if (tryForward(node, p, slot, now, false, fx, blocked_until)) {
            inputGrantAt_[link] = now;
            vc.flitsReserved -= p.flits;
            vc.fifo.pop(pool_);
            vc.headSince = now;
            vc.proofUntil = cleared;
            fx.progressed = true;
            fx.drains.push_back(topo_->graph().link(link).src);
        } else {
            // A head still on a normal VC must be re-examined on
            // the cycle it escalates to the escape VC.
            if (!p.escape)
                blocked_until =
                    std::min(blocked_until,
                             vc.headSince + cfg_.escapeThreshold + 1);
            vc.proofUntil = static_cast<std::uint32_t>(blocked_until);
        }
        ++k;
    }

    // Terminal port: inject at most one packet per cycle, at one
    // flit per cycle serialisation.
    PacketFifo &source = sourceQueue_[node];
    if (!source.empty() && sourceBusyUntil_[node] <= now) {
        const std::uint32_t slot = source.head;
        Packet &p = pool_.at(slot);
        if (!p.routed && !computeRoute(node, p, now, fx)) {
            source.pop(pool_);
            sourceProof_[node] = cleared;
            fx.progressed = true;
            fx.ops.push_back(PendingOp{PendingOp::kSourceDrop, 0,
                                       slot, kInvalidLink, now});
            return;
        }
        if (p.routed) {
            Cycle blocked_until = now;
            if (tryForward(node, p, slot, now, true, fx,
                           blocked_until)) {
                p.enteredNetworkAt = now;
                sourceBusyUntil_[node] = now + p.flits;
                source.pop(pool_);
                sourceProof_[node] = cleared;
                fx.progressed = true;
                // Source packets never have dst == node (inject
                // short-circuits those), so the packet moved into
                // the arrival queue — the slot stays live.
            } else {
                sourceProof_[node] =
                    static_cast<std::uint32_t>(blocked_until);
            }
        }
    }
}

void
NetworkModel::commitNode(NodeId node, Cycle now, NodeEffects &fx)
{
    // σ-order replay: everything global the interleaved loop would
    // have applied at this node's position in the walk, in the
    // exact decision order. The packet record is read at replay
    // time — decide was the slot's last writer, so the reads are
    // the values the interleaved loop used.
    (void)node;
    const net::Graph &g = topo_->graph();
    for (const PendingOp &op : fx.ops) {
        Packet &p = pool_.at(op.slot);
        switch (op.kind) {
        case PendingOp::kForward:
        case PendingOp::kSourceForward: {
            if (p.escape)
                ++stats_.escapeHops;
            stats_.flitHops += p.flits;
            if (p.measured) {
                ++stats_.measuredHops;
                stats_.measuredFlitHops += p.flits;
            }
            vcs_[vcStateIndex(op.link, op.vcIndex)].flitsReserved +=
                p.flits;
            ++pendingArrivals_[g.link(op.link).dst];
            pushArrival(arrivals_,
                        Arrival{op.at, op.slot, op.link,
                                op.vcIndex});
            if (op.kind == PendingOp::kSourceForward)
                --sourceBacklog_;
            break;
        }
        case PendingOp::kEject:
            recordDelivery(p, op.at);
            pool_.release(op.slot);
            break;
        case PendingOp::kDrop:
        case PendingOp::kSourceDrop:
            ++dropped_;
            ++stats_.droppedUnroutable;
            if (op.kind == PendingOp::kSourceDrop)
                --sourceBacklog_;
            if (onDrop_)
                onDrop_(p, now);
            pool_.release(op.slot);
            break;
        }
    }
    // The drain signal: each upstream node whose out-link VC freed
    // space re-examines its proofs at its next decide.
    for (const NodeId upstream : fx.drains)
        ++drainCount_[upstream];
    stats_.escapeTransfers += fx.escapeTransfers;
    stats_.forwardAttempts += fx.forwardAttempts;
    stats_.headsSkippedOnProof += fx.headsSkipped;
    stats_.routerCyclesSlept += fx.slept ? 1 : 0;
    if (fx.progressed)
        lastProgress_ = now;
}

int
NetworkModel::reservedWithOverlay(const NodeEffects &fx,
                                  std::size_t flat) const
{
    // Committed occupancy plus this node's own not-yet-committed
    // reservations this cycle — exactly the downstream state the
    // interleaved loop read at this point of the node's scan. The
    // overlay holds at most one entry per forward this node made
    // this cycle (≤ out-degree), so a linear scan beats any map.
    int reserved = vcs_[flat].flitsReserved;
    const std::uint32_t key = static_cast<std::uint32_t>(flat);
    for (std::size_t i = 0; i < fx.resVc.size(); ++i) {
        if (fx.resVc[i] == key)
            reserved += fx.resFlits[i];
    }
    return reserved;
}

NetworkModel::RemovalClass
NetworkModel::classifyRemoval(NodeId node) const
{
    // Decide-free prediction of the post-arbitration removal check
    // (activeVcs_ empty and source empty), from pre-decide state
    // only. Sound rules:
    //  - ≥ 2 queued source packets pin the node active: at most
    //    one source packet leaves per cycle (a forward busies the
    //    port, a drop returns immediately).
    //  - A listed VC holding ≥ 2 packets pins the node active when
    //    no drop is possible (no gated nodes): at most one packet
    //    forwards per input port per cycle, so the FIFO stays
    //    nonempty and the VC is never lazily delisted. Unroutable
    //    drops break the bound (several heads can drop in one
    //    scan), so with gated nodes present this rule is skipped.
    //  - All listed VCs empty and source empty: every scan
    //    iteration delists one empty VC, nothing can enqueue
    //    mid-walk (inject is barred, arrivals landed in phase 1),
    //    so the node is certainly removed.
    // Anything else — single-packet VCs, a lone source packet —
    // depends on this cycle's forwards: the sequencer pauses until
    // the node's own decide resolves the real bit.
    const PacketFifo &source = sourceQueue_[node];
    if (source.size >= 2)
        return RemovalClass::kStays;
    bool any_nonempty = false;
    for (const std::uint32_t flat : activeVcs_[node]) {
        const PacketFifo &fifo = vcs_[flat].fifo;
        if (fifo.empty())
            continue;
        any_nonempty = true;
        if (!anyGated_ && fifo.size >= 2)
            return RemovalClass::kStays;
    }
    if (!any_nonempty && source.empty())
        return RemovalClass::kRemoved;
    return RemovalClass::kUncertain;
}

void
NetworkModel::phaseArbitrateWavefront(Cycle now)
{
    wfNow_ = now;
    wfCommitted_.store(0, std::memory_order_relaxed);
    wfDispatched_.store(0, std::memory_order_relaxed);
    wfWalkDone_.store(false, std::memory_order_relaxed);
    for (const auto &job : wfJobs_)
        job->tag.store(0, std::memory_order_relaxed);
    // Decide stages read the model's escape tables; fetch them at
    // the barrier so no two decide stages race the first fetch.
    upDownRouting();
    wfInWalk_ = true;
    // runAll's internal synchronisation publishes the resets above
    // to every worker before any task runs.
    wavefrontExecutor_->runAll(wfTasks_);
    wfInWalk_ = false;
}

void
NetworkModel::wavefrontDriver()
{
    const Cycle now = wfNow_;
    const net::Graph &g = topo_->graph();
    const std::size_t width = wfJobs_.size();

    // Virtual σ-sequencing of the dynamic swap-removal walk: the
    // slice replays activeNodes_'s compaction using the decide-free
    // removal classification, pausing at uncertain nodes until
    // their own decide resolves the real bit. Each sequenced
    // position records how many σ-predecessor commits its decide
    // must wait for (graph-adjacent dependencies: the downstream
    // flitsReserved its VCT checks read are written by neighbour
    // commits).
    wfSlice_.assign(activeNodes_.begin(), activeNodes_.end());
    wfSeqNodes_.clear();
    wfSeqNeed_.clear();
    wfSeqPred_.clear();
    std::size_t vcur = 0;
    bool uncertain_pending = false;
    const Cycle stamp = now + 1;

    const bool profile = cfg_.profileWavefront;
    std::uint64_t wfWalked = 0;
    std::uint64_t wfCycleDepth = 0;

    std::size_t cpos = 0;   // commit cursor (σ-position)
    std::size_t dnext = 0;  // next σ-position to fill into the ring
    std::size_t rpos = 0;   // real activeNodes_ index of cpos

    const auto sequenceOne = [&](NodeId node) {
        const std::uint32_t pos =
            static_cast<std::uint32_t>(wfSeqNodes_.size());
        std::uint32_t need = 0;
        const auto relax = [&](NodeId v) {
            if (wfSeqStamp_[v] == stamp && wfSeqIdx_[v] < pos)
                need = std::max(need, wfSeqIdx_[v] + 1);
        };
        for (const LinkId l : g.outLinks(node))
            relax(g.link(l).dst);
        for (const LinkId l : g.inLinks(node))
            relax(g.link(l).src);
        wfSeqStamp_[node] = stamp;
        wfSeqIdx_[node] = pos;
        wfSeqNodes_.push_back(node);
        wfSeqNeed_.push_back(need);
    };

    const auto advanceSequencing = [&] {
        while (vcur < wfSlice_.size()) {
            if (uncertain_pending) {
                // The node at the last sequenced position occupies
                // virtual slot vcur; its removal bit resolves when
                // its decide completes (the bit reads only state
                // the decide owns).
                const std::size_t q = wfSeqNodes_.size() - 1;
                if (q >= dnext)
                    return;  // not dispatched yet
                const WavefrontJob &job = *wfJobs_[q % width];
                if (job.tag.load(std::memory_order_acquire) <
                    q * 4 + kWfDone)
                    return;  // decide still in flight
                const NodeId node = wfSeqNodes_[q];
                const bool removed = activeVcs_[node].empty() &&
                                     sourceQueue_[node].empty();
                wfSeqPred_[q] =
                    removed ? std::uint8_t(1) : std::uint8_t(0);
                if (removed) {
                    wfSlice_[vcur] = wfSlice_.back();
                    wfSlice_.pop_back();
                } else {
                    ++vcur;
                }
                uncertain_pending = false;
                continue;
            }
            const NodeId node = wfSlice_[vcur];
            const RemovalClass cls = classifyRemoval(node);
            sequenceOne(node);
            if (cls == RemovalClass::kStays) {
                wfSeqPred_.push_back(0);
                ++vcur;
            } else if (cls == RemovalClass::kRemoved) {
                wfSeqPred_.push_back(1);
                wfSlice_[vcur] = wfSlice_.back();
                wfSlice_.pop_back();
            } else {
                wfSeqPred_.push_back(2);
                uncertain_pending = true;
            }
        }
    };

    while (true) {
        advanceSequencing();
        const bool seq_complete =
            vcur >= wfSlice_.size() && !uncertain_pending;
        if (seq_complete && cpos == wfSeqNodes_.size())
            break;
        // Fill free ring slots up to the wavefront width. A slot
        // is free because its previous occupant (position
        // dnext - width) has committed: dnext < cpos + width.
        while (dnext < wfSeqNodes_.size() && dnext < cpos + width) {
            WavefrontJob &job = *wfJobs_[dnext % width];
            job.node = wfSeqNodes_[dnext];
            job.needCommits.store(wfSeqNeed_[dnext],
                                  std::memory_order_relaxed);
            job.fx.clear();
            job.tag.store(dnext * 4 + kWfReady,
                          std::memory_order_release);
            ++dnext;
            wfDispatched_.store(
                static_cast<std::uint32_t>(dnext),
                std::memory_order_release);
        }
        if (cpos < dnext) {
            WavefrontJob &job = *wfJobs_[cpos % width];
            // Run the commit-front decide inline when no worker
            // claimed it — the driver never waits on an unclaimed
            // job, so the walk cannot deadlock even when the
            // executor has no free worker at all.
            std::uint64_t expected = cpos * 4 + kWfReady;
            if (job.tag.compare_exchange_strong(
                    expected, cpos * 4 + kWfClaimed,
                    std::memory_order_acq_rel)) {
                decideNode(job.node, now, job.fx);
                job.tag.store(cpos * 4 + kWfDone,
                              std::memory_order_release);
            } else {
                while (job.tag.load(std::memory_order_acquire) !=
                       cpos * 4 + kWfDone)
                    std::this_thread::yield();
            }
            if (profile) {
                // Cost-model instrumentation, at the commit point
                // so the σ-order stamp sequence matches the serial
                // walk exactly.
                ++wfWalked;
                std::uint32_t depth = 1;
                const auto relax = [&](NodeId v) {
                    if (wfStamp_[v] == stamp)
                        depth = std::max(depth, wfDepth_[v] + 1);
                };
                for (const LinkId l : g.outLinks(job.node))
                    relax(g.link(l).dst);
                for (const LinkId l : g.inLinks(job.node))
                    relax(g.link(l).src);
                wfStamp_[job.node] = stamp;
                wfDepth_[job.node] = depth;
                wfCycleDepth =
                    std::max<std::uint64_t>(wfCycleDepth, depth);
            }
            commitNode(job.node, now, job.fx);
            // Real swap-removal on activeNodes_, exactly as the
            // serial walk applies it — and the sequencer's
            // prediction is checked against the real bit, so a
            // classification bug can never silently diverge.
            const NodeId node = job.node;
            const bool removed = activeVcs_[node].empty() &&
                                 sourceQueue_[node].empty();
            if (wfSeqPred_[cpos] != 2 &&
                (wfSeqPred_[cpos] != 0) != removed) {
                throw std::logic_error(
                    "wavefront removal misprediction");
            }
            if (removed) {
                nodeActive_[node] = 0;
                activeNodes_[rpos] = activeNodes_.back();
                activeNodes_.pop_back();
            } else {
                ++rpos;
            }
            ++cpos;
            wfCommitted_.store(static_cast<std::uint32_t>(cpos),
                               std::memory_order_release);
        }
    }
    wfWalkDone_.store(true, std::memory_order_release);

    if (profile && wfWalked > 0) {
        ++stats_.wavefrontCycles;
        stats_.wavefrontNodesWalked += wfWalked;
        stats_.wavefrontMaxWalk =
            std::max(stats_.wavefrontMaxWalk, wfWalked);
        stats_.wavefrontDepthSum += wfCycleDepth;
        stats_.wavefrontMaxDepth =
            std::max(stats_.wavefrontMaxDepth, wfCycleDepth);
    }
}

void
NetworkModel::wavefrontWorker()
{
    const Cycle now = wfNow_;
    const std::size_t width = wfJobs_.size();
    while (!wfWalkDone_.load(std::memory_order_acquire)) {
        const std::uint32_t committed =
            wfCommitted_.load(std::memory_order_acquire);
        const std::uint32_t dispatched =
            wfDispatched_.load(std::memory_order_acquire);
        bool ran = false;
        for (std::uint32_t pos = committed; pos < dispatched;
             ++pos) {
            WavefrontJob &job = *wfJobs_[pos % width];
            std::uint64_t t =
                job.tag.load(std::memory_order_acquire);
            if ((t & 3) != kWfReady)
                continue;
            // The tag's release-store published node/needCommits;
            // eligibility uses the slot's own values, so a slot
            // recycled for a later position is still claimed
            // correctly (the CAS on the exact tag is ABA-safe).
            if (job.needCommits.load(std::memory_order_relaxed) >
                wfCommitted_.load(std::memory_order_acquire))
                continue;
            const std::uint64_t jpos = t >> 2;
            if (job.tag.compare_exchange_strong(
                    t, jpos * 4 + kWfClaimed,
                    std::memory_order_acq_rel)) {
                decideNode(job.node, now, job.fx);
                job.tag.store(jpos * 4 + kWfDone,
                              std::memory_order_release);
                ran = true;
                break;
            }
        }
        if (!ran)
            std::this_thread::yield();
    }
}

bool
NetworkModel::computeRoute(NodeId node, Packet &p, Cycle now,
                           NodeEffects &fx)
{
    (void)now;
    p.numCandidates = 0;
    p.routed = false;
    if (!topo_->nodeAlive(p.dst))
        return false;
    if (p.dst == node) {
        // Candidates empty + routed means "eject here".
        p.routed = true;
        return true;
    }

    if (!p.escape) {
        // Zero-copy fast path: candidates land directly in the
        // packet record (via the route cache when engaged).
        const std::size_t count = routeCandidatesFor(node, p);
        if (count > 0) {
            p.numCandidates = static_cast<std::uint8_t>(count);
            p.routed = true;
            return true;
        }
        // Greedy stall (degraded topology): escalate immediately.
        p.escape = true;
        p.escapeUpPhase = true;
        ++fx.escapeTransfers;
    }

    LinkId link = kInvalidLink;
    if (topo_->escapeScheme() == net::EscapeScheme::Ring) {
        link = topo_->ringEscapeLink(node);
    }
    if (link == kInvalidLink)
        link = upDownRouting().nextLink(node, p.dst, p.escapeUpPhase);
    if (link == kInvalidLink)
        return false;  // genuinely unreachable
    p.candidates[0] = link;
    p.numCandidates = 1;
    p.routed = true;
    return true;
}

bool
NetworkModel::tryForward(NodeId node, Packet &p, std::uint32_t slot,
                         Cycle now, bool from_source,
                         NodeEffects &fx, Cycle &blocked_until)
{
    ++fx.forwardAttempts;
    // Ejection at the destination: only this node's own ejections
    // move ejectBusyUntil_.
    if (p.dst == node) {
        if (ejectBusyUntil_[node] > now) {
            blocked_until = ejectBusyUntil_[node];
            return false;
        }
        ejectBusyUntil_[node] = now + p.flits;
        fx.ops.push_back(PendingOp{PendingOp::kEject, 0, slot,
                                   kInvalidLink, now + p.flits});
        return true;
    }

    // Collect currently grantable candidates. The downstream VC is
    // a function of the packet alone, so it is hoisted out of the
    // candidate scan.
    //
    // Proof of a failure, per candidate: a busy link stays busy
    // until linkBusyUntil_ (only this node grants its out-links,
    // and a grant needs the link free); a full downstream VC stays
    // full until that VC drains (only this node reserves it); a
    // disabled link proves nothing.
    LinkId usable[Packet::kMaxCandidates];
    double occupancy[Packet::kMaxCandidates];
    int usable_count = 0;
    bool stale = false;
    Cycle until = now + kProofHorizon;
    const int want_vc = downstreamVcIndex(p);
    for (int i = 0; i < p.numCandidates; ++i) {
        const LinkId link = p.candidates[i];
        const net::Link &l = topo_->graph().link(link);
        if (!l.enabled) {
            stale = true;  // reconfiguration invalidated the cache
            continue;
        }
        if (linkBusyUntil_[link] > now || outputGrantAt_[link] == now) {
            until = std::min(until, linkBusyUntil_[link]);
            continue;
        }
        // Virtual cut-through: room for the entire packet
        // downstream — committed occupancy plus this node's own
        // pending reservations (the overlay), exactly what the
        // interleaved loop read here.
        const int reserved = reservedWithOverlay(
            fx, vcStateIndex(link, want_vc));
        if (reserved + p.flits > cfg_.vcDepth)
            continue;
        usable[usable_count] = link;
        occupancy[usable_count] =
            static_cast<double>(reserved) /
            static_cast<double>(cfg_.vcDepth);
        ++usable_count;
    }
    if (stale) {
        p.routed = false;
        if (usable_count == 0)
            return false;
    }
    if (usable_count == 0) {
        blocked_until = until;
        return false;
    }

    // Adaptive selection (paper: prefer the greediest choice unless
    // its port queue passed the threshold, then take the lightest).
    int pick = 0;
    if (cfg_.adaptive && usable_count > 1 &&
        occupancy[0] > cfg_.adaptiveThreshold) {
        for (int i = 1; i < usable_count; ++i) {
            if (occupancy[i] < occupancy[pick])
                pick = i;
        }
    }
    const LinkId link = usable[pick];
    const net::Link &l = topo_->graph().link(link);

    // Decide the hop: the packet and this node's own link state
    // mutate in place; the downstream reservation, the arrival
    // push, and the hop counters are buffered and replayed at the
    // node's σ-position (stats are recomputed at commit from the
    // packet record, which decide leaves final).
    outputGrantAt_[link] = now;
    linkBusyUntil_[link] = now + p.flits;

    p.hops += 1;
    p.routed = false;
    if (p.escape) {
        if (topo_->escapeScheme() == net::EscapeScheme::Ring) {
            if (topo_->ringPosition(l.dst) <
                topo_->ringPosition(node))
                p.escapeVcBit = 1;  // crossed the dateline
        } else if (!upDownRouting().isUp(link)) {
            p.escapeUpPhase = false;
        }
    }

    const int dvc = downstreamVcIndex(p);
    const std::uint32_t flat =
        static_cast<std::uint32_t>(vcStateIndex(link, dvc));
    bool merged = false;
    for (std::size_t i = 0; i < fx.resVc.size(); ++i) {
        if (fx.resVc[i] == flat) {
            fx.resFlits[i] += p.flits;
            merged = true;
            break;
        }
    }
    if (!merged) {
        fx.resVc.push_back(flat);
        fx.resFlits.push_back(p.flits);
    }
    const Cycle arrival = now + p.flits - 1 + l.latency +
                          cfg_.serdesCycles;
    fx.ops.push_back(PendingOp{from_source
                                   ? PendingOp::kSourceForward
                                   : PendingOp::kForward,
                               dvc, slot, link, arrival});
    return true;
}

void
NetworkModel::recordDelivery(const Packet &p, Cycle delivered_at)
{
    ++stats_.deliveredPackets;
    stats_.deliveredFlits += p.flits;
    if (p.measured) {
        ++stats_.measuredPackets;
        stats_.totalLatency.record(delivered_at - p.createdAt);
        stats_.networkLatency.record(delivered_at -
                                     p.enteredNetworkAt);
        stats_.totalLatencyLog.record(delivered_at - p.createdAt);
        stats_.networkLatencyLog.record(delivered_at -
                                        p.enteredNetworkAt);
    }
    if (onDeliver_)
        onDeliver_(p, delivered_at);
}

} // namespace sf::sim

#include "net/topology.hpp"

namespace sf::net {

std::shared_ptr<const UpDownRouting>
Topology::upDownRouting() const
{
    if (!updownValid_.load(std::memory_order_acquire)) {
        const std::lock_guard<std::mutex> lock(updownMutex_);
        if (!updownValid_.load(std::memory_order_relaxed)) {
            std::vector<bool> alive(numNodes());
            for (NodeId u = 0; u < numNodes(); ++u)
                alive[u] = nodeAlive(u);
            updown_ =
                std::make_shared<const UpDownRouting>(graph(), alive);
            updownValid_.store(true, std::memory_order_release);
        }
    }
    return updown_;
}

void
Topology::invalidateUpDownRouting()
{
    const std::lock_guard<std::mutex> lock(updownMutex_);
    updownValid_.store(false, std::memory_order_release);
    updown_.reset();
}

RoutedProbe
probeRoutedHops(const Topology &topo, Rng &rng, int samples)
{
    RoutedProbe probe;
    const std::size_t n = topo.numNodes();
    double sum = 0.0;
    const auto attempt = [&](NodeId s, NodeId t) {
        if (s == t || !topo.nodeAlive(s) || !topo.nodeAlive(t))
            return;
        ++probe.attempted;
        const int hops = routedHops(topo, s, t);
        if (hops > 0) {
            sum += hops;
            ++probe.delivered;
        }
    };
    if (samples <= 0) {
        for (NodeId s = 0; s < n; ++s)
            for (NodeId t = 0; t < n; ++t)
                attempt(s, t);
    } else {
        for (int i = 0; i < samples; ++i) {
            // Sequenced draws: argument evaluation order is
            // unspecified, and src/dst assignment must not depend
            // on the compiler for reports to compare across builds.
            const auto s = static_cast<NodeId>(rng.below(n));
            const auto t = static_cast<NodeId>(rng.below(n));
            attempt(s, t);
        }
    }
    if (probe.delivered)
        probe.avgHops = sum / static_cast<double>(probe.delivered);
    if (probe.attempted)
        probe.deliveredPct =
            100.0 * static_cast<double>(probe.delivered) /
            static_cast<double>(probe.attempted);
    return probe;
}

} // namespace sf::net

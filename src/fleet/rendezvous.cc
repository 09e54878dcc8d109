#include "fleet/rendezvous.h"

#include <algorithm>

#include "util/logging.h"

namespace wsp::fleet {

void
RendezvousHash::addNode(uint32_t node)
{
    const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), node);
    if (it != nodes_.end() && *it == node)
        return;
    nodes_.insert(it, node);
}

void
RendezvousHash::removeNode(uint32_t node)
{
    const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), node);
    if (it != nodes_.end() && *it == node)
        nodes_.erase(it);
}

bool
RendezvousHash::contains(uint32_t node) const
{
    return std::binary_search(nodes_.begin(), nodes_.end(), node);
}

uint64_t
RendezvousHash::score(uint32_t node, uint64_t key)
{
    // Mix the pair through the murmur3 finalizer. The node id is
    // pre-spread by the golden-ratio constant so ids 0, 1, 2, ...
    // land far apart before they meet the key bits.
    uint64_t h = key ^ ((static_cast<uint64_t>(node) + 1) *
                        0x9e3779b97f4a7c15ull);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
}

std::vector<uint32_t>
RendezvousHash::replicaSet(uint64_t key, unsigned r) const
{
    struct Scored
    {
        uint64_t score;
        uint32_t node;
    };
    std::vector<Scored> scored;
    scored.reserve(nodes_.size());
    for (uint32_t node : nodes_)
        scored.push_back({score(node, key), node});

    const size_t take = std::min<size_t>(r, scored.size());
    std::partial_sort(scored.begin(), scored.begin() + take, scored.end(),
                      [](const Scored &a, const Scored &b) {
                          if (a.score != b.score)
                              return a.score > b.score;
                          return a.node < b.node;
                      });
    std::vector<uint32_t> replicas;
    replicas.reserve(take);
    for (size_t i = 0; i < take; ++i)
        replicas.push_back(scored[i].node);
    return replicas;
}

uint64_t
RendezvousHash::replicaMask(uint64_t key, unsigned r) const
{
    WSP_CHECKF(nodes_.empty() || nodes_.back() < 64,
               "replica masks cover node ids 0..63");
    // The same top-r set as replicaSet's partial sort (higher score
    // first, lower id on ties): r passes, each taking the best node
    // not yet in the mask.
    const size_t take = std::min<size_t>(r, nodes_.size());
    uint64_t mask = 0;
    for (size_t i = 0; i < take; ++i) {
        uint32_t best = 0;
        uint64_t best_score = 0;
        bool found = false;
        for (uint32_t node : nodes_) {
            if (mask & (1ull << node))
                continue;
            const uint64_t s = score(node, key);
            if (!found || s > best_score) {
                best = node;
                best_score = s;
                found = true;
            }
        }
        mask |= 1ull << best;
    }
    return mask;
}

uint32_t
RendezvousHash::primary(uint64_t key) const
{
    WSP_CHECK(!nodes_.empty());
    uint32_t best = nodes_.front();
    uint64_t best_score = score(best, key);
    for (uint32_t node : nodes_) {
        const uint64_t s = score(node, key);
        if (s > best_score || (s == best_score && node < best)) {
            best = node;
            best_score = s;
        }
    }
    return best;
}

} // namespace wsp::fleet

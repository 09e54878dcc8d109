/**
 * @file
 * Rendezvous (highest-random-weight) placement for the fleet.
 *
 * Every key is served by the R live-or-dark nodes with the highest
 * score(node, key), where the score is a murmur-style 64-bit mix of
 * the node id and the key. HRW gives the fleet the property the
 * BigWorld exemplar tests for its database placement: when a node
 * joins or leaves, only the keys whose top-R set actually contained
 * (or now contains) that node move — ~K/N of them — and every other
 * replica set is untouched. No ring state beyond the node list is
 * needed, so placement survives arbitrary crash/recovery histories
 * bit-for-bit deterministically.
 */

#pragma once

#include <cstdint>
#include <vector>

namespace wsp::fleet {

/** HRW placement over a mutable node set. */
class RendezvousHash
{
  public:
    RendezvousHash() = default;

    /** Add @p node to the candidate set (idempotent). */
    void addNode(uint32_t node);

    /** Remove @p node; no-op when absent. */
    void removeNode(uint32_t node);

    bool contains(uint32_t node) const;

    /** Current candidate nodes, ascending by id. */
    const std::vector<uint32_t> &nodes() const { return nodes_; }

    /**
     * The placement score of @p node for @p key: a murmur3-finalizer
     * mix over node-id x key. Pure function — identical across every
     * process that ever computes it.
     */
    static uint64_t score(uint32_t node, uint64_t key);

    /**
     * The replica set of @p key: the min(r, nodes) candidates with the
     * highest scores, ordered best-first (element 0 is the primary).
     * Ties break toward the lower node id (scores are 64-bit mixes, so
     * ties are vanishingly rare; the break just pins determinism).
     */
    std::vector<uint32_t> replicaSet(uint64_t key, unsigned r) const;

    /**
     * The members of replicaSet(key, r) as a node bitmask (bit i =
     * node i), without building the ordered list: no allocation. Node
     * ids must be below 64.
     */
    uint64_t replicaMask(uint64_t key, unsigned r) const;

    /** The primary owner of @p key; nodes() must be non-empty. */
    uint32_t primary(uint64_t key) const;

  private:
    std::vector<uint32_t> nodes_;
};

} // namespace wsp::fleet

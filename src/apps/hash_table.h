/**
 * @file
 * Persistent open-chaining hash table (the Fig. 5 microbenchmark).
 *
 * The paper's hash-table benchmark pre-populates a table with 100,000
 * entries and measures 1,000,000 random operations at a varying
 * update probability, under each of the five persistence
 * configurations. The table here is templated over a transaction
 * Policy so every configuration runs exactly the instrumentation it
 * would in a real system (see pheap/policies.h).
 *
 * All table state — header, bucket array, nodes — lives in the
 * persistent heap and is only reached through the policy's
 * transactions, so the structure is crash-consistent under the
 * durable policies and STM-retry-safe under the STM ones.
 */

#pragma once

#include <cstddef>
#include <cstdint>

#include "pheap/policies.h"

namespace wsp::apps {

using pmem::kNullOffset;
using pmem::Offset;
using pmem::PHeap;

/** A persistent hash table specialized for a transaction policy. */
template <typename Policy>
class HashTable
{
  public:
    struct Node
    {
        uint64_t key;
        uint64_t value;
        Offset next;
    };

    /** Persistent header cell (the handle to attach to after boot). */
    struct Header
    {
        Offset buckets;
        uint64_t bucketCount;
        uint64_t size;
    };

    /** Create a fresh table with @p buckets chains inside @p heap. */
    HashTable(PHeap &heap, uint64_t buckets) : heap_(heap)
    {
        Policy::run(heap_, [&](typename Policy::Tx &tx) {
            header_ = tx.alloc(sizeof(Header));
            const Offset array = tx.alloc(buckets * sizeof(Offset));
            Header *h = hdr();
            tx.write(&h->buckets, array);
            tx.write(&h->bucketCount, buckets);
            tx.write(&h->size, uint64_t{0});
        });
        // A fresh bucket array is unreachable until published, so it
        // can be zeroed without transactional instrumentation.
        Header *h = hdr();
        for (uint64_t i = 0; i < buckets; ++i)
            *heap_.region().template at<Offset>(
                h->buckets + i * sizeof(Offset)) = kNullOffset;
    }

    /** Attach to an existing table (recovery path). */
    HashTable(PHeap &heap, Offset header_offset, std::nullptr_t)
        : heap_(heap), header_(header_offset)
    {
    }

    /** Persistent handle for PHeap::setRootObject. */
    Offset headerOffset() const { return header_; }

    uint64_t bucketCount() const { return hdr()->bucketCount; }
    uint64_t size() const { return hdr()->size; }

    /** Insert or update; one transaction. Returns true on insert. */
    bool
    insert(uint64_t key, uint64_t value)
    {
        bool inserted = false;
        Policy::run(heap_, [&](typename Policy::Tx &tx) {
            inserted = false;
            Offset *head = bucketPtr(tx, key);
            for (Offset cur = tx.read(head); cur != kNullOffset;) {
                Node *node = at(cur);
                if (tx.read(&node->key) == key) {
                    tx.write(&node->value, value);
                    return;
                }
                cur = tx.read(&node->next);
            }
            const Offset fresh = tx.alloc(sizeof(Node));
            Node *node = at(fresh);
            tx.write(&node->key, key);
            tx.write(&node->value, value);
            tx.write(&node->next, tx.read(head));
            tx.write(head, fresh);
            tx.write(&hdr()->size, tx.read(&hdr()->size) + 1);
            inserted = true;
        });
        return inserted;
    }

    /** Remove a key; one transaction. Returns true when found. */
    bool
    erase(uint64_t key)
    {
        bool erased = false;
        Policy::run(heap_, [&](typename Policy::Tx &tx) {
            erased = false;
            Offset *link = bucketPtr(tx, key);
            for (Offset cur = tx.read(link); cur != kNullOffset;) {
                Node *node = at(cur);
                if (tx.read(&node->key) == key) {
                    tx.write(link, tx.read(&node->next));
                    tx.free(cur, sizeof(Node));
                    tx.write(&hdr()->size, tx.read(&hdr()->size) - 1);
                    erased = true;
                    return;
                }
                link = &node->next;
                cur = tx.read(link);
            }
        });
        return erased;
    }

    /** Look a key up; one transaction. */
    bool
    lookup(uint64_t key, uint64_t *value_out = nullptr)
    {
        bool found = false;
        Policy::run(heap_, [&](typename Policy::Tx &tx) {
            found = false;
            for (Offset cur = tx.read(bucketPtr(tx, key));
                 cur != kNullOffset;) {
                Node *node = at(cur);
                if (tx.read(&node->key) == key) {
                    if (value_out != nullptr)
                        *value_out = tx.read(&node->value);
                    found = true;
                    return;
                }
                cur = tx.read(&node->next);
            }
        });
        return found;
    }

    /** Sum of all values (one transaction); for verification. */
    uint64_t
    sumValues()
    {
        uint64_t sum = 0;
        Policy::run(heap_, [&](typename Policy::Tx &tx) {
            sum = 0;
            const Header *h = hdr();
            for (uint64_t index = 0; index < h->bucketCount; ++index) {
                Offset cur = tx.read(heap_.region().template at<Offset>(
                    h->buckets + index * sizeof(Offset)));
                while (cur != kNullOffset) {
                    Node *node = at(cur);
                    sum += tx.read(&node->value);
                    cur = tx.read(&node->next);
                }
            }
        });
        return sum;
    }

  private:
    Header *hdr() const { return heap_.region().template at<Header>(header_); }
    Node *at(Offset offset) { return heap_.region().template at<Node>(offset); }

    template <typename Tx>
    Offset *
    bucketPtr(Tx &tx, uint64_t key)
    {
        uint64_t h = key;
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 33;
        const Header *header = hdr();
        const uint64_t index = h % tx.read(&header->bucketCount);
        return heap_.region().template at<Offset>(
            tx.read(&header->buckets) + index * sizeof(Offset));
    }

    PHeap &heap_;
    Offset header_ = kNullOffset;
};

} // namespace wsp::apps

/**
 * @file
 * Persistent AVL tree.
 *
 * The paper's Table 1 workload replaces OpenLDAP's Berkeley DB back
 * end with "an AVL tree stored in the Mnemosyne NV-heap". This is
 * that tree: keys are 64-bit, each node carries a payload offset (the
 * directory entry), and all structural updates — including rebalance
 * rotations — go through the transaction policy, so the Mnemosyne
 * configuration pays logging/flushing for every pointer it touches.
 */

#pragma once

#include <cstdint>

#include "pheap/policies.h"

namespace wsp::apps {

using pmem::kNullOffset;
using pmem::Offset;
using pmem::PHeap;

/** A persistent AVL tree specialized for a transaction policy. */
template <typename Policy>
class AvlTree
{
  public:
    struct Node
    {
        uint64_t key;
        Offset payload;
        Offset left;
        Offset right;
        uint64_t height;
    };

    /** Persistent header cell (the handle to attach to after boot). */
    struct Header
    {
        Offset root;
        uint64_t size;
    };

    /** Create a fresh tree inside @p heap. */
    explicit AvlTree(PHeap &heap) : heap_(heap)
    {
        Policy::run(heap_, [&](typename Policy::Tx &tx) {
            header_ = tx.alloc(sizeof(Header));
            Header *h = hdr();
            tx.write(&h->root, kNullOffset);
            tx.write(&h->size, uint64_t{0});
        });
    }

    /** Attach to an existing tree (recovery path). */
    AvlTree(PHeap &heap, Offset header_offset, std::nullptr_t)
        : heap_(heap), header_(header_offset)
    {
    }

    /** Persistent handle for PHeap::setRootObject. */
    Offset headerOffset() const { return header_; }

    uint64_t size() const { return hdr()->size; }

    /**
     * Insert or replace; one transaction. Returns true on insert,
     * false when an existing key's payload was replaced.
     */
    bool
    insert(uint64_t key, Offset payload)
    {
        bool inserted = false;
        Policy::run(heap_, [&](typename Policy::Tx &tx) {
            inserted = false;
            Header *h = hdr();
            const Offset root =
                insertRec(tx, tx.read(&h->root), key, payload, &inserted);
            tx.write(&h->root, root);
            if (inserted)
                tx.write(&h->size, tx.read(&h->size) + 1);
        });
        return inserted;
    }

    /** Find a key; one transaction. */
    bool
    find(uint64_t key, Offset *payload_out = nullptr)
    {
        bool found = false;
        Policy::run(heap_, [&](typename Policy::Tx &tx) {
            found = false;
            Offset cur = tx.read(&hdr()->root);
            while (cur != kNullOffset) {
                Node *node = at(cur);
                const uint64_t k = tx.read(&node->key);
                if (k == key) {
                    if (payload_out != nullptr)
                        *payload_out = tx.read(&node->payload);
                    found = true;
                    return;
                }
                cur = key < k ? tx.read(&node->left)
                              : tx.read(&node->right);
            }
        });
        return found;
    }

    /** In-order minimum key (0 when empty); for verification. */
    uint64_t
    minKey()
    {
        uint64_t result = 0;
        Policy::run(heap_, [&](typename Policy::Tx &tx) {
            Offset cur = tx.read(&hdr()->root);
            result = 0;
            while (cur != kNullOffset) {
                Node *node = at(cur);
                result = tx.read(&node->key);
                cur = tx.read(&node->left);
            }
        });
        return result;
    }

    /** Height of the root (0 when empty). */
    uint64_t
    height()
    {
        uint64_t h = 0;
        Policy::run(heap_, [&](typename Policy::Tx &tx) {
            const Offset root = tx.read(&hdr()->root);
            h = root == kNullOffset ? 0 : tx.read(&at(root)->height);
        });
        return h;
    }

    /**
     * Verify AVL invariants (balance and ordering) over the whole
     * tree; returns false on any violation. Test helper.
     */
    bool
    checkInvariants()
    {
        bool ok = true;
        Policy::run(heap_, [&](typename Policy::Tx &tx) {
            uint64_t count = 0;
            Header *h = hdr();
            ok = checkRec(tx, tx.read(&h->root), nullptr, nullptr,
                          &count) >= 0 &&
                 count == tx.read(&h->size);
        });
        return ok;
    }

  private:
    Header *hdr() const { return heap_.region().template at<Header>(header_); }
    Node *at(Offset offset) { return heap_.region().template at<Node>(offset); }

    template <typename Tx>
    uint64_t
    heightOf(Tx &tx, Offset node)
    {
        return node == kNullOffset ? 0 : tx.read(&at(node)->height);
    }

    template <typename Tx>
    void
    updateHeight(Tx &tx, Offset node)
    {
        const uint64_t l = heightOf(tx, tx.read(&at(node)->left));
        const uint64_t r = heightOf(tx, tx.read(&at(node)->right));
        tx.write(&at(node)->height, 1 + (l > r ? l : r));
    }

    template <typename Tx>
    int64_t
    balanceOf(Tx &tx, Offset node)
    {
        const auto l = static_cast<int64_t>(
            heightOf(tx, tx.read(&at(node)->left)));
        const auto r = static_cast<int64_t>(
            heightOf(tx, tx.read(&at(node)->right)));
        return l - r;
    }

    template <typename Tx>
    Offset
    rotateRight(Tx &tx, Offset y)
    {
        const Offset x = tx.read(&at(y)->left);
        const Offset t2 = tx.read(&at(x)->right);
        tx.write(&at(x)->right, y);
        tx.write(&at(y)->left, t2);
        updateHeight(tx, y);
        updateHeight(tx, x);
        return x;
    }

    template <typename Tx>
    Offset
    rotateLeft(Tx &tx, Offset x)
    {
        const Offset y = tx.read(&at(x)->right);
        const Offset t2 = tx.read(&at(y)->left);
        tx.write(&at(y)->left, x);
        tx.write(&at(x)->right, t2);
        updateHeight(tx, x);
        updateHeight(tx, y);
        return y;
    }

    template <typename Tx>
    Offset
    insertRec(Tx &tx, Offset node, uint64_t key, Offset payload,
              bool *inserted)
    {
        if (node == kNullOffset) {
            const Offset fresh = tx.alloc(sizeof(Node));
            Node *n = at(fresh);
            tx.write(&n->key, key);
            tx.write(&n->payload, payload);
            tx.write(&n->left, kNullOffset);
            tx.write(&n->right, kNullOffset);
            tx.write(&n->height, uint64_t{1});
            *inserted = true;
            return fresh;
        }

        const uint64_t k = tx.read(&at(node)->key);
        if (key == k) {
            tx.write(&at(node)->payload, payload);
            return node;
        }
        if (key < k) {
            tx.write(&at(node)->left,
                     insertRec(tx, tx.read(&at(node)->left), key, payload,
                               inserted));
        } else {
            tx.write(&at(node)->right,
                     insertRec(tx, tx.read(&at(node)->right), key,
                               payload, inserted));
        }
        updateHeight(tx, node);

        const int64_t balance = balanceOf(tx, node);
        if (balance > 1) {
            const Offset left = tx.read(&at(node)->left);
            if (key > tx.read(&at(left)->key))
                tx.write(&at(node)->left, rotateLeft(tx, left));
            return rotateRight(tx, node);
        }
        if (balance < -1) {
            const Offset right = tx.read(&at(node)->right);
            if (key < tx.read(&at(right)->key))
                tx.write(&at(node)->right, rotateRight(tx, right));
            return rotateLeft(tx, node);
        }
        return node;
    }

    /** Returns subtree height, or -1 on violation. */
    template <typename Tx>
    int64_t
    checkRec(Tx &tx, Offset node, const uint64_t *lo, const uint64_t *hi,
             uint64_t *count)
    {
        if (node == kNullOffset)
            return 0;
        Node *n = at(node);
        const uint64_t key = tx.read(&n->key);
        if ((lo != nullptr && key <= *lo) || (hi != nullptr && key >= *hi))
            return -1;
        ++*count;
        const int64_t l = checkRec(tx, tx.read(&n->left), lo, &key, count);
        const int64_t r = checkRec(tx, tx.read(&n->right), &key, hi, count);
        if (l < 0 || r < 0)
            return -1;
        if (l - r > 1 || r - l > 1)
            return -1;
        const int64_t h = 1 + (l > r ? l : r);
        if (static_cast<uint64_t>(h) != tx.read(&n->height))
            return -1;
        return h;
    }

    PHeap &heap_;
    Offset header_ = kNullOffset;
};

} // namespace wsp::apps

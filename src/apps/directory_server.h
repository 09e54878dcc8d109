/**
 * @file
 * LDAP-like directory server (the Table 1 workload).
 *
 * The paper benchmarks OpenLDAP with its Berkeley DB back end
 * replaced by an AVL tree in the persistent heap, inserting 100,000
 * randomly generated entries. This server reproduces that data path:
 * entries arrive as LDIF-style text, are parsed and schema-checked,
 * serialized into the persistent heap, and indexed by DN in the
 * policy-instrumented AVL tree — so the Mnemosyne configuration pays
 * per-update logging and flushing on every index write, while the
 * WSP configuration runs the identical server code with plain
 * in-memory stores.
 */

#pragma once

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "apps/avl_tree.h"
#include "util/checksum.h"
#include "util/rng.h"

namespace wsp::apps {

/** A parsed directory entry. */
struct DirectoryEntry
{
    std::string dn;
    std::vector<std::pair<std::string, std::string>> attributes;
};

/** Result codes mirroring LDAP's common outcomes. */
enum class DirectoryResult {
    Success,
    InvalidSyntax,
    UndefinedAttributeType,
    EntryAlreadyExists,
};

/**
 * Parse LDIF-ish text ("dn: ...\nattr: value\n..."). Returns
 * InvalidSyntax on malformed input.
 */
DirectoryResult parseEntry(std::string_view text, DirectoryEntry *out);

/** Schema check: known attribute types, non-empty dn and values. */
DirectoryResult validateEntry(const DirectoryEntry &entry);

/** Generate a random person entry like the paper's workload. */
DirectoryEntry randomEntry(Rng &rng, uint64_t index);

/** Render an entry back to LDIF-ish text. */
std::string renderEntry(const DirectoryEntry &entry);

/** The server: parse -> validate -> serialize -> index. */
template <typename Policy>
class DirectoryServer
{
  public:
    explicit DirectoryServer(PHeap &heap) : heap_(heap), index_(heap) {}

    uint64_t entryCount() const { return index_.size(); }

    /** Add one entry from LDIF text (the benchmark's update op). */
    DirectoryResult
    add(std::string_view text)
    {
        DirectoryEntry entry;
        DirectoryResult result = parseEntry(text, &entry);
        if (result != DirectoryResult::Success)
            return result;
        result = validateEntry(entry);
        if (result != DirectoryResult::Success)
            return result;

        const uint64_t key = dnKey(entry.dn);
        if (index_.find(key))
            return DirectoryResult::EntryAlreadyExists;

        // Serialize the entry into the heap, then index it. The
        // bulk payload is written before the (transactional) index
        // insert publishes it, mirroring how the paper's port keeps
        // the tree as the only schema change.
        index_.insert(key, storeBlob(renderEntry(entry)));
        return DirectoryResult::Success;
    }

    /** The index (exposed for invariant checks in tests). */
    AvlTree<Policy> &index() { return index_; }

  private:
    /** Allocate and fill a length-prefixed blob; returns its offset. */
    Offset
    storeBlob(const std::string &blob)
    {
        Offset payload = kNullOffset;
        Policy::run(heap_, [&](typename Policy::Tx &tx) {
            payload = tx.alloc(blob.size() + 8);
        });
        *heap_.region().template at<uint64_t>(payload) = blob.size();
        std::memcpy(heap_.region().at(payload + 8), blob.data(),
                    blob.size());
        return payload;
    }

    static uint64_t
    dnKey(std::string_view dn)
    {
        return fnv1a(std::span<const uint8_t>(
            reinterpret_cast<const uint8_t *>(dn.data()), dn.size()));
    }

    PHeap &heap_;
    AvlTree<Policy> index_;
};

} // namespace wsp::apps

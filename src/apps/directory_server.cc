#include "apps/directory_server.h"

#include <array>
#include <memory>
#include <mutex>

#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/units.h"

namespace wsp::apps {

namespace {

/** The attribute types the mini-schema accepts. */
constexpr std::array<std::string_view, 8> kKnownAttributes = {
    "objectClass", "cn", "sn", "givenName", "mail",
    "telephoneNumber", "uid", "description",
};

bool
knownAttribute(std::string_view name)
{
    for (std::string_view known : kKnownAttributes) {
        if (name == known)
            return true;
    }
    return false;
}

/** Split "name: value"; returns false on malformed lines. */
bool
splitLine(std::string_view line, std::string_view *name,
          std::string_view *value)
{
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0)
        return false;
    *name = line.substr(0, colon);
    size_t start = colon + 1;
    while (start < line.size() && line[start] == ' ')
        ++start;
    *value = line.substr(start);
    return true;
}

} // namespace

DirectoryResult
parseEntry(std::string_view text, DirectoryEntry *out)
{
    out->dn.clear();
    out->attributes.clear();

    size_t pos = 0;
    bool first = true;
    while (pos < text.size()) {
        size_t end = text.find('\n', pos);
        if (end == std::string_view::npos)
            end = text.size();
        const std::string_view line = text.substr(pos, end - pos);
        pos = end + 1;
        if (line.empty())
            continue;

        std::string_view name;
        std::string_view value;
        if (!splitLine(line, &name, &value))
            return DirectoryResult::InvalidSyntax;
        if (first) {
            if (name != "dn" || value.empty())
                return DirectoryResult::InvalidSyntax;
            out->dn.assign(value);
            first = false;
            continue;
        }
        out->attributes.emplace_back(std::string(name),
                                     std::string(value));
    }
    if (first)
        return DirectoryResult::InvalidSyntax; // no dn line at all
    return DirectoryResult::Success;
}

DirectoryResult
validateEntry(const DirectoryEntry &entry)
{
    if (entry.dn.empty() || entry.attributes.empty())
        return DirectoryResult::InvalidSyntax;
    for (const auto &[name, value] : entry.attributes) {
        if (!knownAttribute(name))
            return DirectoryResult::UndefinedAttributeType;
        if (value.empty())
            return DirectoryResult::InvalidSyntax;
    }
    return DirectoryResult::Success;
}

DirectoryEntry
randomEntry(Rng &rng, uint64_t index)
{
    static const char *const kFirst[] = {"ada", "alan", "barbara",
                                         "donald", "edsger", "grace",
                                         "john", "leslie"};
    static const char *const kLast[] = {"lovelace", "turing", "liskov",
                                        "knuth", "dijkstra", "hopper",
                                        "backus", "lamport"};
    const char *first = kFirst[rng.next(8)];
    const char *last = kLast[rng.next(8)];
    const std::string uid =
        std::string(first) + "." + last + "." + std::to_string(index);

    DirectoryEntry entry;
    entry.dn = "uid=" + uid + ",ou=people,dc=example,dc=com";
    entry.attributes = {
        {"objectClass", "inetOrgPerson"},
        {"uid", uid},
        {"givenName", first},
        {"sn", last},
        {"cn", std::string(first) + " " + last},
        {"mail", uid + "@example.com"},
        {"telephoneNumber",
         "+1 555 " + std::to_string(1000000 + rng.next(9000000))},
    };
    return entry;
}

std::string
renderEntry(const DirectoryEntry &entry)
{
    std::string out = "dn: " + entry.dn + "\n";
    for (const auto &[name, value] : entry.attributes)
        out += name + ": " + value + "\n";
    return out;
}

uint64_t
runShardedDirectoryWorkload(unsigned shards, unsigned threads,
                            uint64_t entries_per_thread, uint64_t seed)
{
    WSP_CHECKF(shards >= 1 && (shards & (shards - 1)) == 0,
               "directory shard count must be a power of two");
    // Per-shard server in a private heap behind a stripe lock: the
    // Table 1 data path (parse -> validate -> serialize -> index)
    // runs concurrently across shards.
    struct DirectoryShard
    {
        DirectoryShard(pmem::PHeapConfig config)
            : heap(config), server(heap)
        {
        }
        pmem::PHeap heap;
        DirectoryServer<pmem::RawPolicy> server;
        std::mutex lock;
    };

    pmem::PHeapConfig heap_config;
    heap_config.regionSize = 16 * kMiB; // two 4 MiB logs + header + arena
    std::vector<std::unique_ptr<DirectoryShard>> stripes;
    stripes.reserve(shards);
    for (unsigned i = 0; i < shards; ++i)
        stripes.push_back(std::make_unique<DirectoryShard>(heap_config));

    ThreadPool pool(threads);
    pool.runWorkers([&](unsigned worker) {
        Rng rng = Rng(seed).stream(worker);
        for (uint64_t i = 0; i < entries_per_thread; ++i) {
            // Index is globally unique, so DNs never collide across
            // workers and the final count is exact.
            const uint64_t index = worker * entries_per_thread + i;
            const DirectoryEntry entry = randomEntry(rng, index);
            uint64_t h = 0;
            for (char c : entry.dn)
                h = h * 131 + static_cast<unsigned char>(c);
            DirectoryShard &stripe = *stripes[h & (shards - 1)];
            std::lock_guard<std::mutex> guard(stripe.lock);
            const DirectoryResult added =
                stripe.server.add(renderEntry(entry));
            WSP_CHECK(added == DirectoryResult::Success);
            // Read-your-write through the full search path.
            const DirectoryResult found = stripe.server.search(entry.dn);
            WSP_CHECK(found == DirectoryResult::Success);
        }
    });

    uint64_t total = 0;
    for (const auto &stripe : stripes)
        total += stripe->server.entryCount();
    return total;
}

} // namespace wsp::apps

#include "apps/directory_server.h"

#include <array>

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

} // namespace wsp::apps

/**
 * @file
 * LDAP-style wire protocol: BER-ish TLV codec, DN normalization, ACL
 * evaluation.
 *
 * The paper's Table 1 measures a complete OpenLDAP request path, not
 * a bare tree insert: the client BER-encodes an AddRequest, slapd
 * decodes it, normalizes the DN, evaluates access control, updates
 * the store, and encodes a response. The persistence cost the paper
 * reports is therefore diluted by that per-request processing. This
 * module provides the same pipeline as real computation — a
 * tag-length-value codec, RFC-4514-flavoured DN normalization, and a
 * small ACL rule engine — so the Table 1 bench exercises a realistic
 * server path around the persistent index.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/directory_server.h"

namespace wsp::apps {

/** Message types (mirroring LDAP protocol op tags). */
enum class LdapOp : uint8_t {
    AddRequest = 0x68,
    AddResponse = 0x69,
};

/** Wire-level result codes (subset of RFC 4511). */
enum class LdapCode : uint8_t {
    Success = 0,
    ProtocolError = 2,
    UndefinedAttributeType = 17,
    InvalidDnSyntax = 34,
    InsufficientAccessRights = 50,
    EntryAlreadyExists = 68,
};

/** Map a DirectoryResult onto the wire code. */
LdapCode toLdapCode(DirectoryResult result);

/** BER-ish TLV encoder (definite lengths, big-endian). */
class BerWriter
{
  public:
    /** Begin a constructed sequence with @p tag; returns its index. */
    size_t beginSequence(uint8_t tag);

    /** Patch the sequence's length (call after its content). */
    void endSequence(size_t index);

    /** Append a primitive octet string (tag 0x04). */
    void writeOctetString(std::string_view value);

    /** Append a primitive integer (tag 0x02, minimal encoding). */
    void writeInteger(uint64_t value);

    /** Append an enumerated value (tag 0x0a). */
    void writeEnum(uint8_t value);

    const std::vector<uint8_t> &bytes() const { return bytes_; }

  private:
    void writeLengthAt(size_t pos, size_t length);

    std::vector<uint8_t> bytes_;
    std::vector<size_t> pending_;
};

/** BER-ish TLV decoder. */
class BerReader
{
  public:
    explicit BerReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

    bool atEnd() const { return pos_ >= bytes_.size(); }
    bool failed() const { return failed_; }

    /** Read a tag byte; 0 on failure. */
    uint8_t readTag();

    /** Read a definite length. */
    size_t readLength();

    /** Enter a constructed value of @p tag; returns content length. */
    bool enterSequence(uint8_t tag, size_t *content_len);

    /** Read an octet string. */
    bool readOctetString(std::string *out);

    /** Read an integer. */
    bool readInteger(uint64_t *out);

    /** Read an enumerated byte. */
    bool readEnum(uint8_t *out);

  private:
    std::span<const uint8_t> bytes_;
    size_t pos_ = 0;
    bool failed_ = false;
};

/** Encode an AddRequest for @p entry. */
std::vector<uint8_t> encodeAddRequest(const DirectoryEntry &entry,
                                      uint32_t message_id);

/** Decode an AddRequest; false on protocol error. */
bool decodeAddRequest(std::span<const uint8_t> bytes, uint32_t *message_id,
                      DirectoryEntry *entry);

/** Encode an AddResponse carrying @p code. */
std::vector<uint8_t> encodeResponse(uint32_t message_id, LdapCode code);

/**
 * Decode an AddResponse; false on protocol error, including a message
 * tagged as any other op or a body that holds more or less than the
 * result enum.
 */
bool decodeResponse(std::span<const uint8_t> bytes, uint32_t *message_id,
                    LdapCode *code);

/**
 * Normalize a DN per the usual server rules: lowercase attribute
 * types and values, strip insignificant spaces around '=', ',' and
 * within components. Returns false on syntactically invalid DNs.
 */
bool normalizeDn(std::string_view dn, std::string *out);

/** One access-control rule: may entries be added below a subtree. */
struct AclRule
{
    std::string subtreeSuffix; ///< normalized DN suffix ("" = all)
    bool allowAdd = false;
};

/** Ordered rule list; first match wins. */
class AccessControl
{
  public:
    void addRule(AclRule rule) { rules_.push_back(std::move(rule)); }

    /** Default policy used when no rule matches. */
    void setDefault(bool allow_add);

    bool mayAdd(std::string_view normalized_dn) const;

  private:
    const AclRule *match(std::string_view normalized_dn) const;

    std::vector<AclRule> rules_;
    AclRule defaultRule_{"", true};
};

/**
 * The full request pipeline around a DirectoryServer: decode ->
 * normalize -> ACL -> execute -> encode. This is what the Table 1
 * bench drives for each update.
 */
template <typename Policy>
std::vector<uint8_t>
handleAddRequest(DirectoryServer<Policy> &server,
                 const AccessControl &acl,
                 std::span<const uint8_t> request)
{
    uint32_t message_id = 0;
    DirectoryEntry entry;
    if (!decodeAddRequest(request, &message_id, &entry))
        return encodeResponse(message_id, LdapCode::ProtocolError);
    std::string normalized;
    if (!normalizeDn(entry.dn, &normalized))
        return encodeResponse(message_id, LdapCode::InvalidDnSyntax);
    if (!acl.mayAdd(normalized))
        return encodeResponse(message_id, LdapCode::InsufficientAccessRights);
    entry.dn = normalized;
    const DirectoryResult result = server.add(renderEntry(entry));
    return encodeResponse(message_id, toLdapCode(result));
}

} // namespace wsp::apps

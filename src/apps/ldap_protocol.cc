#include "apps/ldap_protocol.h"

#include <algorithm>
#include <cctype>

namespace wsp::apps {

namespace {

constexpr uint8_t kTagOctetString = 0x04;
constexpr uint8_t kTagInteger = 0x02;
constexpr uint8_t kTagEnum = 0x0a;
constexpr uint8_t kTagMessage = 0x30; // universal SEQUENCE
constexpr uint8_t kTagAttribute = 0x30;
/** An encoded enumerated value: tag, length 1, the value. */
constexpr size_t kEnumBytes = 3;

} // namespace

LdapCode
toLdapCode(DirectoryResult result)
{
    switch (result) {
      case DirectoryResult::Success:
        return LdapCode::Success;
      case DirectoryResult::InvalidSyntax:
        return LdapCode::InvalidDnSyntax;
      case DirectoryResult::UndefinedAttributeType:
        return LdapCode::UndefinedAttributeType;
      case DirectoryResult::EntryAlreadyExists:
        return LdapCode::EntryAlreadyExists;
    }
    return LdapCode::ProtocolError;
}

// BerWriter -------------------------------------------------------------

size_t
BerWriter::beginSequence(uint8_t tag)
{
    bytes_.push_back(tag);
    // Reserve a 4-byte long-form length (0x83 + 3 bytes) to patch.
    const size_t index = bytes_.size();
    bytes_.push_back(0x83);
    bytes_.push_back(0);
    bytes_.push_back(0);
    bytes_.push_back(0);
    pending_.push_back(index);
    return index;
}

void
BerWriter::writeLengthAt(size_t pos, size_t length)
{
    bytes_[pos + 1] = static_cast<uint8_t>((length >> 16) & 0xff);
    bytes_[pos + 2] = static_cast<uint8_t>((length >> 8) & 0xff);
    bytes_[pos + 3] = static_cast<uint8_t>(length & 0xff);
}

void
BerWriter::endSequence(size_t index)
{
    pending_.pop_back();
    writeLengthAt(index, bytes_.size() - index - 4);
}

void
BerWriter::writeOctetString(std::string_view value)
{
    bytes_.push_back(kTagOctetString);
    bytes_.push_back(0x83);
    bytes_.push_back(static_cast<uint8_t>((value.size() >> 16) & 0xff));
    bytes_.push_back(static_cast<uint8_t>((value.size() >> 8) & 0xff));
    bytes_.push_back(static_cast<uint8_t>(value.size() & 0xff));
    bytes_.insert(bytes_.end(), value.begin(), value.end());
}

void
BerWriter::writeInteger(uint64_t value)
{
    uint8_t raw[8];
    int len = 0;
    do {
        raw[len++] = static_cast<uint8_t>(value & 0xff);
        value >>= 8;
    } while (value != 0);
    bytes_.push_back(kTagInteger);
    bytes_.push_back(static_cast<uint8_t>(len));
    for (int i = len - 1; i >= 0; --i)
        bytes_.push_back(raw[i]);
}

void
BerWriter::writeEnum(uint8_t value)
{
    bytes_.push_back(kTagEnum);
    bytes_.push_back(1);
    bytes_.push_back(value);
}

// BerReader -------------------------------------------------------------

uint8_t
BerReader::readTag()
{
    if (pos_ >= bytes_.size()) {
        failed_ = true;
        return 0;
    }
    return bytes_[pos_++];
}

size_t
BerReader::readLength()
{
    if (pos_ >= bytes_.size()) {
        failed_ = true;
        return 0;
    }
    const uint8_t first = bytes_[pos_++];
    if ((first & 0x80) == 0)
        return first;
    const int count = first & 0x7f;
    if (count > 4 || pos_ + static_cast<size_t>(count) > bytes_.size()) {
        failed_ = true;
        return 0;
    }
    size_t length = 0;
    for (int i = 0; i < count; ++i)
        length = (length << 8) | bytes_[pos_++];
    return length;
}

bool
BerReader::enterSequence(uint8_t tag, size_t *content_len)
{
    if (readTag() != tag) {
        failed_ = true;
        return false;
    }
    *content_len = readLength();
    if (failed_ || pos_ + *content_len > bytes_.size()) {
        failed_ = true;
        return false;
    }
    return true;
}

bool
BerReader::readOctetString(std::string *out)
{
    if (readTag() != kTagOctetString) {
        failed_ = true;
        return false;
    }
    const size_t length = readLength();
    if (failed_ || pos_ + length > bytes_.size()) {
        failed_ = true;
        return false;
    }
    out->assign(reinterpret_cast<const char *>(bytes_.data() + pos_),
                length);
    pos_ += length;
    return true;
}

bool
BerReader::readInteger(uint64_t *out)
{
    if (readTag() != kTagInteger) {
        failed_ = true;
        return false;
    }
    const size_t length = readLength();
    if (failed_ || length > 8 || pos_ + length > bytes_.size()) {
        failed_ = true;
        return false;
    }
    uint64_t value = 0;
    for (size_t i = 0; i < length; ++i)
        value = (value << 8) | bytes_[pos_++];
    *out = value;
    return true;
}

bool
BerReader::readEnum(uint8_t *out)
{
    if (readTag() != kTagEnum) {
        failed_ = true;
        return false;
    }
    const size_t length = readLength();
    if (failed_ || length != 1 || pos_ >= bytes_.size()) {
        failed_ = true;
        return false;
    }
    *out = bytes_[pos_++];
    return true;
}

// Messages ----------------------------------------------------------------

std::vector<uint8_t>
encodeAddRequest(const DirectoryEntry &entry, uint32_t message_id)
{
    BerWriter writer;
    const size_t message = writer.beginSequence(kTagMessage);
    writer.writeInteger(message_id);
    const size_t op = writer.beginSequence(
        static_cast<uint8_t>(LdapOp::AddRequest));
    writer.writeOctetString(entry.dn);
    for (const auto &[name, value] : entry.attributes) {
        const size_t attr = writer.beginSequence(kTagAttribute);
        writer.writeOctetString(name);
        writer.writeOctetString(value);
        writer.endSequence(attr);
    }
    writer.endSequence(op);
    writer.endSequence(message);
    return writer.bytes();
}

bool
decodeAddRequest(std::span<const uint8_t> bytes, uint32_t *message_id,
                 DirectoryEntry *entry)
{
    BerReader reader(bytes);
    size_t content = 0;
    if (!reader.enterSequence(kTagMessage, &content))
        return false;
    uint64_t id = 0;
    if (!reader.readInteger(&id))
        return false;
    *message_id = static_cast<uint32_t>(id);
    if (!reader.enterSequence(static_cast<uint8_t>(LdapOp::AddRequest),
                              &content)) {
        return false;
    }
    entry->attributes.clear();
    if (!reader.readOctetString(&entry->dn))
        return false;
    while (!reader.atEnd() && !reader.failed()) {
        size_t attr_len = 0;
        if (!reader.enterSequence(kTagAttribute, &attr_len))
            return false;
        std::string name;
        std::string value;
        if (!reader.readOctetString(&name) ||
            !reader.readOctetString(&value)) {
            return false;
        }
        entry->attributes.emplace_back(std::move(name), std::move(value));
    }
    return !reader.failed();
}

std::vector<uint8_t>
encodeResponse(uint32_t message_id, LdapCode code)
{
    BerWriter writer;
    const size_t message = writer.beginSequence(kTagMessage);
    writer.writeInteger(message_id);
    const size_t body = writer.beginSequence(
        static_cast<uint8_t>(LdapOp::AddResponse));
    writer.writeEnum(static_cast<uint8_t>(code));
    writer.endSequence(body);
    writer.endSequence(message);
    return writer.bytes();
}

bool
decodeResponse(std::span<const uint8_t> bytes, uint32_t *message_id,
               LdapCode *code)
{
    BerReader reader(bytes);
    size_t content = 0;
    if (!reader.enterSequence(kTagMessage, &content))
        return false;
    uint64_t id = 0;
    if (!reader.readInteger(&id))
        return false;
    *message_id = static_cast<uint32_t>(id);
    if (!reader.enterSequence(static_cast<uint8_t>(LdapOp::AddResponse),
                              &content) ||
        content != kEnumBytes) {
        return false;
    }
    uint8_t raw = 0;
    if (!reader.readEnum(&raw) || !reader.atEnd())
        return false;
    *code = static_cast<LdapCode>(raw);
    return true;
}

// DN normalization ---------------------------------------------------------

bool
normalizeDn(std::string_view dn, std::string *out)
{
    out->clear();
    out->reserve(dn.size());
    if (dn.empty())
        return false;

    size_t pos = 0;
    bool first_component = true;
    while (pos < dn.size()) {
        size_t end = dn.find(',', pos);
        if (end == std::string_view::npos)
            end = dn.size();
        std::string_view component = dn.substr(pos, end - pos);
        pos = end + 1;

        // Trim surrounding spaces.
        while (!component.empty() && component.front() == ' ')
            component.remove_prefix(1);
        while (!component.empty() && component.back() == ' ')
            component.remove_suffix(1);
        const size_t eq = component.find('=');
        if (eq == std::string_view::npos || eq == 0 ||
            eq == component.size() - 1) {
            return false;
        }
        std::string_view type = component.substr(0, eq);
        std::string_view value = component.substr(eq + 1);
        while (!type.empty() && type.back() == ' ')
            type.remove_suffix(1);
        while (!value.empty() && value.front() == ' ')
            value.remove_prefix(1);
        if (type.empty() || value.empty())
            return false;

        if (!first_component)
            out->push_back(',');
        first_component = false;
        for (char c : type)
            out->push_back(static_cast<char>(
                std::tolower(static_cast<unsigned char>(c))));
        out->push_back('=');
        for (char c : value)
            out->push_back(static_cast<char>(
                std::tolower(static_cast<unsigned char>(c))));
    }
    return true;
}

// AccessControl -------------------------------------------------------------

void
AccessControl::setDefault(bool allow_add)
{
    defaultRule_.allowAdd = allow_add;
}

const AclRule *
AccessControl::match(std::string_view normalized_dn) const
{
    for (const AclRule &rule : rules_) {
        if (rule.subtreeSuffix.empty() ||
            (normalized_dn.size() >= rule.subtreeSuffix.size() &&
             normalized_dn.substr(normalized_dn.size() -
                                  rule.subtreeSuffix.size()) ==
                 rule.subtreeSuffix)) {
            return &rule;
        }
    }
    return &defaultRule_;
}

bool
AccessControl::mayAdd(std::string_view normalized_dn) const
{
    return match(normalized_dn)->allowAdd;
}

} // namespace wsp::apps

/**
 * @file
 * Tests for the LDAP-style wire protocol: BER codec, DN
 * normalization, ACL engine, and the full request pipeline.
 */

#include <gtest/gtest.h>

#include "apps/ldap_protocol.h"
#include "pheap/policies.h"

namespace wsp::apps {
namespace {

using pmem::PHeap;
using pmem::PHeapConfig;
using pmem::RawPolicy;

DirectoryEntry
sampleEntry()
{
    DirectoryEntry entry;
    entry.dn = "uid=ada.lovelace.1,ou=people,dc=example,dc=com";
    entry.attributes = {
        {"objectClass", "inetOrgPerson"},
        {"cn", "Ada Lovelace"},
        {"mail", "ada@example.com"},
    };
    return entry;
}

/**
 * Offset of the op tag in an encoded message: after the message tag
 * and its four-byte long-form length, and after the message id.
 */
size_t
opTagOffset(const std::vector<uint8_t> &bytes)
{
    constexpr size_t kMessageHeader = 5;
    return kMessageHeader + 2 + bytes[kMessageHeader + 1];
}

/**
 * A response message whose body, tagged @p op_tag, holds the result
 * enum followed by @p extra octet strings.
 */
std::vector<uint8_t>
responseMessage(uint8_t op_tag, uint32_t id, LdapCode code, int extra = 0)
{
    BerWriter writer;
    const size_t message = writer.beginSequence(0x30);
    writer.writeInteger(id);
    const size_t body = writer.beginSequence(op_tag);
    writer.writeEnum(static_cast<uint8_t>(code));
    for (int i = 0; i < extra; ++i)
        writer.writeOctetString("uid=x,dc=example");
    writer.endSequence(body);
    writer.endSequence(message);
    return writer.bytes();
}

// BER codec -------------------------------------------------------------

TEST(Ber, AddRequestRoundTrip)
{
    const DirectoryEntry entry = sampleEntry();
    const auto bytes = encodeAddRequest(entry, 77);
    uint32_t id = 0;
    DirectoryEntry back;
    ASSERT_TRUE(decodeAddRequest(bytes, &id, &back));
    EXPECT_EQ(id, 77u);
    EXPECT_EQ(back.dn, entry.dn);
    ASSERT_EQ(back.attributes.size(), entry.attributes.size());
    for (size_t i = 0; i < entry.attributes.size(); ++i) {
        EXPECT_EQ(back.attributes[i], entry.attributes[i]);
    }
}

TEST(Ber, ResponseRoundTrip)
{
    const auto bytes = encodeResponse(9, LdapCode::EntryAlreadyExists);
    uint32_t id = 0;
    LdapCode code = LdapCode::Success;
    ASSERT_TRUE(decodeResponse(bytes, &id, &code));
    EXPECT_EQ(id, 9u);
    EXPECT_EQ(code, LdapCode::EntryAlreadyExists);
}

TEST(Ber, ResponseRejectsOtherOpTagsAndBodies)
{
    const uint8_t add_response = static_cast<uint8_t>(LdapOp::AddResponse);
    EXPECT_EQ(encodeResponse(21, LdapCode::Success),
              responseMessage(add_response, 21, LdapCode::Success));
    uint32_t id = 0;
    LdapCode code = LdapCode::ProtocolError;
    ASSERT_TRUE(decodeResponse(
        responseMessage(add_response, 21, LdapCode::Success), &id, &code));
    EXPECT_EQ(id, 21u);
    EXPECT_EQ(code, LdapCode::Success);

    // LDAP's DelResponse, SearchResultDone and ModifyResponse tags,
    // and a message tagged as an AddRequest, are not Add results.
    for (uint8_t tag : {0x6b, 0x65, 0x64, 0x67, 0x68}) {
        EXPECT_FALSE(decodeResponse(
            responseMessage(tag, 21, LdapCode::Success), &id, &code))
            << "tag " << int(tag);
    }
    // A body that carries more than the result (a search entry's DN).
    EXPECT_FALSE(decodeResponse(
        responseMessage(add_response, 21, LdapCode::Success, 1), &id,
        &code));
    // A body without the result.
    BerWriter empty;
    const size_t message = empty.beginSequence(0x30);
    empty.writeInteger(21);
    empty.endSequence(empty.beginSequence(add_response));
    empty.endSequence(message);
    EXPECT_FALSE(decodeResponse(empty.bytes(), &id, &code));
}

TEST(Ber, EmptyBufferRejected)
{
    uint32_t id = 0;
    DirectoryEntry entry;
    EXPECT_FALSE(decodeAddRequest({}, &id, &entry));
}

TEST(Ber, TruncatedBufferRejected)
{
    auto bytes = encodeAddRequest(sampleEntry(), 1);
    for (size_t cut : {size_t{1}, bytes.size() / 2, bytes.size() - 1}) {
        uint32_t id = 0;
        DirectoryEntry entry;
        std::vector<uint8_t> cut_bytes(bytes.begin(),
                                       bytes.begin() +
                                           static_cast<ptrdiff_t>(cut));
        EXPECT_FALSE(decodeAddRequest(cut_bytes, &id, &entry))
            << "cut at " << cut;
    }
}

TEST(Ber, WrongTagRejected)
{
    auto bytes = encodeAddRequest(sampleEntry(), 1);
    bytes[0] = 0x55; // clobber the message tag
    uint32_t id = 0;
    DirectoryEntry entry;
    EXPECT_FALSE(decodeAddRequest(bytes, &id, &entry));
}

TEST(Ber, RandomGarbageNeverCrashes)
{
    Rng rng(123);
    for (int trial = 0; trial < 500; ++trial) {
        std::vector<uint8_t> garbage(rng.next(200));
        for (auto &b : garbage)
            b = static_cast<uint8_t>(rng());
        uint32_t id = 0;
        DirectoryEntry entry;
        decodeAddRequest(garbage, &id, &entry); // must not crash
        LdapCode code;
        decodeResponse(garbage, &id, &code);
    }
    SUCCEED();
}

TEST(Ber, LargeValuesSurvive)
{
    DirectoryEntry entry = sampleEntry();
    entry.attributes.push_back({"description", std::string(100000, 'x')});
    const auto bytes = encodeAddRequest(entry, 5);
    uint32_t id = 0;
    DirectoryEntry back;
    ASSERT_TRUE(decodeAddRequest(bytes, &id, &back));
    EXPECT_EQ(back.attributes.back().second.size(), 100000u);
}

TEST(Ber, MessageIdBoundaries)
{
    for (uint32_t id : {0u, 1u, 127u, 128u, 65535u, ~0u}) {
        const auto bytes = encodeAddRequest(sampleEntry(), id);
        uint32_t back = 1;
        DirectoryEntry entry;
        ASSERT_TRUE(decodeAddRequest(bytes, &back, &entry));
        EXPECT_EQ(back, id);
    }
}

// DN normalization ---------------------------------------------------------

TEST(NormalizeDn, LowercasesAndTrims)
{
    std::string out;
    ASSERT_TRUE(normalizeDn("UID = Ada , OU=People, DC=Example", &out));
    EXPECT_EQ(out, "uid=ada,ou=people,dc=example");
}

TEST(NormalizeDn, IdempotentOnNormalForm)
{
    std::string once;
    std::string twice;
    ASSERT_TRUE(normalizeDn("uid=x,dc=example,dc=com", &once));
    ASSERT_TRUE(normalizeDn(once, &twice));
    EXPECT_EQ(once, twice);
}

TEST(NormalizeDn, RejectsMissingEquals)
{
    std::string out;
    EXPECT_FALSE(normalizeDn("nodice", &out));
    EXPECT_FALSE(normalizeDn("uid=x,bogus,dc=com", &out));
}

TEST(NormalizeDn, RejectsEmptyParts)
{
    std::string out;
    EXPECT_FALSE(normalizeDn("", &out));
    EXPECT_FALSE(normalizeDn("=value", &out));
    EXPECT_FALSE(normalizeDn("uid=", &out));
    EXPECT_FALSE(normalizeDn("uid= ,dc=com", &out));
}

TEST(NormalizeDn, PreservesComponentOrder)
{
    std::string out;
    ASSERT_TRUE(normalizeDn("cn=A,ou=B,dc=C", &out));
    EXPECT_EQ(out, "cn=a,ou=b,dc=c");
}

// ACL ----------------------------------------------------------------------

TEST(Acl, FirstMatchWins)
{
    AccessControl acl;
    acl.addRule(AclRule{"ou=secret,dc=example", false});
    acl.addRule(AclRule{"dc=example", true});
    EXPECT_FALSE(acl.mayAdd("uid=x,ou=secret,dc=example"));
    EXPECT_TRUE(acl.mayAdd("uid=x,ou=people,dc=example"));
}

TEST(Acl, DefaultPolicyApplies)
{
    AccessControl acl;
    EXPECT_TRUE(acl.mayAdd("uid=x,dc=other"));
    acl.setDefault(false);
    EXPECT_FALSE(acl.mayAdd("uid=x,dc=other"));
}

TEST(Acl, EmptySuffixMatchesEverything)
{
    AccessControl acl;
    acl.setDefault(false);
    acl.addRule(AclRule{"", true});
    EXPECT_TRUE(acl.mayAdd("anything=really"));
}

TEST(Acl, SuffixMustMatchAtEnd)
{
    AccessControl acl;
    acl.addRule(AclRule{"dc=example", false});
    acl.setDefault(true);
    // "dc=example" in the middle does not match the subtree rule.
    EXPECT_TRUE(acl.mayAdd("dc=example,dc=org"));
    EXPECT_FALSE(acl.mayAdd("ou=x,dc=example"));
}

// Pipeline -------------------------------------------------------------

struct PipelineFixture : ::testing::Test
{
    PipelineFixture() : heap(makeConfig()), server(heap)
    {
        acl.addRule(AclRule{"dc=example,dc=com", true});
        acl.setDefault(false);
    }

    static PHeapConfig
    makeConfig()
    {
        PHeapConfig config;
        config.regionSize = 32ull * 1024 * 1024;
        config.durableLogs = false;
        return config;
    }

    LdapCode
    submit(const DirectoryEntry &entry, uint32_t id = 1)
    {
        const auto response =
            handleAddRequest(server, acl, encodeAddRequest(entry, id));
        uint32_t out_id = 0;
        LdapCode code = LdapCode::ProtocolError;
        EXPECT_TRUE(decodeResponse(response, &out_id, &code));
        EXPECT_EQ(out_id, id);
        return code;
    }

    PHeap heap;
    DirectoryServer<RawPolicy> server;
    AccessControl acl;
};

TEST_F(PipelineFixture, SuccessfulAdd)
{
    EXPECT_EQ(submit(sampleEntry()), LdapCode::Success);
    EXPECT_EQ(server.entryCount(), 1u);
}

TEST_F(PipelineFixture, DuplicateReported)
{
    EXPECT_EQ(submit(sampleEntry()), LdapCode::Success);
    EXPECT_EQ(submit(sampleEntry()), LdapCode::EntryAlreadyExists);
}

TEST_F(PipelineFixture, DnsNormalizedBeforeIndexing)
{
    DirectoryEntry entry = sampleEntry();
    EXPECT_EQ(submit(entry), LdapCode::Success);
    // The same DN with different case is the same entry.
    entry.dn = "UID=Ada.Lovelace.1, OU=People, DC=Example, DC=Com";
    EXPECT_EQ(submit(entry), LdapCode::EntryAlreadyExists);
}

TEST_F(PipelineFixture, AclDeniesOutsideSuffix)
{
    DirectoryEntry entry = sampleEntry();
    entry.dn = "uid=intruder,dc=evil,dc=org";
    EXPECT_EQ(submit(entry), LdapCode::InsufficientAccessRights);
    EXPECT_EQ(server.entryCount(), 0u);
}

TEST_F(PipelineFixture, BadDnRejected)
{
    DirectoryEntry entry = sampleEntry();
    entry.dn = "notadn";
    EXPECT_EQ(submit(entry), LdapCode::InvalidDnSyntax);
}

TEST_F(PipelineFixture, UnknownAttributeRejected)
{
    DirectoryEntry entry = sampleEntry();
    entry.attributes.push_back({"flavour", "vanilla"});
    EXPECT_EQ(submit(entry), LdapCode::UndefinedAttributeType);
}

TEST_F(PipelineFixture, GarbageRequestGetsProtocolError)
{
    const std::vector<uint8_t> garbage = {0x30, 0x03, 0x01, 0x02, 0x03};
    const auto response = handleAddRequest(server, acl, garbage);
    uint32_t id = 0;
    LdapCode code = LdapCode::Success;
    ASSERT_TRUE(decodeResponse(response, &id, &code));
    EXPECT_EQ(code, LdapCode::ProtocolError);
}

TEST(Ber, CrossOpDecodeRejected)
{
    // Only the AddRequest tag decodes as an AddRequest: the same body
    // under any other op tag (LDAP's Del, Modify and Search request
    // tags, or the AddResponse) is rejected.
    const auto bytes = encodeAddRequest(sampleEntry(), 13);
    const size_t op_tag = opTagOffset(bytes);
    ASSERT_EQ(bytes[op_tag], static_cast<uint8_t>(LdapOp::AddRequest));
    for (uint8_t other : {0x4a, 0x66, 0x63, 0x69}) {
        auto retagged = bytes;
        retagged[op_tag] = other;
        uint32_t id = 0;
        DirectoryEntry entry;
        EXPECT_FALSE(decodeAddRequest(retagged, &id, &entry))
            << "tag " << int(other);
    }
}

TEST(LdapCodeMapping, CoversDirectoryResults)
{
    EXPECT_EQ(toLdapCode(DirectoryResult::Success), LdapCode::Success);
    EXPECT_EQ(toLdapCode(DirectoryResult::EntryAlreadyExists),
              LdapCode::EntryAlreadyExists);
    EXPECT_EQ(toLdapCode(DirectoryResult::UndefinedAttributeType),
              LdapCode::UndefinedAttributeType);
    EXPECT_EQ(toLdapCode(DirectoryResult::InvalidSyntax),
              LdapCode::InvalidDnSyntax);
}

} // namespace
} // namespace wsp::apps

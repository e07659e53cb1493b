// Unit tests for the net substrate: addresses, checksums, IPv4/ICMP/TCP/UDP
// codecs, and whole-packet building/parsing.
#include <gtest/gtest.h>

#include "net/checksum.hpp"
#include "net/icmp.hpp"
#include "net/ip_address.hpp"
#include "net/ipv4.hpp"
#include "net/packet_builder.hpp"
#include "net/tcp.hpp"
#include "net/udp.hpp"

namespace lfp::net {
namespace {

const IPv4Address kSrc = IPv4Address::from_octets(192, 0, 2, 1);
const IPv4Address kDst = IPv4Address::from_octets(198, 51, 100, 7);

TEST(IPv4Address, ParseValid) {
    auto a = IPv4Address::parse("10.1.2.3");
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a.value().to_string(), "10.1.2.3");
    EXPECT_EQ(a.value().octet(0), 10);
    EXPECT_EQ(a.value().octet(3), 3);
}

struct BadAddressCase {
    const char* text;
};
// Names the case by its input; without this GoogleTest prints the pointer's bytes, which
// change with every run and so rename the discovered ctest cases.
void PrintTo(const BadAddressCase& c, std::ostream* os) { *os << '\'' << c.text << '\''; }
class IPv4AddressBadParse : public ::testing::TestWithParam<BadAddressCase> {};

TEST_P(IPv4AddressBadParse, Rejects) {
    EXPECT_FALSE(IPv4Address::parse(GetParam().text).has_value()) << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(Malformed, IPv4AddressBadParse,
                         ::testing::Values(BadAddressCase{""}, BadAddressCase{"1.2.3"},
                                           BadAddressCase{"1.2.3.4.5"}, BadAddressCase{"256.1.1.1"},
                                           BadAddressCase{"1..2.3"}, BadAddressCase{"a.b.c.d"},
                                           BadAddressCase{"1.2.3.4 "}, BadAddressCase{"01.2.3.4"},
                                           BadAddressCase{"-1.2.3.4"}));

TEST(IPv4Address, SpecialRanges) {
    EXPECT_TRUE(IPv4Address::from_octets(10, 0, 0, 1).is_private());
    EXPECT_TRUE(IPv4Address::from_octets(172, 16, 0, 1).is_private());
    EXPECT_TRUE(IPv4Address::from_octets(172, 31, 255, 1).is_private());
    EXPECT_FALSE(IPv4Address::from_octets(172, 32, 0, 1).is_private());
    EXPECT_TRUE(IPv4Address::from_octets(192, 168, 5, 5).is_private());
    EXPECT_TRUE(IPv4Address::from_octets(127, 0, 0, 1).is_special());
    EXPECT_TRUE(IPv4Address::from_octets(169, 254, 1, 1).is_special());
    EXPECT_TRUE(IPv4Address::from_octets(224, 0, 0, 1).is_special());
    EXPECT_TRUE(IPv4Address::from_octets(100, 64, 1, 1).is_special());
    EXPECT_TRUE(IPv4Address::from_octets(8, 8, 8, 8).is_routable());
    EXPECT_FALSE(IPv4Address::from_octets(10, 1, 1, 1).is_routable());
}

TEST(Checksum, KnownVector) {
    // RFC 1071 example data.
    const std::vector<std::uint8_t> data{0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7};
    EXPECT_EQ(internet_checksum(data), 0xFFFF - ((0x0001 + 0xF203 + 0xF4F5 + 0xF6F7) % 0xFFFF));
}

TEST(Checksum, OddLengthPads) {
    const std::vector<std::uint8_t> data{0xAB};
    EXPECT_EQ(internet_checksum(data), static_cast<std::uint16_t>(~0xAB00 & 0xFFFF));
}

TEST(Checksum, SelfVerifies) {
    std::vector<std::uint8_t> data{0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x40, 0x00,
                                   0x40, 0x01, 0x00, 0x00, 0xc0, 0x00, 0x02, 0x01,
                                   0xc6, 0x33, 0x64, 0x07};
    const std::uint16_t checksum = internet_checksum(data);
    data[10] = static_cast<std::uint8_t>(checksum >> 8);
    data[11] = static_cast<std::uint8_t>(checksum & 0xFF);
    EXPECT_TRUE(checksum_ok(data));
}

TEST(Ipv4Header, SerializeParseRoundTrip) {
    Ipv4Header header;
    header.tos = 0x10;
    header.total_length = 40;
    header.identification = 0xBEEF;
    header.flags_fragment = Ipv4Header::kFlagDontFragment;
    header.ttl = 57;
    header.protocol = Protocol::tcp;
    header.source = kSrc;
    header.destination = kDst;

    Bytes wire;
    ByteWriter writer(wire);
    header.serialize(writer);
    ASSERT_EQ(wire.size(), Ipv4Header::kSize);
    EXPECT_TRUE(checksum_ok(wire));

    auto parsed = Ipv4Header::parse(wire);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed.value(), header);
}

TEST(Ipv4Header, RejectsCorruption) {
    Ipv4Header header;
    header.source = kSrc;
    header.destination = kDst;
    Bytes wire;
    ByteWriter writer(wire);
    header.serialize(writer);

    Bytes truncated(wire.begin(), wire.begin() + 10);
    EXPECT_FALSE(Ipv4Header::parse(truncated).has_value());

    Bytes flipped = wire;
    flipped[12] ^= 0xFF;  // corrupt source address -> checksum mismatch
    EXPECT_FALSE(Ipv4Header::parse(flipped).has_value());

    Bytes wrong_version = wire;
    wrong_version[0] = 0x65;
    EXPECT_FALSE(Ipv4Header::parse(wrong_version).has_value());
}

TEST(Ipv4Header, RewriteTtlKeepsChecksumValid) {
    Ipv4Header header;
    header.source = kSrc;
    header.destination = kDst;
    header.ttl = 64;
    Bytes wire;
    ByteWriter writer(wire);
    header.serialize(writer);

    ASSERT_TRUE(rewrite_ttl(wire, 33));
    EXPECT_TRUE(checksum_ok(wire));
    auto parsed = Ipv4Header::parse(wire);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed.value().ttl, 33);

    std::vector<std::uint8_t> too_short(10, 0);
    EXPECT_FALSE(rewrite_ttl(too_short, 5));
}

TEST(Ipv4Header, PeekHelpers) {
    Ipv4Header header;
    header.source = kSrc;
    header.destination = kDst;
    header.ttl = 49;
    Bytes wire;
    ByteWriter writer(wire);
    header.serialize(writer);

    auto destination = peek_destination(wire);
    ASSERT_TRUE(destination.has_value());
    EXPECT_EQ(destination.value(), kDst);
    auto ttl = peek_ttl(wire);
    ASSERT_TRUE(ttl.has_value());
    EXPECT_EQ(ttl.value(), 49);
    EXPECT_FALSE(peek_destination(std::vector<std::uint8_t>(4)).has_value());
}

TEST(Icmp, EchoRoundTrip) {
    IcmpEcho echo;
    echo.is_reply = false;
    echo.identifier = 0x1234;
    echo.sequence = 2;
    echo.payload.assign(56, 0xA5);

    const Bytes wire = serialize_icmp(IcmpMessage{echo});
    EXPECT_EQ(wire.size(), 8u + 56u);
    auto parsed = parse_icmp(wire);
    ASSERT_TRUE(parsed.has_value());
    const auto* out = std::get_if<IcmpEcho>(&parsed.value());
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(*out, echo);
}

TEST(Icmp, ErrorQuoteRoundTrip) {
    IcmpError error;
    error.type = IcmpType::destination_unreachable;
    error.code = kIcmpCodePortUnreachable;
    error.quoted.assign(28, 0x42);

    const Bytes wire = serialize_icmp(IcmpMessage{error});
    auto parsed = parse_icmp(wire);
    ASSERT_TRUE(parsed.has_value());
    const auto* out = std::get_if<IcmpError>(&parsed.value());
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(*out, error);
}

TEST(Icmp, RejectsBadChecksumAndTruncation) {
    IcmpEcho echo;
    echo.payload.assign(4, 1);
    Bytes wire = serialize_icmp(IcmpMessage{echo});
    wire[5] ^= 0x40;
    EXPECT_FALSE(parse_icmp(wire).has_value());
    EXPECT_FALSE(parse_icmp(std::vector<std::uint8_t>{8, 0, 0}).has_value());
}

TEST(Tcp, RoundTripWithOptions) {
    TcpSegment segment;
    segment.source_port = 43211;
    segment.destination_port = 33533;
    segment.sequence = 0xDEADBEEF;
    segment.acknowledgment = 0x1;
    segment.flags.syn = true;
    segment.window = 64240;
    segment.options.push_back({TcpOptionKind::mss, {0x05, 0xB4}});
    segment.options.push_back({TcpOptionKind::sack_permitted, {}});
    segment.options.push_back({TcpOptionKind::nop, {}});
    segment.options.push_back({TcpOptionKind::timestamps, Bytes(8, 0x01)});

    const Bytes wire = serialize_tcp(segment, kSrc, kDst);
    EXPECT_EQ(wire.size() % 4, 0u);
    auto parsed = parse_tcp(wire, kSrc, kDst);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed.value().source_port, segment.source_port);
    EXPECT_EQ(parsed.value().sequence, segment.sequence);
    EXPECT_TRUE(parsed.value().flags.syn);
    EXPECT_EQ(parsed.value().mss(), std::optional<std::uint16_t>(1460));
    bool saw_sack = false;
    bool saw_ts = false;
    for (const auto& option : parsed.value().options) {
        if (option.kind == TcpOptionKind::sack_permitted) saw_sack = true;
        if (option.kind == TcpOptionKind::timestamps) saw_ts = true;
    }
    EXPECT_TRUE(saw_sack);
    EXPECT_TRUE(saw_ts);
}

TEST(Tcp, ChecksumBindsAddresses) {
    TcpSegment segment;
    segment.source_port = 1;
    segment.destination_port = 2;
    const Bytes wire = serialize_tcp(segment, kSrc, kDst);
    EXPECT_TRUE(parse_tcp(wire, kSrc, kDst).has_value());
    // Same bytes against a different pseudo-header address must fail.
    // (Swapping src/dst would NOT change the sum — addition commutes — so
    // use a genuinely different address.)
    const auto other = IPv4Address::from_octets(203, 0, 113, 99);
    EXPECT_FALSE(parse_tcp(wire, kSrc, other).has_value());
}

TEST(Tcp, FlagsByteRoundTrip) {
    for (int bits = 0; bits < 64; ++bits) {
        const auto flags = TcpFlags::from_byte(static_cast<std::uint8_t>(bits));
        EXPECT_EQ(flags.to_byte(), bits);
    }
}

TEST(Tcp, RejectsBadOptionLength) {
    TcpSegment segment;
    Bytes wire = serialize_tcp(segment, kSrc, kDst);
    EXPECT_FALSE(parse_tcp(std::vector<std::uint8_t>(wire.begin(), wire.begin() + 12), kSrc, kDst)
                     .has_value());
}

TEST(Udp, RoundTrip) {
    UdpDatagram datagram;
    datagram.source_port = 43211;
    datagram.destination_port = 161;
    datagram.payload.assign(12, 0x00);
    const Bytes wire = serialize_udp(datagram, kSrc, kDst);
    EXPECT_EQ(wire.size(), 20u);
    auto parsed = parse_udp(wire, kSrc, kDst);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed.value(), datagram);
}

TEST(Udp, RejectsBadLengthAndChecksum) {
    UdpDatagram datagram;
    datagram.payload.assign(4, 7);
    Bytes wire = serialize_udp(datagram, kSrc, kDst);
    wire[9] ^= 0x01;  // corrupt payload
    EXPECT_FALSE(parse_udp(wire, kSrc, kDst).has_value());
    EXPECT_FALSE(parse_udp(std::vector<std::uint8_t>{0, 1, 2}, kSrc, kDst).has_value());
}

TEST(PacketBuilder, EchoRequestEndToEnd) {
    IpSendOptions ip;
    ip.source = kSrc;
    ip.destination = kDst;
    ip.identification = 0x77;
    ip.ttl = 64;
    const Bytes payload(56, 0xA5);
    const Bytes packet = make_icmp_echo_request(ip, 9, 1, payload);
    EXPECT_EQ(packet.size(), 84u);  // the paper's 84-byte echo

    auto parsed = parse_packet(packet);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed.value().ip.protocol, Protocol::icmp);
    EXPECT_EQ(parsed.value().ip.identification, 0x77);
    const auto* icmp = parsed.value().icmp();
    ASSERT_NE(icmp, nullptr);
    const auto* echo = std::get_if<IcmpEcho>(icmp);
    ASSERT_NE(echo, nullptr);
    EXPECT_EQ(echo->payload.size(), 56u);
}

TEST(PacketBuilder, IcmpErrorQuoteLimits) {
    IpSendOptions ip;
    ip.source = kDst;
    ip.destination = kSrc;
    // Offending packet: a 40-byte UDP probe (20 IP + 8 UDP + 12 payload).
    IpSendOptions probe_ip;
    probe_ip.source = kSrc;
    probe_ip.destination = kDst;
    UdpDatagram probe;
    probe.source_port = 4000;
    probe.destination_port = 33533;
    probe.payload.assign(12, 0);
    const Bytes offending = make_udp_packet(probe_ip, probe);
    ASSERT_EQ(offending.size(), 40u);

    // RFC 792 minimal quote: IP header + 8 -> 56-byte response.
    const Bytes minimal = make_icmp_error(ip, IcmpType::destination_unreachable,
                                          kIcmpCodePortUnreachable, offending, 28);
    EXPECT_EQ(minimal.size(), 56u);
    // Full quote -> 68-byte response (Linux-style stacks).
    const Bytes full = make_icmp_error(ip, IcmpType::destination_unreachable,
                                       kIcmpCodePortUnreachable, offending, 65535);
    EXPECT_EQ(full.size(), 68u);
}

TEST(PacketBuilder, ParseRejectsGarbage) {
    EXPECT_FALSE(parse_packet(std::vector<std::uint8_t>{}).has_value());
    EXPECT_FALSE(parse_packet(std::vector<std::uint8_t>(19, 0)).has_value());
    std::vector<std::uint8_t> zeros(64, 0);
    EXPECT_FALSE(parse_packet(zeros).has_value());
}

}  // namespace
}  // namespace lfp::net

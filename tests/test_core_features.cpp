// Unit tests for the LFP core: IPID classification (threshold semantics,
// wraparound), shared-counter detection, iTTL inference, feature extraction,
// signature canonicalisation, database thresholding, and the classifier.
#include <gtest/gtest.h>

#include "core/classifier.hpp"
#include "core/feature.hpp"
#include "core/ipid_classifier.hpp"
#include "core/pipeline.hpp"
#include "core/signature.hpp"
#include "core/signature_db.hpp"
#include "net/packet_builder.hpp"
#include "util/rng.hpp"

namespace lfp::core {
namespace {

using probe::ProtoIndex;

// ------------------------------------------------------------- IPID classes

struct IpidCase {
    std::vector<std::uint16_t> ids;
    IpidClass expected;
    const char* why;
};
// Stable ctest names: the default printer would dump the vector's and pointer's bytes.
void PrintTo(const IpidCase& c, std::ostream* os) { *os << c.why; }

class IpidClassification : public ::testing::TestWithParam<IpidCase> {};

TEST_P(IpidClassification, Classifies) {
    const auto& param = GetParam();
    EXPECT_EQ(classify_ipid_sequence(param.ids), param.expected) << param.why;
}

INSTANTIATE_TEST_SUITE_P(
    Sequences, IpidClassification,
    ::testing::Values(
        IpidCase{{100, 101, 102}, IpidClass::incremental, "unit steps"},
        IpidCase{{100, 600, 1100}, IpidClass::incremental, "busy router, steps 500"},
        IpidCase{{100, 1400, 2700}, IpidClass::incremental, "steps exactly at threshold"},
        IpidCase{{100, 1500, 2800}, IpidClass::random, "step above threshold 1300"},
        IpidCase{{65530, 2, 8}, IpidClass::incremental, "wraparound is incremental"},
        IpidCase{{40000, 20000, 30000}, IpidClass::random, "backwards jump"},
        IpidCase{{0, 0, 0}, IpidClass::zero, "all zero"},
        IpidCase{{4660, 4660, 4660}, IpidClass::static_value, "constant non-zero"},
        IpidCase{{55, 55, 900}, IpidClass::duplicate, "two equal then advance"},
        IpidCase{{900, 55, 55}, IpidClass::duplicate, "advance then two equal"},
        IpidCase{{55, 900, 55}, IpidClass::duplicate, "equal non-adjacent"},
        IpidCase{{7}, IpidClass::unknown, "single sample"},
        IpidCase{{}, IpidClass::unknown, "no samples"}));

TEST(IpidClassifier, ThresholdIsConfigurable) {
    const std::vector<std::uint16_t> ids{0, 2000, 4000};
    EXPECT_EQ(classify_ipid_sequence(ids, {.threshold = 1300}), IpidClass::random);
    EXPECT_EQ(classify_ipid_sequence(ids, {.threshold = 2000}), IpidClass::incremental);
}

TEST(IpidClassifier, MaxStepWraparound) {
    EXPECT_EQ(max_ipid_step(std::vector<std::uint16_t>{65530, 4}).value(), 10);
    EXPECT_EQ(max_ipid_step(std::vector<std::uint16_t>{1, 3, 2}).value(), 65535);
    EXPECT_FALSE(max_ipid_step(std::vector<std::uint16_t>{1}).has_value());
}

TEST(IpidClassifier, RandomSequencesRarelyMisclassified) {
    // Paper §3.6: P(random misread as sequential) ~ (1301/65536)^steps.
    util::Rng rng(123);
    int misclassified = 0;
    constexpr int kTrials = 20000;
    for (int t = 0; t < kTrials; ++t) {
        std::vector<std::uint16_t> ids{static_cast<std::uint16_t>(rng.next()),
                                       static_cast<std::uint16_t>(rng.next()),
                                       static_cast<std::uint16_t>(rng.next())};
        if (classify_ipid_sequence(ids) == IpidClass::incremental) ++misclassified;
    }
    // Expected rate ≈ 0.0198^2 ≈ 4e-4 → ~8 in 20k; allow generous slack.
    EXPECT_LT(misclassified, 40);
}

TEST(IpidClassifier, SharedCounterDetection) {
    // One counter serving interleaved protocols → monotonic small steps.
    EXPECT_TRUE(is_shared_counter({{0, 100}, {1, 103}, {2, 110}, {3, 111}}));
    // Wraparound inside the merged sequence still shared.
    EXPECT_TRUE(is_shared_counter({{0, 65530}, {1, 65534}, {2, 3}, {3, 9}}));
    // Two independent counters interleaved → big jumps.
    EXPECT_FALSE(is_shared_counter({{0, 100}, {1, 40000}, {2, 105}, {3, 40010}}));
    // Equal values (echoed/static) are not a shared counter.
    EXPECT_FALSE(is_shared_counter({{0, 5}, {1, 5}, {2, 5}}));
    // Order comes from send_index, not insertion order.
    EXPECT_TRUE(is_shared_counter({{3, 111}, {0, 100}, {2, 110}, {1, 103}}));
    EXPECT_FALSE(is_shared_counter({{0, 1}}));
}

// ---------------------------------------------------------------- iTTL

TEST(Ittl, RoundsUpToCanonicalValues) {
    EXPECT_EQ(infer_initial_ttl(0), 0);
    EXPECT_EQ(infer_initial_ttl(1), 32);
    EXPECT_EQ(infer_initial_ttl(32), 32);
    EXPECT_EQ(infer_initial_ttl(33), 64);
    EXPECT_EQ(infer_initial_ttl(57), 64);
    EXPECT_EQ(infer_initial_ttl(64), 64);
    EXPECT_EQ(infer_initial_ttl(65), 128);
    EXPECT_EQ(infer_initial_ttl(128), 128);
    EXPECT_EQ(infer_initial_ttl(129), 255);
    EXPECT_EQ(infer_initial_ttl(240), 255);
    EXPECT_EQ(infer_initial_ttl(255), 255);
}

// ------------------------------------------------------ feature extraction

const net::IPv4Address kVantage = net::IPv4Address::from_octets(192, 0, 2, 9);
const net::IPv4Address kTarget = net::IPv4Address::from_octets(5, 1, 1, 1);

/// Builds a synthetic probe result with hand-chosen response parameters.
struct FakeResponder {
    std::uint8_t ittl_icmp = 255;
    std::uint8_t ittl_tcp = 64;
    std::uint8_t ittl_udp = 255;
    bool echo_ipid = false;
    std::vector<std::uint16_t> icmp_ipids{100, 101, 102};
    std::vector<std::uint16_t> tcp_ipids{200, 202, 204};
    std::vector<std::uint16_t> udp_ipids{300, 303, 306};
    bool respond_icmp = true;
    bool respond_tcp = true;
    bool respond_udp = true;
    std::uint32_t rst_seq = 0;
    std::size_t quote = 28;

    probe::TargetProbeResult build() const {
        probe::TargetProbeResult result;
        result.target = kTarget;
        std::uint32_t send_index = 0;
        for (std::size_t round = 0; round < 3; ++round) {
            for (std::size_t p = 0; p < 3; ++p) {
                auto& exchange = result.probes[p][round];
                exchange.send_index = send_index++;
                exchange.request_ipid = static_cast<std::uint16_t>(0x3000 + exchange.send_index);

                net::IpSendOptions probe_ip;
                probe_ip.source = kVantage;
                probe_ip.destination = kTarget;
                probe_ip.identification = exchange.request_ipid;

                net::IpSendOptions reply_ip;
                reply_ip.source = kTarget;
                reply_ip.destination = kVantage;

                if (p == 0) {
                    exchange.request =
                        net::make_icmp_echo_request(probe_ip, 7, static_cast<std::uint16_t>(round),
                                                    net::Bytes(56, 0xA5));
                    if (!respond_icmp) continue;
                    reply_ip.ttl = ittl_icmp;
                    reply_ip.identification =
                        echo_ipid ? exchange.request_ipid : icmp_ipids[round];
                    net::IcmpEcho echo;
                    echo.identifier = 7;
                    echo.sequence = static_cast<std::uint16_t>(round);
                    echo.payload.assign(56, 0xA5);
                    exchange.response = net::make_icmp_echo_reply(reply_ip, echo);
                } else if (p == 1) {
                    net::TcpSegment probe_segment;
                    probe_segment.source_port = 43211;
                    probe_segment.destination_port = 33533;
                    probe_segment.acknowledgment = 0xBEEF0001;
                    if (round < 2) {
                        probe_segment.flags.ack = true;
                    } else {
                        probe_segment.flags.syn = true;
                    }
                    exchange.request = net::make_tcp_packet(probe_ip, probe_segment);
                    if (!respond_tcp) continue;
                    reply_ip.ttl = ittl_tcp;
                    reply_ip.identification = tcp_ipids[round];
                    net::TcpSegment rst;
                    rst.source_port = 33533;
                    rst.destination_port = 43211;
                    rst.flags.rst = true;
                    rst.sequence = round == 2 ? rst_seq : 0xBEEF0001;
                    exchange.response = net::make_tcp_packet(reply_ip, rst);
                } else {
                    net::UdpDatagram probe_udp;
                    probe_udp.source_port = 43211;
                    probe_udp.destination_port = 33533;
                    probe_udp.payload.assign(12, 0);
                    exchange.request = net::make_udp_packet(probe_ip, probe_udp);
                    if (!respond_udp) continue;
                    reply_ip.ttl = ittl_udp;
                    reply_ip.identification = udp_ipids[round];
                    exchange.response =
                        net::make_icmp_error(reply_ip, net::IcmpType::destination_unreachable,
                                             net::kIcmpCodePortUnreachable, exchange.request,
                                             quote);
                }
            }
        }
        return result;
    }
};

TEST(FeatureExtraction, FullVectorMatchesResponderConfig) {
    FakeResponder responder;
    const FeatureVector features = extract_features(responder.build());
    EXPECT_TRUE(features.complete());
    EXPECT_EQ(features.icmp_ipid_echo, TriState::no);
    EXPECT_EQ(features.ipid_icmp, IpidClass::incremental);
    EXPECT_EQ(features.ipid_tcp, IpidClass::incremental);
    EXPECT_EQ(features.ipid_udp, IpidClass::incremental);
    EXPECT_EQ(features.ittl_icmp, 255);
    EXPECT_EQ(features.ittl_tcp, 64);
    EXPECT_EQ(features.ittl_udp, 255);
    EXPECT_EQ(features.size_icmp, 84);
    EXPECT_EQ(features.size_tcp, 40);
    EXPECT_EQ(features.size_udp, 56);
    EXPECT_EQ(features.tcp_rst_seq_nonzero, TriState::no);
    // Separate counters per protocol: interleaved merge is not monotonic.
    EXPECT_EQ(features.shared_all, TriState::no);
}

TEST(FeatureExtraction, DetectsIpidEcho) {
    FakeResponder responder;
    responder.echo_ipid = true;
    const FeatureVector features = extract_features(responder.build());
    EXPECT_EQ(features.icmp_ipid_echo, TriState::yes);
}

TEST(FeatureExtraction, DetectsSharedCounter) {
    FakeResponder responder;
    // One counter drives all protocols in send order:
    // indices icmp:0,3,6 tcp:1,4,7 udp:2,5,8 → values must interleave.
    responder.icmp_ipids = {1000, 1030, 1060};
    responder.tcp_ipids = {1010, 1040, 1070};
    responder.udp_ipids = {1020, 1050, 1080};
    const FeatureVector features = extract_features(responder.build());
    EXPECT_EQ(features.shared_all, TriState::yes);
    EXPECT_EQ(features.shared_tcp_icmp, TriState::yes);
    EXPECT_EQ(features.shared_udp_icmp, TriState::yes);
    EXPECT_EQ(features.shared_tcp_udp, TriState::yes);
}

TEST(FeatureExtraction, DetectsTcpUdpOnlySharing) {
    FakeResponder responder;
    responder.icmp_ipids = {40000, 40001, 40002};  // separate counter far away
    responder.tcp_ipids = {1010, 1040, 1070};
    responder.udp_ipids = {1020, 1050, 1080};
    const FeatureVector features = extract_features(responder.build());
    EXPECT_EQ(features.shared_all, TriState::no);
    EXPECT_EQ(features.shared_tcp_udp, TriState::yes);
    EXPECT_EQ(features.shared_tcp_icmp, TriState::no);
}

TEST(FeatureExtraction, SharedFlagsFalseForRandomCounters) {
    FakeResponder responder;
    responder.icmp_ipids = {5, 40000, 20000};
    responder.tcp_ipids = {60000, 100, 30000};
    responder.udp_ipids = {7, 50000, 12};
    const FeatureVector features = extract_features(responder.build());
    EXPECT_EQ(features.ipid_icmp, IpidClass::random);
    EXPECT_EQ(features.shared_all, TriState::no);
    EXPECT_EQ(features.shared_tcp_udp, TriState::no);
}

TEST(FeatureExtraction, PartialMaskWhenProtocolSilent) {
    FakeResponder responder;
    responder.respond_tcp = false;
    const FeatureVector features = extract_features(responder.build());
    EXPECT_FALSE(features.complete());
    EXPECT_TRUE(features.has(ProtoIndex::icmp));
    EXPECT_FALSE(features.has(ProtoIndex::tcp));
    EXPECT_TRUE(features.has(ProtoIndex::udp));
    EXPECT_EQ(features.ipid_tcp, IpidClass::unknown);
    EXPECT_EQ(features.ittl_tcp, 0);
    EXPECT_EQ(features.tcp_rst_seq_nonzero, TriState::unknown);
    EXPECT_EQ(features.shared_tcp_udp, TriState::unknown);
    // ICMP+UDP sharing is still evaluable.
    EXPECT_NE(features.shared_udp_icmp, TriState::unknown);
}

TEST(FeatureExtraction, RstSeqNonZero) {
    FakeResponder responder;
    responder.rst_seq = 0xBEEF0001;
    const FeatureVector features = extract_features(responder.build());
    EXPECT_EQ(features.tcp_rst_seq_nonzero, TriState::yes);
}

TEST(FeatureExtraction, FullQuoteChangesUdpSize) {
    FakeResponder responder;
    responder.quote = 65535;
    const FeatureVector features = extract_features(responder.build());
    EXPECT_EQ(features.size_udp, 68);
}

TEST(FeatureExtraction, EmptyWhenAllSilent) {
    FakeResponder responder;
    responder.respond_icmp = responder.respond_tcp = responder.respond_udp = false;
    const FeatureVector features = extract_features(responder.build());
    EXPECT_TRUE(features.empty());
}

// -------------------------------------------------------------- signatures

TEST(Signature, CanonicalFormMatchesTable6Layout) {
    FakeResponder responder;
    // Mimic the paper's Cisco row: echo=False, r r r, no sharing,
    // iTTL (udp,icmp,tcp) = 255,255,64, sizes 84/40/56, RST seq 0.
    responder.icmp_ipids = {5, 40000, 20000};
    responder.tcp_ipids = {60000, 100, 30000};
    responder.udp_ipids = {7, 50000, 12};
    responder.ittl_icmp = 255;
    responder.ittl_tcp = 64;
    responder.ittl_udp = 255;
    const Signature signature = Signature::from_features(extract_features(responder.build()));
    EXPECT_EQ(signature.key(),
              "False r r r False False False False 255 255 64 84 40 56 0");
    EXPECT_TRUE(signature.is_full());
    EXPECT_EQ(signature.protocols(), "ICMP & TCP & UDP");
}

TEST(Signature, PartialFormUsesPlaceholders) {
    FakeResponder responder;
    responder.respond_tcp = false;
    const Signature signature = Signature::from_features(extract_features(responder.build()));
    EXPECT_TRUE(signature.is_partial());
    EXPECT_EQ(signature.protocol_mask(), 0b101);
    EXPECT_EQ(signature.protocols(), "ICMP & UDP");
    // TCP fields are placeholders.
    EXPECT_NE(signature.key().find(" - "), std::string::npos);
}

TEST(Signature, EmptyMask) {
    FeatureVector empty;
    const Signature signature = Signature::from_features(empty);
    EXPECT_TRUE(signature.is_empty());
}

// ---------------------------------------------------------------- database

/// Distinct salts produce genuinely distinct signatures (the salt drives
/// observable features, not just raw IPID values).
Signature make_signature(std::uint16_t salt) {
    FakeResponder responder;
    responder.ittl_icmp = (salt % 2 == 0) ? 255 : 64;
    responder.ittl_udp = (salt % 3 == 0) ? 255 : 64;
    responder.quote = (salt % 5 == 0) ? 28 : 65535;
    responder.rst_seq = (salt % 7 == 0) ? 0 : 0xBEEF0001;
    return Signature::from_features(extract_features(responder.build()));
}

TEST(SignatureDatabase, ThresholdAdmission) {
    SignatureDatabase db({.min_occurrences = 20});
    const Signature sig = make_signature(100);
    for (int i = 0; i < 19; ++i) db.add_labeled(sig, stack::Vendor::cisco);
    db.finalize();
    EXPECT_EQ(db.lookup(sig), nullptr);  // below threshold

    SignatureDatabase db2({.min_occurrences = 20});
    for (int i = 0; i < 20; ++i) db2.add_labeled(sig, stack::Vendor::cisco);
    db2.finalize();
    const SignatureStats* stats = db2.lookup(sig);
    ASSERT_NE(stats, nullptr);
    EXPECT_TRUE(stats->unique());
    EXPECT_EQ(stats->dominant_vendor(), stack::Vendor::cisco);
}

TEST(SignatureDatabase, NonUniqueWhenVendorsCollide) {
    SignatureDatabase db({.min_occurrences = 5});
    const Signature sig = make_signature(300);
    for (int i = 0; i < 30; ++i) db.add_labeled(sig, stack::Vendor::mikrotik);
    for (int i = 0; i < 10; ++i) db.add_labeled(sig, stack::Vendor::h3c);
    db.finalize();
    const SignatureStats* stats = db.lookup(sig);
    ASSERT_NE(stats, nullptr);
    EXPECT_FALSE(stats->unique());
    EXPECT_EQ(stats->dominant_vendor(), stack::Vendor::mikrotik);
    EXPECT_NEAR(stats->dominant_share(), 0.75, 1e-9);

    const auto counts = db.full_signature_counts();
    EXPECT_EQ(counts.unique, 0u);
    EXPECT_EQ(counts.non_unique, 1u);
}

TEST(SignatureDatabase, ThresholdSweepIsMonotonic) {
    SignatureDatabase db({.min_occurrences = 1});
    util::Rng rng(5);
    for (std::uint16_t s = 0; s < 50; ++s) {
        const Signature sig = make_signature(static_cast<std::uint16_t>(s * 1000));
        const std::size_t occurrences = 1 + rng.below(40);
        for (std::size_t i = 0; i < occurrences; ++i) {
            db.add_labeled(sig, stack::Vendor::cisco);
        }
    }
    db.finalize();
    std::size_t previous = std::numeric_limits<std::size_t>::max();
    for (std::size_t threshold : {1u, 5u, 10u, 20u, 50u}) {
        const auto counts = db.counts_at_threshold(threshold);
        EXPECT_LE(counts.unique + counts.non_unique, previous);
        previous = counts.unique + counts.non_unique;
    }
}

TEST(SignatureDatabase, IgnoresUnknownVendorAndEmptySignatures) {
    SignatureDatabase db({.min_occurrences = 1});
    db.add_labeled(Signature{}, stack::Vendor::cisco);
    db.add_labeled(make_signature(1), stack::Vendor::unknown);
    db.finalize();
    EXPECT_TRUE(db.signatures().empty());
}

// --------------------------------------------------------------- classifier

TEST(Classifier, MatchKinds) {
    SignatureDatabase db({.min_occurrences = 1});
    const Signature unique_sig = make_signature(100);
    const Signature shared_sig = make_signature(301);
    ASSERT_NE(unique_sig, shared_sig);
    FakeResponder partial_responder;
    partial_responder.respond_tcp = false;
    const Signature partial_sig =
        Signature::from_features(extract_features(partial_responder.build()));

    db.add_labeled(unique_sig, stack::Vendor::juniper);
    db.add_labeled(shared_sig, stack::Vendor::mikrotik);
    db.add_labeled(shared_sig, stack::Vendor::h3c);
    db.add_labeled(shared_sig, stack::Vendor::mikrotik);
    db.add_labeled(partial_sig, stack::Vendor::huawei);
    db.finalize();

    const LfpClassifier classifier(db);
    auto unique_result = classifier.classify(unique_sig);
    EXPECT_EQ(unique_result.kind, MatchKind::unique_full);
    EXPECT_EQ(unique_result.vendor, stack::Vendor::juniper);
    EXPECT_DOUBLE_EQ(unique_result.confidence, 1.0);

    auto partial_result = classifier.classify(partial_sig);
    EXPECT_EQ(partial_result.kind, MatchKind::unique_partial);
    EXPECT_EQ(partial_result.vendor, stack::Vendor::huawei);

    auto shared_result = classifier.classify(shared_sig);
    EXPECT_EQ(shared_result.kind, MatchKind::non_unique);
    EXPECT_FALSE(shared_result.vendor.has_value());  // conservative default

    auto missing = classifier.classify(make_signature(60000));
    EXPECT_EQ(missing.kind, MatchKind::none);
    EXPECT_FALSE(missing.identified());

    // Majority mode resolves non-unique signatures to the dominant vendor.
    const LfpClassifier majority(db, {.use_partial = true, .majority_mode = true});
    auto majority_result = majority.classify(shared_sig);
    EXPECT_EQ(majority_result.vendor, stack::Vendor::mikrotik);
    EXPECT_NEAR(majority_result.confidence, 2.0 / 3.0, 1e-9);

    // Partial matching can be disabled.
    const LfpClassifier no_partial(db, {.use_partial = false, .majority_mode = false});
    EXPECT_EQ(no_partial.classify(partial_sig).kind, MatchKind::none);
}

TEST(Classifier, EmptySignatureNeverMatches) {
    SignatureDatabase db({.min_occurrences = 1});
    db.finalize();
    const LfpClassifier classifier(db);
    EXPECT_EQ(classifier.classify(Signature{}).kind, MatchKind::none);
}

}  // namespace
}  // namespace lfp::core

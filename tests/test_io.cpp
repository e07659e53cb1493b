// Tests for the io layer: signature store round-trips and CSV exporters.
#include <gtest/gtest.h>

#include <sstream>

#include "io/csv_export.hpp"
#include "io/signature_store.hpp"

namespace lfp::io {
namespace {

core::Signature sig(const std::string& key, std::uint8_t mask = 0b111) {
    return core::Signature::from_parts(key, mask);
}

core::SignatureDatabase sample_database() {
    core::SignatureDatabase db({.min_occurrences = 1});
    db.add_labeled(sig("False r r r False False False False 255 64 64 84 40 56 0"),
                   stack::Vendor::juniper, 1234);
    db.add_labeled(sig("False r r r False False False False 255 255 64 84 40 56 0"),
                   stack::Vendor::cisco, 999);
    // A shared (non-unique) signature.
    db.add_labeled(sig("True i z i False False False False 64 64 64 84 40 68 0"),
                   stack::Vendor::mikrotik, 300);
    db.add_labeled(sig("True i z i False False False False 64 64 64 84 40 68 0"),
                   stack::Vendor::h3c, 40);
    // A partial signature.
    db.add_labeled(sig("- - r r - - - True 255 - - - 40 56 -", 0b110),
                   stack::Vendor::huawei, 60);
    db.finalize();
    return db;
}

TEST(SignatureStore, RoundTripPreservesEverything) {
    const auto original = sample_database();
    std::stringstream buffer;
    save_signatures(buffer, original);

    auto loaded = load_signatures(buffer, {.min_occurrences = 1});
    ASSERT_TRUE(loaded.has_value()) << loaded.error().message;
    const auto& db = loaded.value();
    EXPECT_EQ(db.signatures().size(), original.signatures().size());

    for (const auto& [signature, stats] : original.signatures()) {
        const auto* loaded_stats = db.lookup(signature);
        ASSERT_NE(loaded_stats, nullptr) << signature.key();
        EXPECT_EQ(loaded_stats->total, stats.total);
        EXPECT_EQ(loaded_stats->vendor_counts, stats.vendor_counts);
        EXPECT_EQ(loaded_stats->unique(), stats.unique());
    }
}

TEST(SignatureStore, LoadAppliesThreshold) {
    const auto original = sample_database();
    std::stringstream buffer;
    save_signatures(buffer, original);
    auto loaded = load_signatures(buffer, {.min_occurrences = 500});
    ASSERT_TRUE(loaded.has_value());
    // Only the two big signatures survive a 500-sample threshold.
    EXPECT_EQ(loaded.value().signatures().size(), 2u);
}

TEST(SignatureStore, LoadedDatabaseClassifies) {
    const auto original = sample_database();
    std::stringstream buffer;
    save_signatures(buffer, original);
    auto loaded = load_signatures(buffer, {.min_occurrences = 1});
    ASSERT_TRUE(loaded.has_value());

    const core::LfpClassifier classifier(loaded.value());
    const auto verdict =
        classifier.classify(sig("False r r r False False False False 255 64 64 84 40 56 0"));
    EXPECT_EQ(verdict.vendor, stack::Vendor::juniper);
    EXPECT_EQ(verdict.kind, core::MatchKind::unique_full);

    const auto partial =
        classifier.classify(sig("- - r r - - - True 255 - - - 40 56 -", 0b110));
    EXPECT_EQ(partial.kind, core::MatchKind::unique_partial);
    EXPECT_EQ(partial.vendor, stack::Vendor::huawei);
}

TEST(SignatureStore, CommentsAndBlankLinesIgnored) {
    std::stringstream in("# comment\n\n7 | False r r r - - - - 255 64 64 84 40 56 0 | "
                         "Cisco=25\n");
    auto loaded = load_signatures(in, {.min_occurrences = 1});
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded.value().signatures().size(), 1u);
}

struct BadLineCase {
    const char* line;
    const char* why;
};
// Stable ctest names: the default printer would dump the pointers' bytes.
void PrintTo(const BadLineCase& c, std::ostream* os) { *os << c.why; }
class SignatureStoreBadInput : public ::testing::TestWithParam<BadLineCase> {};

TEST_P(SignatureStoreBadInput, Rejects) {
    std::stringstream in(GetParam().line);
    auto loaded = load_signatures(in, {.min_occurrences = 1});
    EXPECT_FALSE(loaded.has_value()) << GetParam().why;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, SignatureStoreBadInput,
    ::testing::Values(
        BadLineCase{"7 | only two fields", "missing vendor field"},
        BadLineCase{"9 | sig | Cisco=1", "mask out of range"},
        BadLineCase{"x | sig | Cisco=1", "mask not a number"},
        BadLineCase{"7 | sig | NotAVendor=1", "unknown vendor"},
        BadLineCase{"7 | sig | Cisco=0", "zero count"},
        BadLineCase{"7 | sig | Cisco", "missing ="},
        BadLineCase{"7 |  | Cisco=5", "empty signature"}));

TEST(SignatureStore, FileRoundTrip) {
    const auto original = sample_database();
    const std::string path = "/tmp/lfp_sig_store_test.txt";
    ASSERT_TRUE(save_signatures_file(path, original));
    auto loaded = load_signatures_file(path, {.min_occurrences = 1});
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded.value().signatures().size(), original.signatures().size());
    EXPECT_FALSE(load_signatures_file("/no/such/dir/f.txt").has_value());
}

TEST(SignatureStore, PassStatsRoundTrip) {
    const auto original = sample_database();
    const std::vector<core::PassStats> stats = {{.probed = 500, .upgraded = 0, .incomplete = 25},
                                                {.probed = 25, .upgraded = 18, .incomplete = 7}};
    std::stringstream buffer;
    save_signatures(buffer, original, stats);

    // A loader that asks for the trajectory gets it back verbatim.
    std::vector<core::PassStats> loaded_stats;
    auto loaded = load_signatures(buffer, {.min_occurrences = 1}, &loaded_stats);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded.value().signatures().size(), original.signatures().size());
    ASSERT_EQ(loaded_stats.size(), stats.size());
    EXPECT_EQ(loaded_stats[0], stats[0]);
    EXPECT_EQ(loaded_stats[1], stats[1]);

    // The metadata lines are comments to a loader that doesn't ask.
    std::stringstream again;
    save_signatures(again, original, stats);
    auto plain = load_signatures(again, {.min_occurrences = 1});
    ASSERT_TRUE(plain.has_value());
    EXPECT_EQ(plain.value().signatures().size(), original.signatures().size());

    // Files without metadata leave a requested vector empty.
    std::stringstream bare;
    save_signatures(bare, original);
    std::vector<core::PassStats> none = {{.probed = 1}};
    ASSERT_TRUE(load_signatures(bare, {.min_occurrences = 1}, &none).has_value());
    EXPECT_TRUE(none.empty());
}

TEST(SignatureStore, TruncatedPassMetadataIsStructuredError) {
    // A '#:' line is the writer's own structured trailer: cut short
    // mid-write it must fail the load with a structured error naming the
    // line — not be best-effort-skipped as a comment — whether or not the
    // caller asked for the trajectory back.
    const auto truncated_cases = {
        "#: pass 0 probed 500 upgraded",          // field name without value
        "#: pass 0 probed 500",                   // missing trailing fields
        "#: pass 0 probed abc upgraded 0 incomplete 1",  // non-numeric count
        "#: pass",                                // bare prefix
        "#: probed 500 upgraded 0 incomplete 1",  // wrong leading word
        "#: pass 9999 probed 1 upgraded 0 incomplete 0",  // absurd pass index
    };
    for (const char* bad_line : truncated_cases) {
        std::stringstream buffer;
        save_signatures(buffer, sample_database());
        buffer << bad_line << '\n';

        std::vector<core::PassStats> stats;
        const auto with_stats = load_signatures(buffer, {.min_occurrences = 1}, &stats);
        EXPECT_FALSE(with_stats.has_value()) << bad_line;
        if (!with_stats.has_value()) {
            EXPECT_NE(with_stats.error().message.find("pass metadata"), std::string::npos)
                << with_stats.error().message;
        }

        std::stringstream again;
        save_signatures(again, sample_database());
        again << bad_line << '\n';
        EXPECT_FALSE(load_signatures(again, {.min_occurrences = 1}).has_value())
            << bad_line << " (no pass_stats out-param)";
    }

    // An intact trailer after real signature lines still loads.
    std::stringstream good;
    save_signatures(good, sample_database(),
                    std::vector<core::PassStats>{{.probed = 9, .upgraded = 1, .incomplete = 2}});
    EXPECT_TRUE(load_signatures(good, {.min_occurrences = 1}).has_value());
}

TEST(CsvEscape, QuotesWhenNeeded) {
    EXPECT_EQ(csv_escape("plain"), "plain");
    EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
    EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvExport, MeasurementRows) {
    core::Measurement measurement;
    core::TargetRecord record;
    record.probes.target = net::IPv4Address::from_octets(5, 1, 2, 3);
    record.snmp_vendor = stack::Vendor::cisco;
    record.lfp.vendor = stack::Vendor::cisco;
    record.lfp.kind = core::MatchKind::unique_full;
    record.signature = core::Signature::from_parts("a b c", 0b111);
    record.pass = 2;
    measurement.records.push_back(record);

    std::stringstream out;
    export_measurement_csv(out, measurement);
    const std::string text = out.str();
    EXPECT_NE(text.find("ip,responsive_protocols,snmp_vendor,lfp_vendor,match_kind,pass,signature"),
              std::string::npos);
    EXPECT_NE(text.find("5.1.2.3,0,Cisco,Cisco,unique,2,a b c"), std::string::npos);
}

TEST(CsvExport, PassStatsRows) {
    const std::vector<core::PassStats> stats = {{.probed = 1000, .upgraded = 0, .incomplete = 40},
                                                {.probed = 40, .upgraded = 31, .incomplete = 9}};
    std::stringstream out;
    export_pass_stats_csv(out, stats);
    EXPECT_EQ(out.str(), "pass,probed,upgraded,incomplete\n0,1000,0,40\n1,40,31,9\n");
}

TEST(CsvExport, TracerouteRows) {
    sim::TracerouteDataset dataset;
    sim::Traceroute trace;
    trace.source_asn = 100;
    trace.destination_asn = 200;
    trace.source = net::IPv4Address::from_octets(223, 0, 0, 1);
    trace.destination = net::IPv4Address::from_octets(223, 0, 0, 2);
    trace.hops = {net::IPv4Address::from_octets(5, 0, 0, 1),
                  net::IPv4Address::from_octets(5, 0, 0, 2)};
    dataset.traces.push_back(trace);

    std::stringstream out;
    export_traceroutes_csv(out, dataset);
    EXPECT_NE(out.str().find("100,200,223.0.0.1,223.0.0.2,5.0.0.1;5.0.0.2"),
              std::string::npos);
}

TEST(CsvExport, AliasSetAndCoverageRows) {
    sim::ItdkDataset itdk;
    itdk.alias_sets.push_back({7, {net::IPv4Address::from_octets(5, 0, 0, 1),
                                   net::IPv4Address::from_octets(5, 0, 0, 2)}});
    std::stringstream alias_out;
    export_alias_sets_csv(alias_out, itdk);
    EXPECT_NE(alias_out.str().find("7,5.0.0.1;5.0.0.2"), std::string::npos);

    analysis::AsCoverage coverage;
    coverage.asn = 64500;
    coverage.routers_total = 10;
    coverage.routers_identified = 8;
    coverage.vendor_counts[stack::Vendor::cisco] = 8;
    std::stringstream coverage_out;
    export_as_coverage_csv(coverage_out, {coverage});
    EXPECT_NE(coverage_out.str().find("64500,10,8,1,Cisco,1"), std::string::npos);
}

}  // namespace
}  // namespace lfp::io

// Tests pinning the CompactRecord <-> TargetRecord equivalence the spill
// path rests on: lossless round-trips for every response-topology mask
// (all 2^10 evidence combinations, including partial signatures, SNMP-only
// and fully silent records, multi-pass provenance), agreement between the
// mask-level and record-level retry/merge predicates, and the SpillSink's
// on-disk behaviour at segment boundaries — append/read/replace across the
// flush seam, drain order, and tolerance of a crash-truncated tail.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "core/measurement.hpp"
#include "core/record_sink.hpp"
#include "snmp/engine_id.hpp"
#include "snmp/snmpv3.hpp"

namespace lfp {
namespace {

/// Builds a TargetRecord in canonical assembled form (the form to_record()
/// reconstructs: empty packet bytes, slot-order send indices, signature
/// derived from the features) whose response topology is exactly `mask`.
core::TargetRecord record_for_mask(std::uint16_t mask, std::uint16_t pass = 0) {
    core::TargetRecord record;
    record.probes.target = net::IPv4Address(0xC0A80000u + mask);
    record.pass = pass;
    for (std::size_t p = 0; p < probe::kProtocolCount; ++p) {
        for (std::size_t r = 0; r < probe::kRoundsPerProtocol; ++r) {
            const std::size_t slot = core::probe_slot(p, r);
            auto& exchange = record.probes.probes[p][r];
            exchange.request_ipid = static_cast<std::uint16_t>(0x3100 + mask * 10 + slot);
            exchange.send_index = static_cast<std::uint32_t>(slot);
            if ((mask & (1u << slot)) != 0) exchange.response.emplace();
        }
    }
    if ((mask & core::kSnmpAnsweredBit) != 0) {
        snmp::DiscoveryResponse snmp;
        snmp.message_id = 0x51000 + mask;
        snmp.engine_boots = 3;
        snmp.engine_time = 123456;
        snmp.engine_id = snmp::make_mac_engine_id(9, {0x00, 0x11, 0x22, 0x33, 0x44, 0x55});
        record.probes.snmp = snmp;
        record.snmp_vendor = stack::Vendor::cisco;
    }
    // Features exercise the embedded-verbatim path; give them a shape that
    // varies with the mask so no two records collapse to the same bytes.
    record.features.protocol_mask = static_cast<std::uint8_t>(mask & 0b111);
    record.features.ittl_icmp = static_cast<std::uint8_t>(mask % 255);
    record.features.size_icmp = static_cast<std::uint16_t>(mask);
    record.signature = core::Signature::from_features(record.features);
    return record;
}

TEST(CompactRecord, RoundTripsEveryResponseTopology) {
    // Every one of the 1024 evidence combinations — silent, SNMP-only,
    // partial per-protocol signatures, complete — must survive the compact
    // projection bit-for-bit, multi-pass provenance included.
    for (std::uint32_t mask = 0; mask < 1024; ++mask) {
        const auto bits = static_cast<std::uint16_t>(mask);
        const auto record = record_for_mask(bits, static_cast<std::uint16_t>(mask % 5));
        ASSERT_EQ(core::probe_response_mask(record.probes), bits);

        const auto compact = core::CompactRecord::from_record(record);
        EXPECT_EQ(compact.response_mask, bits);
        EXPECT_EQ(compact.pass, mask % 5);

        const auto back = compact.to_record();
        EXPECT_EQ(back, record) << "mask " << mask;
        EXPECT_EQ(core::CompactRecord::from_record(back), compact)
            << "round trip must be idempotent, mask " << mask;
    }
}

TEST(CompactRecord, CarriesClassificationAndVendors) {
    auto record = record_for_mask(0x3FF);
    record.lfp.vendor = stack::Vendor::juniper;
    record.lfp.kind = core::MatchKind::unique_full;
    record.lfp.confidence = 0.875;

    const auto back = core::CompactRecord::from_record(record).to_record();
    EXPECT_EQ(back, record);
    EXPECT_EQ(back.lfp.vendor, stack::Vendor::juniper);
    EXPECT_EQ(back.lfp.kind, core::MatchKind::unique_full);
    EXPECT_DOUBLE_EQ(back.lfp.confidence, 0.875);
    EXPECT_EQ(back.snmp_vendor, stack::Vendor::cisco);
}

TEST(CompactRecord, MaskPredicatesMatchRecordPredicates) {
    // The spill path decides retries from the 2-byte mask alone; the
    // in-memory path asks the full record. For every topology and every
    // option combination the two predicates must agree — this is the
    // equivalence that makes spilled and in-memory censuses pick identical
    // retry populations.
    const core::RetryOptions option_sets[] = {
        {},
        {.retry_silent = true},
        {.retry_missing_snmp = true},
        {.retry_missing_protocol = false},
        {.retry_silent = true, .retry_missing_snmp = true, .retry_missing_protocol = false},
    };
    for (std::uint32_t mask = 0; mask < 1024; ++mask) {
        const auto bits = static_cast<std::uint16_t>(mask);
        const auto record = record_for_mask(bits);
        for (const auto& options : option_sets) {
            EXPECT_EQ(core::RetrySink::incomplete(record, options),
                      core::RetrySink::incomplete_mask(bits, options))
                << "mask " << mask;
        }
    }
}

TEST(CompactRecord, MaskMergeRuleProperties) {
    // Strict-improvement lattice: nothing improves on itself, a full
    // answer improves on any partial one, evidence is never traded away.
    for (std::uint32_t mask = 0; mask < 1024; ++mask) {
        const auto bits = static_cast<std::uint16_t>(mask);
        EXPECT_FALSE(core::mask_merge_improves(bits, bits));
        if (bits != 0x3FF) {
            EXPECT_TRUE(core::mask_merge_improves(0x3FF, bits));
        }
        if (bits != 0) {
            EXPECT_FALSE(core::mask_merge_improves(0, bits));
        }
    }
    // Sideways trade: ICMP round 0 for ICMP round 1 is not an improvement
    // in either direction.
    EXPECT_FALSE(core::mask_merge_improves(0b001, 0b1000));
    EXPECT_FALSE(core::mask_merge_improves(0b1000, 0b001));
    // Losing the SNMP answer disqualifies even a probe-side gain.
    EXPECT_FALSE(core::mask_merge_improves(0x1FF, core::kSnmpAnsweredBit | 0b1));
    // Gaining only the SNMP answer is an improvement.
    EXPECT_TRUE(core::mask_merge_improves(core::kSnmpAnsweredBit | 0b1, 0b1));
}

// ---------------------------------------------------------------------------
// SpillSink
// ---------------------------------------------------------------------------

core::CompactRecord compact_for(std::uint64_t index) {
    auto record = record_for_mask(static_cast<std::uint16_t>(index % 1024),
                                  static_cast<std::uint16_t>(index % 3));
    record.probes.target = net::IPv4Address(static_cast<std::uint32_t>(0x0A000000 + index));
    return core::CompactRecord::from_record(record);
}

class VectorSink final : public core::RecordSink {
  public:
    void accept(std::uint64_t global_index, core::TargetRecord&& record) override {
        indices.push_back(global_index);
        records.push_back(std::move(record));
    }
    std::vector<std::uint64_t> indices;
    std::vector<core::TargetRecord> records;
};

TEST(SpillSink, SegmentBoundaryAppendReadReplaceDrain) {
    core::SpillConfig config;
    config.segment_records = 8;
    constexpr std::uint64_t kBase = 1000;        // non-zero index_base
    constexpr std::size_t kCount = 8 * 3 + 5;    // 3 flushed segments + tail
    core::SpillSink sink(config, kBase);

    for (std::size_t i = 0; i < kCount; ++i) sink.append(kBase + i, compact_for(i));
    EXPECT_EQ(sink.size(), kCount);
    EXPECT_EQ(sink.segments_flushed(), 3u);

    // Reads hit the right storage on both sides of every flush seam.
    for (std::size_t i : {std::size_t{0}, std::size_t{7}, std::size_t{8}, std::size_t{15},
                          std::size_t{16}, std::size_t{23}, std::size_t{24}, kCount - 1}) {
        EXPECT_EQ(sink.read(kBase + i), compact_for(i)) << "position " << i;
        EXPECT_EQ(sink.response_mask(kBase + i), compact_for(i).response_mask);
    }

    // Replace inside a flushed segment, at the last slot before a seam, at
    // the first slot after one, and in the RAM tail; reads and the mask
    // index must follow.
    for (std::size_t i : {std::size_t{3}, std::size_t{7}, std::size_t{8}, kCount - 1}) {
        const auto upgraded = compact_for(i + 500);
        sink.replace(kBase + i, upgraded);
        EXPECT_EQ(sink.read(kBase + i), upgraded) << "position " << i;
        EXPECT_EQ(sink.response_mask(kBase + i), upgraded.response_mask);
    }

    // Drain re-reads everything in order and reflects the replacements.
    VectorSink drained;
    sink.drain(drained);
    ASSERT_EQ(drained.records.size(), kCount);
    for (std::size_t i = 0; i < kCount; ++i) {
        EXPECT_EQ(drained.indices[i], kBase + i);
        const bool replaced = i == 3 || i == 7 || i == 8 || i == kCount - 1;
        const auto expected = compact_for(replaced ? i + 500 : i);
        EXPECT_EQ(core::CompactRecord::from_record(drained.records[i]), expected)
            << "position " << i;
    }
}

TEST(SpillSink, ReadSegmentFileToleratesTruncatedTail) {
    // Crash mid-write: a segment whose last record is incomplete must
    // yield every complete record and drop the fragment, not throw.
    const auto dir = std::filesystem::temp_directory_path() / "lfp-spill-truncation-test";
    std::filesystem::create_directories(dir);
    core::SpillConfig config;
    config.directory = dir.string();
    config.segment_records = 4;
    config.keep_segments = true;

    std::filesystem::path segment_path;
    {
        core::SpillSink sink(config);
        for (std::size_t i = 0; i < 4; ++i) sink.append(i, compact_for(i));
        ASSERT_EQ(sink.segments_flushed(), 1u);
        for (const auto& entry : std::filesystem::directory_iterator(dir)) {
            segment_path = entry.path();
        }
    }
    ASSERT_FALSE(segment_path.empty());

    const auto intact = core::SpillSink::read_segment_file(segment_path);
    ASSERT_EQ(intact.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(intact[i], compact_for(i));

    // Chop the file mid-record: 16-byte header + 2.5 records.
    const auto full_size = std::filesystem::file_size(segment_path);
    const auto record_bytes = (full_size - 16) / 4;
    std::filesystem::resize_file(segment_path, 16 + 2 * record_bytes + record_bytes / 2);
    const auto truncated = core::SpillSink::read_segment_file(segment_path);
    ASSERT_EQ(truncated.size(), 2u);
    EXPECT_EQ(truncated[0], compact_for(0));
    EXPECT_EQ(truncated[1], compact_for(1));

    // A corrupt header is not a truncated tail — it must throw.
    {
        std::fstream corrupt(segment_path,
                             std::ios::binary | std::ios::in | std::ios::out);
        corrupt.seekp(0);
        corrupt.write("BOGUSMAG", 8);
    }
    EXPECT_THROW((void)core::SpillSink::read_segment_file(segment_path),
                 std::runtime_error);

    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

TEST(SpillSink, AcceptCompactsAndCleansUpSegments) {
    // The RecordSink face: accept() compacts on the way in, and the sink
    // removes its segment files on destruction unless told otherwise.
    const auto dir = std::filesystem::temp_directory_path() / "lfp-spill-cleanup-test";
    std::filesystem::create_directories(dir);
    core::SpillConfig config;
    config.directory = dir.string();
    config.segment_records = 2;
    {
        core::SpillSink sink(config);
        for (std::size_t i = 0; i < 5; ++i) {
            sink.accept(i, record_for_mask(static_cast<std::uint16_t>(i * 37 % 1024)));
        }
        EXPECT_EQ(sink.segments_flushed(), 2u);
        EXPECT_EQ(sink.read(0), core::CompactRecord::from_record(record_for_mask(0)));
        std::size_t files = 0;
        for ([[maybe_unused]] const auto& entry : std::filesystem::directory_iterator(dir)) {
            ++files;
        }
        EXPECT_EQ(files, 2u);
    }
    std::size_t files_after = 0;
    for ([[maybe_unused]] const auto& entry : std::filesystem::directory_iterator(dir)) {
        ++files_after;
    }
    EXPECT_EQ(files_after, 0u) << "segments must be unlinked at destruction";
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace lfp

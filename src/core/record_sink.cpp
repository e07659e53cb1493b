#include "core/record_sink.hpp"

#include <atomic>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <stdexcept>

namespace lfp::core {

namespace {

// Segment file layout: a 16-byte header followed by raw CompactRecords.
//
//   bytes 0..7   magic "LFPSPILL"
//   bytes 8..9   format version (little-endian u16)
//   bytes 10..11 record size in bytes (little-endian u16) — readers reject
//                a mismatch instead of misparsing records written by a
//                different build
//   bytes 12..15 reserved (zero)
//
// Records are written by memcpy of the trivially-copyable CompactRecord, so
// segments are private to one build (host endianness, host padding) — they
// are working storage for a single census run, not an interchange format.
constexpr char kSpillMagic[8] = {'L', 'F', 'P', 'S', 'P', 'I', 'L', 'L'};
constexpr std::uint16_t kSpillVersion = 1;
constexpr std::size_t kSpillHeaderBytes = 16;
constexpr std::size_t kRecordBytes = sizeof(CompactRecord);

std::array<char, kSpillHeaderBytes> spill_header() {
    std::array<char, kSpillHeaderBytes> header{};
    std::memcpy(header.data(), kSpillMagic, sizeof(kSpillMagic));
    const std::uint16_t version = kSpillVersion;
    const std::uint16_t record_size = static_cast<std::uint16_t>(kRecordBytes);
    std::memcpy(header.data() + 8, &version, sizeof(version));
    std::memcpy(header.data() + 10, &record_size, sizeof(record_size));
    return header;
}

/// Checks a segment's header; nullptr when intact, else why not.
const char* header_error(std::istream& in) {
    std::array<char, kSpillHeaderBytes> header{};
    in.read(header.data(), static_cast<std::streamsize>(header.size()));
    if (in.gcount() != static_cast<std::streamsize>(header.size()) ||
        std::memcmp(header.data(), kSpillMagic, sizeof(kSpillMagic)) != 0) {
        return "bad segment magic";
    }
    std::uint16_t version = 0;
    std::uint16_t record_size = 0;
    std::memcpy(&version, header.data() + 8, sizeof(version));
    std::memcpy(&record_size, header.data() + 10, sizeof(record_size));
    if (version != kSpillVersion) return "unsupported segment version";
    if (record_size != kRecordBytes) return "segment record size mismatch";
    return nullptr;
}

std::filesystem::path resolve_spill_directory(const SpillConfig& config) {
    if (!config.directory.empty()) return config.directory;
    if (const char* env = std::getenv("LFP_SPILL_DIR"); env != nullptr && *env != '\0') {
        return env;
    }
    return std::filesystem::temp_directory_path();
}

/// Process-wide sequence so several sinks (tests, nested passes) can share
/// one directory without clobbering each other's segments.
std::uint64_t next_spill_sequence() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

[[noreturn]] void spill_error(const std::string& what, const std::filesystem::path& path) {
    throw std::runtime_error("spill sink: " + what + ": " + path.string());
}

}  // namespace

SpillSink::SpillSink(SpillConfig config, std::uint64_t index_base)
    : config_(config),
      directory_(resolve_spill_directory(config)),
      index_base_(index_base),
      sequence_(next_spill_sequence()) {
    std::filesystem::create_directories(directory_);
    tail_.reserve(config_.segment_records);
}

SpillSink::~SpillSink() {
    // Close handles before unlinking (portability; POSIX wouldn't care).
    for (auto& segment : segments_) segment.stream.reset();
    // Adopted segments stay regardless of keep_segments: they belong to an
    // interrupted census, and a resume that failed partway must remain
    // resumable. The runner removes them explicitly after a clean finish.
    if (!config_.keep_segments && !adopted_) {
        std::error_code ec;  // best-effort cleanup; never throw from a dtor
        for (auto& segment : segments_) std::filesystem::remove(segment.path, ec);
    }
}

void SpillSink::accept(std::uint64_t global_index, TargetRecord&& record) {
    append(global_index, CompactRecord::from_record(record));
}

void SpillSink::append(std::uint64_t global_index, const CompactRecord& record) {
    assert(global_index == index_base_ + masks_.size() &&
           "spill records must arrive in gap-free stream order");
    assert((segments_.empty() || segments_.back().records == config_.segment_records) &&
           "append after flush() would break the position -> segment math");
    (void)global_index;
    tail_.push_back(record);
    masks_.push_back(record.response_mask);
    if (tail_.size() >= config_.segment_records) flush_tail();
}

void SpillSink::flush() { flush_tail(); }

std::vector<SpillSink::SegmentInfo> SpillSink::segment_manifest() const {
    std::vector<SegmentInfo> manifest;
    manifest.reserve(segments_.size());
    for (const Segment& segment : segments_) {
        manifest.push_back({segment.path, segment.records});
    }
    return manifest;
}

bool SpillSink::adopt(std::vector<SegmentInfo> segments, std::vector<std::uint16_t> masks) {
    if (!segments_.empty() || !tail_.empty() || !masks_.empty()) {
        throw std::runtime_error("spill sink: adopt() requires an empty sink");
    }
    std::size_t covered = 0;
    for (std::size_t i = 0; i < segments.size(); ++i) {
        const SegmentInfo& info = segments[i];
        if (i + 1 < segments.size() && info.records != config_.segment_records) return false;
        std::error_code ec;
        const std::uintmax_t size = std::filesystem::file_size(info.path, ec);
        const std::uintmax_t body = size - kSpillHeaderBytes;
        if (ec || size < kSpillHeaderBytes || body % kRecordBytes != 0 ||
            body / kRecordBytes != info.records) {
            return false;
        }
        std::ifstream in(info.path, std::ios::binary);
        if (header_error(in) != nullptr) return false;
        covered += info.records;
    }
    if (covered != masks.size()) return false;
    segments_.reserve(segments.size());
    for (SegmentInfo& info : segments) {
        Segment segment;
        segment.path = std::move(info.path);
        segment.records = info.records;
        segments_.push_back(std::move(segment));
    }
    masks_ = std::move(masks);
    adopted_ = true;
    return true;
}

void SpillSink::flush_tail() {
    if (tail_.empty()) return;
    Segment segment;
    segment.path = directory_ / ("lfp-spill-" + std::to_string(sequence_) + "-" +
                                 std::to_string(segments_.size()) + ".seg");
    segment.records = tail_.size();
    {
        std::ofstream out(segment.path, std::ios::binary | std::ios::trunc);
        if (!out) spill_error("cannot create segment", segment.path);
        const auto header = spill_header();
        out.write(header.data(), static_cast<std::streamsize>(header.size()));
        out.write(reinterpret_cast<const char*>(tail_.data()),
                  static_cast<std::streamsize>(tail_.size() * kRecordBytes));
        if (!out) spill_error("short write to segment", segment.path);
    }
    segments_.push_back(std::move(segment));
    tail_.clear();
}

std::fstream& SpillSink::segment_stream(Segment& segment) {
    if (segment.stream == nullptr) {
        segment.stream = std::make_unique<std::fstream>(
            segment.path, std::ios::binary | std::ios::in | std::ios::out);
        if (!*segment.stream) spill_error("cannot reopen segment", segment.path);
    }
    return *segment.stream;
}

void SpillSink::replace(std::uint64_t global_index, const CompactRecord& record) {
    const std::size_t position = static_cast<std::size_t>(global_index - index_base_);
    assert(position < masks_.size());
    const std::size_t flushed = segments_.size() * config_.segment_records;
    if (position >= flushed) {
        tail_[position - flushed] = record;
    } else {
        Segment& segment = segments_[position / config_.segment_records];
        const std::size_t offset = position % config_.segment_records;
        std::fstream& stream = segment_stream(segment);
        stream.seekp(static_cast<std::streamoff>(kSpillHeaderBytes + offset * kRecordBytes));
        stream.write(reinterpret_cast<const char*>(&record),
                     static_cast<std::streamsize>(kRecordBytes));
        if (!stream) spill_error("positioned write failed", segment.path);
        stream.flush();
    }
    masks_[position] = record.response_mask;
}

CompactRecord SpillSink::read(std::uint64_t global_index) {
    const std::size_t position = static_cast<std::size_t>(global_index - index_base_);
    assert(position < masks_.size());
    const std::size_t flushed = segments_.size() * config_.segment_records;
    if (position >= flushed) return tail_[position - flushed];
    Segment& segment = segments_[position / config_.segment_records];
    const std::size_t offset = position % config_.segment_records;
    std::fstream& stream = segment_stream(segment);
    stream.seekg(static_cast<std::streamoff>(kSpillHeaderBytes + offset * kRecordBytes));
    CompactRecord record;
    stream.read(reinterpret_cast<char*>(&record), static_cast<std::streamsize>(kRecordBytes));
    if (!stream) spill_error("positioned read failed", segment.path);
    return record;
}

void SpillSink::drain(RecordSink& sink) {
    std::uint64_t global_index = index_base_;
    std::vector<CompactRecord> buffer;
    for (auto& segment : segments_) {
        // Re-read sequentially through a fresh streaming pass rather than
        // the positioned-I/O handle: drain is the bulk path, and one
        // contiguous read per segment is what the fixed-width layout buys.
        buffer.resize(segment.records);
        std::fstream& stream = segment_stream(segment);
        stream.seekg(static_cast<std::streamoff>(kSpillHeaderBytes));
        stream.read(reinterpret_cast<char*>(buffer.data()),
                    static_cast<std::streamsize>(segment.records * kRecordBytes));
        if (!stream) spill_error("segment re-read failed", segment.path);
        for (const CompactRecord& record : buffer) {
            sink.accept(global_index, record.to_record());
            ++global_index;
        }
    }
    for (const CompactRecord& record : tail_) {
        sink.accept(global_index, record.to_record());
        ++global_index;
    }
}

std::vector<CompactRecord> SpillSink::read_segment_file(const std::filesystem::path& path) {
    auto result = try_read_segment_file(path);
    if (!result.has_value()) {
        throw std::runtime_error("spill sink: " + result.error().message);
    }
    return std::move(result).value();
}

util::Result<std::vector<CompactRecord>> SpillSink::try_read_segment_file(
    const std::filesystem::path& path) {
    const auto fail = [&path](const std::string& what) {
        return util::make_error(what + ": " + path.string());
    };
    std::ifstream in(path, std::ios::binary);
    if (!in) return fail("cannot open segment");
    if (const char* error = header_error(in)) return fail(error);

    std::vector<CompactRecord> records;
    CompactRecord record;
    for (;;) {
        in.read(reinterpret_cast<char*>(&record), static_cast<std::streamsize>(kRecordBytes));
        if (in.gcount() != static_cast<std::streamsize>(kRecordBytes)) {
            // A short trailing read is a crash-truncated tail: keep every
            // complete record, drop the fragment.
            break;
        }
        records.push_back(record);
    }
    return records;
}

SpillSink::SegmentSalvage SpillSink::read_segment_files(
    std::span<const std::filesystem::path> paths) {
    SegmentSalvage salvage;
    for (const std::filesystem::path& path : paths) {
        auto result = try_read_segment_file(path);
        if (result.has_value()) {
            auto& records = result.value();
            salvage.records.insert(salvage.records.end(),
                                   std::make_move_iterator(records.begin()),
                                   std::make_move_iterator(records.end()));
        } else {
            salvage.skipped.emplace_back(path, result.error().message);
        }
    }
    return salvage;
}

}  // namespace lfp::core

// Crash-tolerant census resume: the checkpoint manifest round-trips and
// rejects damage, corrupted spill segments are salvaged around, and — the
// acceptance test — a checkpointed spilled census killed with SIGKILL
// mid-run resumes in a fresh process and produces byte-identical CSV and
// signature output to an uninterrupted run.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "core/census.hpp"
#include "core/checkpoint.hpp"
#include "core/record_sink.hpp"
#include "io/csv_export.hpp"
#include "probe/sim_transport.hpp"
#include "sim/internet.hpp"
#include "sim/topology.hpp"

namespace lfp {
namespace {

using namespace std::chrono_literals;

/// A fresh scratch directory under the system temp dir, removed on scope
/// exit.
class ScratchDir {
  public:
    explicit ScratchDir(const std::string& tag)
        : path_(std::filesystem::temp_directory_path() /
                ("lfp-test-" + tag + "-" + std::to_string(::getpid()))) {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~ScratchDir() {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }

  private:
    std::filesystem::path path_;
};

core::CensusManifest sample_manifest() {
    core::CensusManifest manifest;
    manifest.index_base = 7;
    manifest.target_count = 5;
    manifest.segment_records = 2;
    manifest.completed_passes = 2;
    manifest.segments = {{"lfp-spill-1-0.seg", 2}, {"lfp-spill-1-1.seg", 2},
                         {"lfp-spill-1-2.seg", 1}};
    manifest.masks = {0x1FF, 0x003, 0x000, 0x3FF, 0x007};
    manifest.pass_stats = {{.probed = 5, .upgraded = 0, .incomplete = 3},
                           {.probed = 3, .upgraded = 2, .incomplete = 1}};
    manifest.retry_lists = {{8, 9, 11}};
    return manifest;
}

TEST(CheckpointManifest, RoundTripsEveryField) {
    ScratchDir dir("manifest");
    const core::CensusManifest manifest = sample_manifest();
    core::write_manifest(dir.path(), manifest);

    const auto read = core::read_manifest(dir.path());
    ASSERT_TRUE(read.has_value());
    EXPECT_EQ(read->index_base, manifest.index_base);
    EXPECT_EQ(read->target_count, manifest.target_count);
    EXPECT_EQ(read->segment_records, manifest.segment_records);
    EXPECT_EQ(read->completed_passes, manifest.completed_passes);
    EXPECT_EQ(read->segments, manifest.segments);
    EXPECT_EQ(read->masks, manifest.masks);
    EXPECT_EQ(read->pass_stats, manifest.pass_stats);
    EXPECT_EQ(read->retry_lists, manifest.retry_lists);

    // Rewrite-in-place (the per-pass-boundary journal) replaces atomically.
    core::CensusManifest second = manifest;
    second.completed_passes = 3;
    second.retry_lists.push_back({9});
    second.pass_stats.push_back({.probed = 1, .upgraded = 1, .incomplete = 0});
    core::write_manifest(dir.path(), second);
    const auto reread = core::read_manifest(dir.path());
    ASSERT_TRUE(reread.has_value());
    EXPECT_EQ(reread->completed_passes, 3u);
    ASSERT_EQ(reread->retry_lists.size(), 2u);

    core::remove_manifest(dir.path());
    EXPECT_FALSE(core::read_manifest(dir.path()).has_value());
    core::remove_manifest(dir.path());  // idempotent
}

TEST(CheckpointManifest, RejectsDamageInsteadOfResumingWrong) {
    ScratchDir dir("manifest-damage");
    EXPECT_FALSE(core::read_manifest(dir.path()).has_value());  // absent

    core::write_manifest(dir.path(), sample_manifest());
    const std::filesystem::path file = core::manifest_path(dir.path());
    std::ifstream in(file, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 32u);

    auto rewrite = [&file](const std::vector<char>& content) {
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        out.write(content.data(), static_cast<std::streamsize>(content.size()));
    };

    // Every truncation point is rejected.
    for (std::size_t length : {std::size_t{0}, std::size_t{4}, std::size_t{17},
                               bytes.size() / 2, bytes.size() - 1}) {
        rewrite(std::vector<char>(bytes.begin(), bytes.begin() + length));
        EXPECT_FALSE(core::read_manifest(dir.path()).has_value()) << "prefix " << length;
    }

    // Bad magic is rejected.
    std::vector<char> bad_magic = bytes;
    bad_magic[0] ^= 0x20;
    rewrite(bad_magic);
    EXPECT_FALSE(core::read_manifest(dir.path()).has_value());

    // Segment names must be single plain file names: an absolute path or
    // any path component would aim the resumed census's in-place upgrades,
    // drain and cleanup at a file outside the checkpoint directory.
    for (const std::string name :
         {"/elsewhere/x.seg", "../escape.seg", "sub/dir.seg", "", ".", ".."}) {
        core::CensusManifest named = sample_manifest();
        named.segments[1].first = name;
        core::write_manifest(dir.path(), named);
        EXPECT_FALSE(core::read_manifest(dir.path()).has_value()) << "segment '" << name << "'";
    }

    // Retry lists index the target list on replay: every entry must lie in
    // [index_base, index_base + target_count) = [7, 12), and no list may be
    // longer than the census.
    for (const std::vector<std::uint64_t>& list :
         {std::vector<std::uint64_t>{8, 12}, std::vector<std::uint64_t>{6, 8},
          std::vector<std::uint64_t>{7, 8, 9, 10, 11, 11}}) {
        core::CensusManifest listed = sample_manifest();
        listed.retry_lists = {list};
        core::write_manifest(dir.path(), listed);
        EXPECT_FALSE(core::read_manifest(dir.path()).has_value())
            << "retry list of " << list.size() << " starting at " << list.front();
    }

    // A length field claiming more than the bytes left in the file is
    // rejected before anything is sized from it. Offsets follow
    // write_manifest's layout: 40 header bytes (magic, index_base,
    // target_count, segment_records, completed_passes, segment count),
    // then per segment a u64 count, a u32 name length and the name.
    const core::CensusManifest sample = sample_manifest();
    std::size_t masks_at = 40;
    for (const auto& [name, records] : sample.segments) masks_at += 12 + name.size();
    const std::size_t lists_at = masks_at + 8 + 2 * sample.masks.size() + 4 +
                                 24 * sample.pass_stats.size();
    auto patch = [](std::vector<char> content, std::size_t offset, auto value) {
        std::memcpy(&content[offset], &value, sizeof(value));
        return content;
    };
    const std::uint64_t huge = std::uint64_t{1} << 40;
    const std::uint32_t huge32 = 0xFFFFFFFFu;
    rewrite(patch(bytes, 36, huge32));  // segment count
    EXPECT_FALSE(core::read_manifest(dir.path()).has_value()) << "segment count";
    rewrite(patch(patch(bytes, 16, huge), masks_at, huge));  // target and mask count
    EXPECT_FALSE(core::read_manifest(dir.path()).has_value()) << "mask count";
    rewrite(patch(bytes, lists_at + 4, huge));  // first retry list's length
    EXPECT_FALSE(core::read_manifest(dir.path()).has_value()) << "retry list length";

    // A list count of 2^32 - 1 with zero completed passes must not wrap
    // into "one list per completed retry pass".
    core::CensusManifest empty = sample_manifest();
    empty.completed_passes = 0;
    empty.pass_stats.clear();
    empty.retry_lists.clear();
    core::write_manifest(dir.path(), empty);
    {
        std::ifstream empty_in(file, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(empty_in), std::istreambuf_iterator<char>());
    }
    rewrite(patch(bytes, masks_at + 8 + 2 * empty.masks.size() + 4, huge32));
    EXPECT_FALSE(core::read_manifest(dir.path()).has_value()) << "list count";

    // The intact bytes still parse (the damage above was the problem).
    core::write_manifest(dir.path(), sample);
    EXPECT_TRUE(core::read_manifest(dir.path()).has_value());
}

// ------------------------------------------------------------ segment salvage

core::TargetRecord record_for(std::uint32_t address, std::uint16_t pass) {
    core::TargetRecord record;
    record.probes.target = net::IPv4Address(address);
    record.pass = pass;
    record.features.protocol_mask = 0b111;
    record.signature = core::Signature::from_features(record.features);
    return record;
}

TEST(SegmentSalvage, SkipsCorruptSegmentsAndKeepsTheRest) {
    ScratchDir dir("salvage");
    core::SpillConfig config;
    config.directory = dir.path().string();
    config.segment_records = 4;
    config.keep_segments = true;
    std::vector<std::filesystem::path> paths;
    {
        core::SpillSink sink(config);
        for (std::uint64_t g = 0; g < 12; ++g) {
            sink.accept(g, record_for(0x0A000000u + static_cast<std::uint32_t>(g), 0));
        }
        sink.flush();
        for (const auto& segment : sink.segment_manifest()) paths.push_back(segment.path);
    }
    ASSERT_EQ(paths.size(), 3u);

    // Flip a byte in the middle segment's magic.
    {
        std::fstream corrupt(paths[1], std::ios::binary | std::ios::in | std::ios::out);
        corrupt.seekp(0);
        corrupt.put('X');
    }

    const auto salvage = core::SpillSink::read_segment_files(paths);
    EXPECT_EQ(salvage.records.size(), 8u) << "two good segments of four records each";
    ASSERT_EQ(salvage.skipped.size(), 1u);
    EXPECT_EQ(salvage.skipped.front().first, paths[1]);
    EXPECT_FALSE(salvage.skipped.front().second.empty()) << "a skip names its reason";
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(salvage.records[i].target, 0x0A000000u + i);
        EXPECT_EQ(salvage.records[4 + i].target, 0x0A000008u + i);
    }

    // The throwing single-file reader rejects the corrupt segment…
    EXPECT_THROW((void)core::SpillSink::read_segment_file(paths[1]), std::runtime_error);
    // …and the Result variant reports instead of throwing.
    EXPECT_FALSE(core::SpillSink::try_read_segment_file(paths[1]).has_value());

    // A truncated tail (crash mid-record-write) is tolerated in-band: the
    // complete records parse, the torn one is dropped.
    const auto full_size = std::filesystem::file_size(paths[2]);
    std::filesystem::resize_file(paths[2], full_size - sizeof(core::CompactRecord) / 2);
    const auto tail = core::SpillSink::read_segment_file(paths[2]);
    EXPECT_EQ(tail.size(), 3u);

    // Total loss is still a value, not an error: everything in `skipped`.
    const std::vector<std::filesystem::path> all_bad = {paths[1],
                                                        dir.path() / "missing.seg"};
    const auto nothing = core::SpillSink::read_segment_files(all_bad);
    EXPECT_TRUE(nothing.records.empty());
    EXPECT_EQ(nothing.skipped.size(), 2u);
}

#ifndef _WIN32

// --------------------------------------------------------- kill -9 + resume

/// The shared census shape: a lossy multi-pass spilled census, paced so a
/// pass takes long enough for the parent to land a SIGKILL mid-run.
struct ResumePlanShape {
    std::size_t targets = 300;
    std::size_t passes = 3;
    double pps = 0.0;  ///< 0 = unpaced (reference); paced in the victim
};

core::Measurement run_census(const std::string& checkpoint_dir, const ResumePlanShape& shape,
                             bool* resumed = nullptr,
                             std::vector<core::PassStats>* stats = nullptr) {
    sim::Topology topology = sim::Topology::build(
        {.seed = 77, .num_ases = 150, .tier1_count = 4, .transit_fraction = 0.2, .scale = 0.5});
    sim::Internet internet(topology, {.seed = 13, .loss_rate = 0.05});
    probe::SimTransport transport(internet);

    core::CensusPlan plan;
    plan.vantages.push_back(&transport);
    plan.campaign.window = 16;
    plan.campaign.packets_per_second = shape.pps;
    plan.passes = shape.passes;
    plan.spill = true;
    plan.spill_config.segment_records = 64;  // several segments per pass
    plan.checkpoint_dir = checkpoint_dir;

    std::vector<net::IPv4Address> targets;
    for (std::size_t i = 0; i < topology.router_count() && targets.size() < shape.targets;
         ++i) {
        targets.push_back(topology.router(i).interfaces().front());
    }

    core::CensusRunner runner(std::move(plan));
    core::Measurement measurement =
        runner.measure_passes("resume", targets, {}, shape.passes);
    if (resumed != nullptr) *resumed = runner.resumed_from_checkpoint();
    if (stats != nullptr) *stats = runner.last_pass_stats();
    return measurement;
}

TEST(CrashResume, Sigkilled9CensusResumesByteIdentically) {
    ScratchDir dir("crash-resume");

    // The victim: a paced checkpointed census in a forked child. The pace
    // (1.5k pps against ~3k packets in pass 0 and ~1k in each retry pass)
    // stretches every pass to seconds, so the parent — polling at 10ms —
    // reliably lands its kill mid-census, shortly after the pass-0 boundary
    // manifest appears and long before the run could finish.
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // In the child: run to completion if never killed (the parent kills
        // us first). _exit, never exit — no gtest teardown in the fork.
        try {
            (void)run_census(dir.path().string(), {.pps = 1500.0});
        } catch (...) {
        }
        ::_exit(0);
    }

    // Parent: wait for the first pass boundary to be journaled, then kill
    // without ceremony.
    const auto deadline = std::chrono::steady_clock::now() + 60s;
    bool manifest_seen = false;
    while (std::chrono::steady_clock::now() < deadline) {
        if (core::read_manifest(dir.path()).has_value()) {
            manifest_seen = true;
            break;
        }
        std::this_thread::sleep_for(10ms);
    }
    ASSERT_TRUE(manifest_seen) << "no checkpoint appeared within the deadline";
    ASSERT_EQ(::kill(child, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // The on-disk state survived the kill: a manifest and its segments.
    const auto manifest = core::read_manifest(dir.path());
    ASSERT_TRUE(manifest.has_value());
    EXPECT_GE(manifest->completed_passes, 1u);
    EXPECT_GT(manifest->target_count, 0u);
    EXPECT_EQ(manifest->masks.size(), manifest->target_count);

    // Resume in this process over a fresh world (the sim analogue of a
    // process restart) and run to completion, unpaced.
    bool resumed = false;
    std::vector<core::PassStats> resumed_stats;
    const core::Measurement recovered =
        run_census(dir.path().string(), {.pps = 0.0}, &resumed, &resumed_stats);
    EXPECT_TRUE(resumed);

    // Reference: the identical census, never interrupted, no checkpointing.
    std::vector<core::PassStats> reference_stats;
    const core::Measurement reference =
        run_census("", {.pps = 0.0}, nullptr, &reference_stats);

    // Byte identity of the records and of both external artefacts.
    EXPECT_EQ(recovered, reference);
    EXPECT_EQ(resumed_stats, reference_stats);
    std::ostringstream recovered_csv;
    std::ostringstream reference_csv;
    io::export_measurement_csv(recovered_csv, recovered);
    io::export_measurement_csv(reference_csv, reference);
    EXPECT_EQ(recovered_csv.str(), reference_csv.str());
    std::ostringstream recovered_stats_csv;
    std::ostringstream reference_stats_csv;
    io::export_pass_stats_csv(recovered_stats_csv, resumed_stats);
    io::export_pass_stats_csv(reference_stats_csv, reference_stats);
    EXPECT_EQ(recovered_stats_csv.str(), reference_stats_csv.str());

    // A clean finish retires the checkpoint: manifest gone, segments gone —
    // the next census in this directory starts fresh.
    EXPECT_FALSE(core::read_manifest(dir.path()).has_value());
    std::size_t leftover_segments = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
        if (entry.path().extension() == ".seg") ++leftover_segments;
    }
    EXPECT_EQ(leftover_segments, 0u);
}

/// Writes a valid spill segment of `records` records to `path`.
void write_segment(const std::filesystem::path& path, std::size_t records) {
    core::SpillConfig config;
    config.directory = path.parent_path().string();
    config.keep_segments = true;
    core::SpillSink sink(config);
    for (std::uint64_t g = 0; g < records; ++g) {
        sink.accept(g, record_for(0x0A000000u + static_cast<std::uint32_t>(g), 0));
    }
    sink.flush();
    std::filesystem::rename(sink.segment_manifest().front().path, path);
}

std::string file_bytes(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(CrashResume, ManifestNamingForeignOrDamagedSegmentsStartsOver) {
    // Resume adopts only what it has checked. A manifest of the right shape
    // naming a segment outside the checkpoint directory (by absolute path),
    // or an in-directory segment with a damaged header, must not be
    // adopted: the census starts over, never touches that file, and
    // produces the uninterrupted run's output.
    const ResumePlanShape shape{.targets = 100, .passes = 2};
    const core::Measurement reference = run_census("", shape);
    ASSERT_EQ(reference.records.size(), 100u);

    ScratchDir outside("resume-outside");
    const std::filesystem::path foreign = outside.path() / "sentinel.seg";
    write_segment(foreign, 64);  // intact: only its location is wrong

    for (const bool absolute : {true, false}) {
        SCOPED_TRACE(absolute ? "absolute segment name" : "bad segment magic");
        ScratchDir dir("resume-untrusted");
        std::filesystem::path sentinel = foreign;
        if (!absolute) {
            sentinel = dir.path() / "bad-magic.seg";
            write_segment(sentinel, 64);
            std::fstream corrupt(sentinel, std::ios::binary | std::ios::in | std::ios::out);
            corrupt.put('X');
        }
        write_segment(dir.path() / "stale-1.seg", 36);

        core::CensusManifest manifest;
        manifest.target_count = 100;
        manifest.segment_records = 64;
        manifest.completed_passes = 1;
        manifest.segments = {{absolute ? sentinel.string() : sentinel.filename().string(), 64},
                             {"stale-1.seg", 36}};
        manifest.masks.assign(100, 0x001);  // loss-shaped: all retried
        manifest.pass_stats = {{.probed = 100, .upgraded = 0, .incomplete = 100}};
        core::write_manifest(dir.path(), manifest);
        const std::string before = file_bytes(sentinel);

        bool resumed = true;
        const core::Measurement measurement = run_census(dir.path().string(), shape, &resumed);
        EXPECT_FALSE(resumed);
        EXPECT_EQ(measurement, reference);
        ASSERT_TRUE(std::filesystem::exists(sentinel));
        EXPECT_EQ(file_bytes(sentinel), before);
        EXPECT_FALSE(core::read_manifest(dir.path()).has_value());
    }
}

TEST(CrashResume, ManifestFromADifferentRunIsIgnored) {
    ScratchDir dir("resume-mismatch");
    // A manifest whose target count disagrees with the plan must be ignored
    // (fresh start), not adopted into a wrong-shaped census.
    core::CensusManifest stale = sample_manifest();
    stale.target_count = 12345;
    core::write_manifest(dir.path(), stale);

    bool resumed = true;
    const core::Measurement measurement =
        run_census(dir.path().string(), {.targets = 100, .passes = 2}, &resumed);
    EXPECT_FALSE(resumed) << "a mismatched manifest must not be adopted";
    EXPECT_EQ(measurement.records.size(), 100u);
    // The completed census cleared the (rewritten) manifest behind itself.
    EXPECT_FALSE(core::read_manifest(dir.path()).has_value());
}

#endif  // !_WIN32

}  // namespace
}  // namespace lfp

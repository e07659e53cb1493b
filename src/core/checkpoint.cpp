#include "core/checkpoint.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string_view>

namespace lfp::core {
namespace {

constexpr char kManifestMagic[8] = {'L', 'F', 'P', 'C', 'K', 'P', 'T', '1'};
constexpr char kManifestName[] = "census.manifest";

void put_u64(std::ostream& out, std::uint64_t value) {
    out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

void put_u32(std::ostream& out, std::uint32_t value) {
    out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

bool get_u64(std::istream& in, std::uint64_t& value) {
    in.read(reinterpret_cast<char*>(&value), sizeof(value));
    return in.gcount() == sizeof(value);
}

bool get_u32(std::istream& in, std::uint32_t& value) {
    in.read(reinterpret_cast<char*>(&value), sizeof(value));
    return in.gcount() == sizeof(value);
}

/// True when `count` items of `width` bytes fit in what is left of the
/// file — checked before any length field from the file sizes an
/// allocation, so a corrupt count can never ask for more than the file
/// holds.
bool fits(std::istream& in, std::uint64_t file_size, std::uint64_t count, std::size_t width) {
    const auto position = static_cast<std::uint64_t>(in.tellg());
    return position <= file_size && count <= (file_size - position) / width;
}

/// A segment name must be a single plain file name inside the checkpoint
/// directory: never absolute, never a path, never "." or "..".
bool plain_file_name(std::string_view name) {
    return !name.empty() && name != "." && name != ".." &&
           name.find_first_of(std::string_view("/\\\0", 3)) == std::string_view::npos;
}

/// Longest segment name accepted (the sink generates a few dozen bytes).
constexpr std::uint64_t kMaxNameLength = 4096;
/// Smallest encodings of a segment entry (record count + name length) and
/// of a pass-stats entry.
constexpr std::size_t kSegmentEntryBytes = sizeof(std::uint64_t) + sizeof(std::uint32_t);
constexpr std::size_t kPassStatsBytes = 3 * sizeof(std::uint64_t);

}  // namespace

std::filesystem::path manifest_path(const std::filesystem::path& directory) {
    return directory / kManifestName;
}

void write_manifest(const std::filesystem::path& directory, const CensusManifest& manifest) {
    std::filesystem::create_directories(directory);
    const std::filesystem::path final_path = manifest_path(directory);
    const std::filesystem::path tmp_path = final_path.string() + ".tmp";
    {
        std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
        if (!out) {
            throw std::runtime_error("checkpoint: cannot create " + tmp_path.string());
        }
        out.write(kManifestMagic, sizeof(kManifestMagic));
        put_u64(out, manifest.index_base);
        put_u64(out, manifest.target_count);
        put_u64(out, manifest.segment_records);
        put_u32(out, manifest.completed_passes);
        put_u32(out, static_cast<std::uint32_t>(manifest.segments.size()));
        for (const auto& [name, records] : manifest.segments) {
            put_u64(out, records);
            put_u32(out, static_cast<std::uint32_t>(name.size()));
            out.write(name.data(), static_cast<std::streamsize>(name.size()));
        }
        put_u64(out, manifest.masks.size());
        out.write(reinterpret_cast<const char*>(manifest.masks.data()),
                  static_cast<std::streamsize>(manifest.masks.size() * sizeof(std::uint16_t)));
        put_u32(out, static_cast<std::uint32_t>(manifest.pass_stats.size()));
        for (const PassStats& stats : manifest.pass_stats) {
            put_u64(out, stats.probed);
            put_u64(out, stats.upgraded);
            put_u64(out, stats.incomplete);
        }
        put_u32(out, static_cast<std::uint32_t>(manifest.retry_lists.size()));
        for (const auto& list : manifest.retry_lists) {
            put_u64(out, list.size());
            out.write(reinterpret_cast<const char*>(list.data()),
                      static_cast<std::streamsize>(list.size() * sizeof(std::uint64_t)));
        }
        out.flush();
        if (!out) {
            throw std::runtime_error("checkpoint: short write to " + tmp_path.string());
        }
    }
    // rename() within one directory is atomic on POSIX: readers (and crash
    // recovery) see the old manifest or the new one, never a prefix.
    std::filesystem::rename(tmp_path, final_path);
}

std::optional<CensusManifest> read_manifest(const std::filesystem::path& directory) {
    const std::filesystem::path path = manifest_path(directory);
    std::error_code ec;
    const std::uint64_t file_size = std::filesystem::file_size(path, ec);
    if (ec) return std::nullopt;
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;

    char magic[sizeof(kManifestMagic)] = {};
    in.read(magic, sizeof(magic));
    if (in.gcount() != sizeof(magic) ||
        std::memcmp(magic, kManifestMagic, sizeof(magic)) != 0) {
        return std::nullopt;
    }

    CensusManifest manifest;
    std::uint32_t segment_count = 0;
    if (!get_u64(in, manifest.index_base) || !get_u64(in, manifest.target_count) ||
        !get_u64(in, manifest.segment_records)) {
        return std::nullopt;
    }
    if (!get_u32(in, manifest.completed_passes) || !get_u32(in, segment_count) ||
        !fits(in, file_size, segment_count, kSegmentEntryBytes)) {
        return std::nullopt;
    }
    manifest.segments.reserve(segment_count);
    for (std::uint32_t i = 0; i < segment_count; ++i) {
        std::uint64_t records = 0;
        std::uint32_t name_length = 0;
        if (!get_u64(in, records) || !get_u32(in, name_length) ||
            name_length > kMaxNameLength) {
            return std::nullopt;
        }
        std::string name(name_length, '\0');
        in.read(name.data(), name_length);
        if (in.gcount() != static_cast<std::streamsize>(name_length) ||
            !plain_file_name(name)) {
            return std::nullopt;
        }
        manifest.segments.emplace_back(std::move(name), records);
    }

    std::uint64_t mask_count = 0;
    if (!get_u64(in, mask_count) || mask_count != manifest.target_count ||
        !fits(in, file_size, mask_count, sizeof(std::uint16_t))) {
        return std::nullopt;
    }
    manifest.masks.resize(mask_count);
    in.read(reinterpret_cast<char*>(manifest.masks.data()),
            static_cast<std::streamsize>(mask_count * sizeof(std::uint16_t)));
    if (in.gcount() != static_cast<std::streamsize>(mask_count * sizeof(std::uint16_t))) {
        return std::nullopt;
    }

    std::uint32_t stats_count = 0;
    if (!get_u32(in, stats_count) || stats_count != manifest.completed_passes ||
        !fits(in, file_size, stats_count, kPassStatsBytes)) {
        return std::nullopt;
    }
    manifest.pass_stats.resize(stats_count);
    for (PassStats& stats : manifest.pass_stats) {
        if (!get_u64(in, stats.probed) || !get_u64(in, stats.upgraded) ||
            !get_u64(in, stats.incomplete)) {
            return std::nullopt;
        }
    }

    // Retry lists index the target list on replay: every entry must name a
    // target of this census, and no list can be longer than the census.
    std::uint32_t list_count = 0;
    if (!get_u32(in, list_count) ||
        std::uint64_t{list_count} + 1 != manifest.completed_passes ||
        !fits(in, file_size, list_count, sizeof(std::uint64_t))) {
        return std::nullopt;
    }
    manifest.retry_lists.resize(list_count);
    for (auto& list : manifest.retry_lists) {
        std::uint64_t length = 0;
        if (!get_u64(in, length) || length > manifest.target_count ||
            !fits(in, file_size, length, sizeof(std::uint64_t))) {
            return std::nullopt;
        }
        list.resize(length);
        in.read(reinterpret_cast<char*>(list.data()),
                static_cast<std::streamsize>(length * sizeof(std::uint64_t)));
        if (in.gcount() != static_cast<std::streamsize>(length * sizeof(std::uint64_t))) {
            return std::nullopt;
        }
        for (const std::uint64_t g : list) {
            if (g < manifest.index_base || g - manifest.index_base >= manifest.target_count) {
                return std::nullopt;
            }
        }
    }

    // Cross-field consistency: segments must cover exactly the targets.
    std::uint64_t covered = 0;
    for (const auto& [name, records] : manifest.segments) covered += records;
    if (covered != manifest.target_count || manifest.completed_passes == 0) {
        return std::nullopt;
    }
    return manifest;
}

void remove_manifest(const std::filesystem::path& directory) {
    std::error_code ec;  // best-effort: a missing manifest is already removed
    std::filesystem::remove(manifest_path(directory), ec);
}

}  // namespace lfp::core

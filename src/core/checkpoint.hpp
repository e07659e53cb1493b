/// \file
/// Census checkpoint manifest: the journal that makes a spilled multi-pass
/// census resumable after `kill -9`.
///
/// The manifest lives next to the spill segments (one file,
/// `census.manifest`) and is rewritten atomically (tmp + rename) at every
/// pass boundary, after the SpillSink tail has been flushed. It records
/// everything a fresh process needs to adopt the on-disk state: the segment
/// set with per-segment record counts, the per-target 2-byte response
/// masks, the pass trajectory so far, and — because simulated transports
/// are stateful — the retry subsets each completed pass probed, so resume
/// can deterministically replay the completed passes' send traffic and
/// rebuild router state before re-running the interrupted pass.
///
/// Crash windows and why they are safe:
///   - killed before the first manifest write: no manifest, the next run
///     starts from scratch (stale segment files are simply overwritten);
///   - killed mid-pass p: the manifest describes boundary p-1; any
///     strict-improvement replaces the dying pass already wrote into the
///     segments are recomputed identically by the resumed pass p (the whole
///     pipeline is deterministic), so partially-written records are
///     overwritten with the same bytes and even a torn in-place write heals;
///   - killed between tmp write and rename: the old manifest stays intact.
///
/// Like the spill segments, the format is a build-private byte dump
/// (host-endian, no cross-version promises) — a crash-resume artefact, not
/// an interchange format.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/measurement.hpp"

namespace lfp::core {

/// Everything needed to resume a spilled multi-pass census at its last
/// completed pass boundary.
struct CensusManifest {
    /// Global index of the first target (CensusRunner's index base for the
    /// stream); a mismatch means the manifest belongs to a different run.
    std::uint64_t index_base = 0;
    std::uint64_t target_count = 0;
    /// SpillConfig::segment_records of the writing run — the position →
    /// segment math only holds when the adopting run agrees.
    std::uint64_t segment_records = 0;
    /// Passes fully completed (1 = pass 0 done, retries still pending).
    std::uint32_t completed_passes = 0;
    /// Segment file names (plain names inside the checkpoint directory, in
    /// order) with their record counts.
    std::vector<std::pair<std::string, std::uint64_t>> segments;
    /// Per-target response masks as of the last completed pass — the
    /// resident index SpillSink keeps in RAM, journaled so resume can
    /// recompute the retry subset without draining every segment.
    std::vector<std::uint16_t> masks;
    std::vector<PassStats> pass_stats;
    /// Retry subsets (global indices) probed by passes 1..completed_passes-1,
    /// in pass order — the replay script for stateful transports.
    std::vector<std::vector<std::uint64_t>> retry_lists;
};

/// The manifest's path inside a checkpoint directory.
[[nodiscard]] std::filesystem::path manifest_path(const std::filesystem::path& directory);

/// Writes the manifest atomically: a concurrent reader (or a crash at any
/// instant) observes either the previous manifest or the new one, never a
/// torn file. Throws std::runtime_error on I/O failure.
void write_manifest(const std::filesystem::path& directory, const CensusManifest& manifest);

/// Reads the manifest back; nullopt when absent, unreadable, or failing
/// structural validation (bad magic, truncation, inconsistent counts, a
/// length larger than the bytes left in the file, a segment name that is
/// not a plain file name, a retry-list entry outside
/// [index_base, index_base + target_count)) — a fresh census simply starts
/// over in those cases.
[[nodiscard]] std::optional<CensusManifest> read_manifest(
    const std::filesystem::path& directory);

/// Removes the manifest (end of a successful census). Missing file is fine.
void remove_manifest(const std::filesystem::path& directory);

}  // namespace lfp::core

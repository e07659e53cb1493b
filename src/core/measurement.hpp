// The measurement record model shared by every pipeline entry point: one
// TargetRecord per probed IP, one Measurement per dataset. Split out of
// pipeline.hpp so the CensusRunner (core/census.hpp) and the LfpPipeline
// compatibility wrapper (core/pipeline.hpp) can both speak it.
//
// Two record representations coexist:
//
//   - TargetRecord: the rich in-memory form — full probe exchanges with
//     packet bytes, std::optional fields, heap-backed signature string.
//     ~1 KB per responsive target; fine for test worlds, fatal at 10M.
//   - CompactRecord: a fixed-width, trivially-copyable projection of
//     everything the pipeline consumes *after* assembly (features,
//     signature inputs, vendor labels, response topology, provenance).
//     ~112 bytes, allocation-free, and safe to write to disk verbatim —
//     the currency of the SpillSink and the scale bench.
//
// The compact form is lossless with respect to the *assembled* record
// contract: everything downstream of assemble_record() — classification,
// signature aggregation, merge/retry decisions, exports — reads only
// derived fields, never the raw packet bytes, so CompactRecord drops the
// raw bytes and reconstructs responded probe slots as present-but-empty
// exchanges. Round-trip tests (test_compact.cpp) pin that equivalence for
// every evidence combination.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/classifier.hpp"
#include "core/feature.hpp"
#include "core/signature.hpp"
#include "probe/campaign.hpp"
#include "stack/vendor.hpp"

namespace lfp::core {

/// Everything the pipeline knows about one probed target.
struct TargetRecord {
    probe::TargetProbeResult probes;
    FeatureVector features;
    Signature signature;
    std::optional<stack::Vendor> snmp_vendor;
    Classification lfp;  ///< filled by classify_measurement()
    /// Provenance of a multi-pass census: the pass whose probe exchange this
    /// record carries (0 = the initial pass; a retry pass replaces the
    /// record wholesale when it measures strictly more, so probes, features,
    /// and signature always describe one internally consistent exchange —
    /// never a cross-pass splice, which would fabricate IPID-sharing
    /// behaviour no router exhibited). Single-pass runs leave it 0.
    std::uint16_t pass = 0;

    /// LFP-responsive: at least one protocol yielded extractable features.
    [[nodiscard]] bool lfp_responsive() const noexcept { return !features.empty(); }
    [[nodiscard]] bool responsive() const noexcept {
        return lfp_responsive() || snmp_vendor.has_value() || probes.any_response();
    }

    friend bool operator==(const TargetRecord&, const TargetRecord&) = default;
};

// ---------------------------------------------------------------------------
// Response-topology masks
//
// A target's entire retry/merge behaviour is a pure function of *which* of
// its ten exchanges answered — never of the answer contents. Encoding that
// as a 10-bit mask (bit slot = round*3 + protocol for the nine probes,
// bit 9 = SNMP discovery answered) gives the spill path a 2-byte RAM
// index per target, and makes the in-memory predicates
// (TargetProbeResult::*_responsive, merge improvement) and the spilled ones
// provably identical: both reduce to the same mask arithmetic.

/// Probe slot in global send order (admission is round-major).
[[nodiscard]] constexpr std::size_t probe_slot(std::size_t protocol,
                                               std::size_t round) noexcept {
    return round * probe::kProtocolCount + protocol;
}

/// Bit 9: the SNMPv3 discovery exchange answered.
inline constexpr std::uint16_t kSnmpAnsweredBit = 1u << 9;
/// Bits 0..8: all nine probe slots.
inline constexpr std::uint16_t kAllProbesMask = 0x1FF;
/// The three slots of one protocol: {p, p+3, p+6}.
[[nodiscard]] constexpr std::uint16_t protocol_slot_mask(std::size_t protocol) noexcept {
    return static_cast<std::uint16_t>(0b001001001u << protocol);
}

/// The response mask of a probe result (bit set ⇔ that exchange answered).
[[nodiscard]] std::uint16_t probe_response_mask(const probe::TargetProbeResult& probes) noexcept;

[[nodiscard]] constexpr std::size_t mask_responses_for(std::uint16_t mask,
                                                       std::size_t protocol) noexcept {
    return static_cast<std::size_t>(std::popcount(
        static_cast<unsigned>(mask & protocol_slot_mask(protocol))));
}
[[nodiscard]] constexpr bool mask_all_protocols_responsive(std::uint16_t mask) noexcept {
    return (mask & kAllProbesMask) == kAllProbesMask;
}
[[nodiscard]] constexpr bool mask_any_response(std::uint16_t mask) noexcept {
    return mask != 0;
}
[[nodiscard]] constexpr bool mask_partially_responsive(std::uint16_t mask) noexcept {
    for (std::size_t p = 0; p < probe::kProtocolCount; ++p) {
        const std::size_t rounds = mask_responses_for(mask, p);
        if (rounds > 0 && rounds < probe::kRoundsPerProtocol) return true;
    }
    return false;
}

/// The multi-pass merge rule on masks: a retry result replaces the
/// incumbent only when it measures at least as much on every axis (per-
/// protocol response rounds, SNMP answer) and strictly more on at least
/// one. The axes are deliberately not traded against each other: a retry
/// that gained a TCP round but lost an ICMP round (or the SNMP answer)
/// would erase evidence the census already holds, so incomparable outcomes
/// keep the incumbent, and equal evidence keeps the earliest pass (stable
/// provenance). A fully answered retry dominates every incumbent, so the
/// rule never blocks a partial-to-full conversion. The census's one
/// multi-pass loop decides every merge with this function, whichever
/// store holds the incumbents.
[[nodiscard]] constexpr bool mask_merge_improves(std::uint16_t candidate,
                                                 std::uint16_t incumbent) noexcept {
    bool strictly_better = false;
    for (std::size_t p = 0; p < probe::kProtocolCount; ++p) {
        const std::size_t candidate_rounds = mask_responses_for(candidate, p);
        const std::size_t incumbent_rounds = mask_responses_for(incumbent, p);
        if (candidate_rounds < incumbent_rounds) return false;
        if (candidate_rounds > incumbent_rounds) strictly_better = true;
    }
    const bool candidate_snmp = (candidate & kSnmpAnsweredBit) != 0;
    const bool incumbent_snmp = (incumbent & kSnmpAnsweredBit) != 0;
    if (incumbent_snmp && !candidate_snmp) return false;
    return strictly_better || (candidate_snmp && !incumbent_snmp);
}

// ---------------------------------------------------------------------------
// CompactRecord

/// Sentinel for "no vendor" in the enum-coded vendor fields (distinct from
/// stack::Vendor::unknown, which is a real label).
inline constexpr std::uint8_t kNoVendor = 0xFF;

/// Fixed-width engine-ID remainder storage. Wire engine IDs serialize to at
/// most 32 bytes total (RFC 3411), of which at most 27 are remainder, so 32
/// holds every parseable ID; a hand-built longer remainder is truncated
/// (documented lossy edge — no parsed record ever hits it).
inline constexpr std::size_t kEngineRemainderMax = 32;

/// The fixed-width projection of an assembled TargetRecord. Trivially
/// copyable by construction (asserted below) so SpillSink can write it to
/// disk verbatim and read it back with no per-record allocation or parsing.
///
/// What is *not* stored, and why it is still lossless for assembled
/// records:
///   - raw packet bytes: consumed only inside assemble_record(); responded
///     slots reconstruct as present-but-empty responses, so responded()/
///     responses_for() and every predicate over them are preserved.
///   - send_index: the admission order is deterministic (round-major), so
///     the slot number *is* the send index.
///   - signature: a pure function of the features
///     (Signature::from_features), recomputed on expansion.
struct CompactRecord {
    double lfp_confidence = 0.0;
    std::uint32_t target = 0;  ///< IPv4, host byte order
    std::int32_t snmp_message_id = 0;
    std::int32_t engine_boots = 0;
    std::int32_t engine_time = 0;
    std::uint32_t engine_enterprise = 0;
    std::uint16_t response_mask = 0;  ///< bits 0..8 probe slots, bit 9 SNMP
    std::uint16_t pass = 0;
    /// Request IPIDs in slot order (slot = round*3 + protocol). Kept for
    /// all nine probes whether or not they answered — the IDs are the
    /// determinism audit trail.
    std::array<std::uint16_t, probe::kProtocolCount * probe::kRoundsPerProtocol>
        request_ipids{};
    FeatureVector features;
    std::uint8_t engine_format = 0;      ///< snmp::EngineIdFormat
    std::uint8_t engine_new_format = 0;  ///< bool
    std::uint8_t engine_remainder_len = 0;
    std::array<std::uint8_t, kEngineRemainderMax> engine_remainder{};
    std::uint8_t snmp_vendor = kNoVendor;  ///< stack::Vendor or kNoVendor
    std::uint8_t lfp_vendor = kNoVendor;   ///< stack::Vendor or kNoVendor
    std::uint8_t lfp_kind = static_cast<std::uint8_t>(MatchKind::none);

    /// Compacts an assembled record (drops raw bytes, see class comment).
    [[nodiscard]] static CompactRecord from_record(const TargetRecord& record);

    /// Expands back to the rich form (empty packet bytes, recomputed
    /// signature). from_record(to_record()) is the identity; the other
    /// direction is the identity on records already in canonical assembled
    /// form (no raw bytes retained).
    [[nodiscard]] TargetRecord to_record() const;

    friend bool operator==(const CompactRecord&, const CompactRecord&) = default;
};

static_assert(std::is_trivially_copyable_v<CompactRecord>,
              "CompactRecord is written to disk verbatim");
static_assert(std::is_trivially_copyable_v<FeatureVector>,
              "FeatureVector is embedded in CompactRecord");

// ---------------------------------------------------------------------------
// Aggregates

/// Per-pass accounting of a multi-pass census (entry p describes pass p).
/// Lives at core scope (not inside CensusRunner) so the io exporters can
/// persist pass trajectories without depending on the census engine.
struct PassStats {
    std::uint64_t probed = 0;      ///< targets this pass probed
    std::uint64_t upgraded = 0;    ///< records a retry result replaced
    std::uint64_t incomplete = 0;  ///< retry candidates left afterwards

    friend bool operator==(const PassStats&, const PassStats&) = default;
};

/// The Table 3 style population tallies, maintainable incrementally: add()
/// is the single source of truth for what each count means, shared by the
/// batch scan and the streaming sink chain.
struct MeasurementCounts {
    std::size_t responsive = 0;
    std::size_t snmp = 0;
    /// The paper's "SNMPv3 ∩ LFP" column: IPs answering SNMPv3 *and all
    /// nine* LFP probes — the population signatures are extracted from.
    std::size_t snmp_and_lfp = 0;
    std::size_t lfp_only = 0;

    void add(const TargetRecord& record) noexcept {
        if (record.responsive()) ++responsive;
        if (record.snmp_vendor) {
            ++snmp;
            if (record.features.complete()) ++snmp_and_lfp;
        } else if (record.lfp_responsive()) {
            ++lfp_only;
        }
    }

    friend bool operator==(const MeasurementCounts&, const MeasurementCounts&) = default;
};

/// One dataset's worth of probed targets plus Table 3 style aggregates.
///
/// The count accessors are O(1) after the first call (or from the start
/// when a streaming producer pre-filled `counts` via set_counts()): the
/// tallies are cached and only recomputed after invalidate_counts(). The
/// counts depend on probe/feature/label evidence, not on classification,
/// so classify() does not invalidate them.
struct Measurement {
    std::string name;
    std::vector<TargetRecord> records;
    /// Cached tallies; treat as private (use the accessors). Public so the
    /// struct stays an aggregate.
    mutable std::optional<MeasurementCounts> counts;

    [[nodiscard]] std::size_t responsive_count() const { return tallies().responsive; }
    [[nodiscard]] std::size_t snmp_count() const { return tallies().snmp; }
    [[nodiscard]] std::size_t snmp_and_lfp_count() const { return tallies().snmp_and_lfp; }
    [[nodiscard]] std::size_t lfp_only_count() const { return tallies().lfp_only; }

    /// Installs tallies computed upstream (the streaming sink chain) so no
    /// accessor ever rescans `records`.
    void set_counts(MeasurementCounts tallies) const { counts = tallies; }
    /// Call after mutating `records` in a way that changes evidence
    /// (classification changes don't count — literally).
    void invalidate_counts() const noexcept { counts.reset(); }

    /// Identity is the data, not the cache state.
    friend bool operator==(const Measurement& a, const Measurement& b) {
        return a.name == b.name && a.records == b.records;
    }

  private:
    [[nodiscard]] const MeasurementCounts& tallies() const;
};

}  // namespace lfp::core

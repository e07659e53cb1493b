// Incremental record consumers: the streaming counterpart of the
// materialise-everything Measurement. CensusRunner::stream_passes() drives a
// RecordSink with one fully assembled TargetRecord per target, in strictly
// increasing global-index order — in a single-pass census *while later
// targets are still being probed*, so signature aggregation and
// classification overlap the census instead of waiting behind it.
//
// Sinks compose as a chain: each decorating sink does its per-record work
// and forwards the record downstream (SignatureAbsorbSink feeds the
// database, ClassifySink stamps record.lfp), with a CollectingSink at the
// tail whenever the caller also wants the classic Measurement. The batch
// entry points (CensusRunner::measure_passes, LfpPipeline::measure,
// ExperimentWorld) are exactly that: thin adapters over a collecting sink.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/measurement.hpp"
#include "core/signature_db.hpp"
#include "util/result.hpp"

namespace lfp::core {

/// Consumer of a census record stream. accept() is called once per target
/// in strictly increasing global-index order, on the streaming thread;
/// finish() follows the last record of the stream exactly once.
class RecordSink {
  public:
    virtual ~RecordSink() = default;

    virtual void accept(std::uint64_t global_index, TargetRecord&& record) = 0;
    virtual void finish() {}
};

/// The adapter back to batch land: collects the stream into a Measurement.
class CollectingSink final : public RecordSink {
  public:
    explicit CollectingSink(std::string name) { measurement_.name = std::move(name); }

    void reserve(std::size_t records) { measurement_.records.reserve(records); }

    void accept(std::uint64_t /*global_index*/, TargetRecord&& record) override {
        // Tally while the record streams by, so Measurement's Table 3
        // counts never have to rescan the collected vector.
        tallies_.add(record);
        measurement_.records.push_back(std::move(record));
    }

    /// Moves the collected Measurement out (with its streaming tallies
    /// pre-installed); call after the stream finished.
    [[nodiscard]] Measurement take() {
        measurement_.set_counts(tallies_);
        return std::move(measurement_);
    }

  private:
    Measurement measurement_;
    MeasurementCounts tallies_;
};

/// Streams labeled signatures into an (unfinalized) SignatureDatabase as
/// records complete — the per-record form of the sharded build_database
/// stage. Absorbing the same records in any grouping yields the same
/// totals (counts are additive), so a database fed by this sink across
/// several datasets and then finalized is byte-identical to the batch
/// build. Forwards every record downstream when a next sink is given.
///
/// Pass-aware mode (Options::retract_superseded): a multi-pass producer may
/// feed the sink *per pass* — the same global index arrives again whenever a
/// retry pass upgraded that target's record. The sink then retracts the
/// superseded record's absorbed contribution before absorbing the upgrade,
/// so after any add/retract sequence the database holds exactly what a
/// final-records-only absorption would — signature aggregation can overlap
/// multi-pass probing instead of waiting for the last pass (the serving
/// layer's incremental snapshot build rides this). Without the option the
/// classic stream contract applies: each index exactly once.
struct AbsorbOptions {
    /// Accept repeated global indices, retracting the previously absorbed
    /// contribution of a superseded record before absorbing its upgrade.
    bool retract_superseded = false;
};

class SignatureAbsorbSink final : public RecordSink {
  public:
    using Options = AbsorbOptions;

    explicit SignatureAbsorbSink(SignatureDatabase& database, RecordSink* next = nullptr,
                                 Options options = {})
        : database_(&database), next_(next), options_(options) {}

    void accept(std::uint64_t global_index, TargetRecord&& record) override {
        if (options_.retract_superseded) {
            if (auto it = absorbed_.find(global_index); it != absorbed_.end()) {
                database_->retract_labeled(it->second.signature, it->second.vendor);
                absorbed_.erase(it);
            }
        }
        if (record.snmp_vendor && !record.features.empty()) {
            database_->add_labeled(record.signature, *record.snmp_vendor);
            if (options_.retract_superseded) {
                absorbed_.emplace(global_index,
                                  Absorbed{record.signature, *record.snmp_vendor});
            }
        }
        if (next_ != nullptr) next_->accept(global_index, std::move(record));
    }

    void finish() override {
        if (next_ != nullptr) next_->finish();
    }

  private:
    struct Absorbed {
        Signature signature;
        stack::Vendor vendor;
    };

    SignatureDatabase* database_;
    RecordSink* next_;
    Options options_;
    /// Pass-aware mode only: what each global index last contributed, so a
    /// superseding record can withdraw it.
    std::unordered_map<std::uint64_t, Absorbed> absorbed_;
};

/// Collects the retry population for multi-pass probing as records stream
/// by, forwarding every record downstream untouched. A target is a retry
/// candidate when its signature is *incomplete* in the paper's Table 4
/// sense — loss-shaped (a spoken protocol answered some rounds but not
/// all: packets demonstrably dropped) or missing-protocol (the target
/// proved it is alive on one protocol while another stayed silent). Fully
/// silent targets are filtering-shaped, not loss-shaped, and are skipped
/// unless Options::retry_silent opts them in — re-probing a dead address
/// parks a window slot for the full response timeout every pass and almost
/// never converts.
///
/// A single-pass CensusRunner::stream_passes() plants this sink at the head
/// of the chain to tally what a second pass would re-probe. The multi-pass
/// loop asks the mask form, incomplete_mask(), of every *stored* incumbent
/// after each pass, so the merged state — not the raw retry result —
/// decides what the next pass still re-probes.
struct RetryOptions {
    /// Also retry targets that answered nothing at all. Off by default
    /// (silence is filtering-shaped, see RetrySink); turn it on for
    /// hitlists known to be responsive, where total silence really does
    /// mean every probe was lost.
    bool retry_silent = false;
    /// Also retry targets whose *only* missing datum is the SNMP discovery
    /// answer. Off by default: in the wild, SNMP silence is overwhelmingly
    /// filtering (the paper's Table 3 — SNMPv3 answers are a small minority
    /// of the responsive population), so retrying every SNMP-silent target
    /// would re-probe most of the census every pass for almost no converts.
    /// Turn it on for hitlists known to speak SNMPv3, where a missing
    /// answer really is a lost packet worth a fresh msgID lane.
    bool retry_missing_snmp = false;
    /// Retry targets that proved they are alive on one protocol while
    /// another stayed entirely silent (missing-protocol). On by default —
    /// the multi-pass contract chases every incomplete signature — but on
    /// live populations protocol-level silence is mostly *policy* (a
    /// router that answers ICMP and filters TCP never converts, so every
    /// pass re-probes it for nothing); turn it off there to retry only the
    /// genuinely loss-shaped intra-protocol gaps.
    bool retry_missing_protocol = true;
};

class RetrySink final : public RecordSink {
  public:
    /// Namespace-level so it can serve as an in-class default argument
    /// (a nested struct's member initializers are not parsed until the
    /// enclosing class is complete).
    using Options = RetryOptions;

    explicit RetrySink(RecordSink* next = nullptr, Options options = {})
        : next_(next), options_(options) {}

    /// The retry predicate on a bare response mask (see probe_response_mask)
    /// — the form the spill path uses, where only the 10-bit topology of
    /// each record stays in RAM. The record form below is implemented via
    /// this one, so the two can never disagree.
    [[nodiscard]] static constexpr bool incomplete_mask(std::uint16_t mask,
                                                        const Options& options = {}) noexcept {
        if (mask_all_protocols_responsive(mask)) {
            // Complete signature; only the (independent) SNMP exchange can
            // still be missing, and only opted-in hitlists chase it.
            return options.retry_missing_snmp && (mask & kSnmpAnsweredBit) == 0;
        }
        // Intra-protocol gaps are drop-shaped evidence: always worth a
        // fresh pass.
        if (mask_partially_responsive(mask)) return true;
        // Alive on some protocol, entirely silent on another: loss or
        // policy — the option decides which way to bet.
        if (mask_any_response(mask)) return options.retry_missing_protocol;
        return options.retry_silent;
    }

    /// The retry predicate, exposed so tests and callers can ask the same
    /// question of any record: true when another pass could plausibly
    /// complete this signature.
    [[nodiscard]] static bool incomplete(const TargetRecord& record,
                                         const Options& options = {}) {
        return incomplete_mask(probe_response_mask(record.probes), options);
    }

    void accept(std::uint64_t global_index, TargetRecord&& record) override {
        if (incomplete(record, options_)) retry_indices_.push_back(global_index);
        if (next_ != nullptr) next_->accept(global_index, std::move(record));
    }

    void finish() override {
        if (next_ != nullptr) next_->finish();
    }

    /// Global indices of the retry population, in stream (= global index)
    /// order.
    [[nodiscard]] const std::vector<std::uint64_t>& retry_indices() const noexcept {
        return retry_indices_;
    }

  private:
    RecordSink* next_;
    Options options_;
    std::vector<std::uint64_t> retry_indices_;
};

/// Classifies each record against a *finalized* database as it streams by —
/// the per-record form of classify_records, for censuses run against an
/// existing signature corpus: records leave the wire already labeled.
class ClassifySink final : public RecordSink {
  public:
    explicit ClassifySink(const SignatureDatabase& database,
                          LfpClassifier::Options options = {}, RecordSink* next = nullptr)
        : classifier_(database, options), next_(next) {}

    void accept(std::uint64_t global_index, TargetRecord&& record) override {
        record.lfp = classifier_.classify(record.signature);
        if (next_ != nullptr) next_->accept(global_index, std::move(record));
    }

    void finish() override {
        if (next_ != nullptr) next_->finish();
    }

  private:
    LfpClassifier classifier_;
    RecordSink* next_;
};

// ---------------------------------------------------------------------------
// Spill-to-disk storage

struct SpillConfig {
    /// Directory for segment files. Empty → $LFP_SPILL_DIR → the system
    /// temp directory.
    std::string directory;
    /// Fixed-size records per on-disk segment (the flush/seek granularity).
    /// 64Ki records ≈ 7 MB per segment at the current record width.
    std::size_t segment_records = std::size_t{1} << 16;
    /// Leave segment files on disk at destruction (debugging/post-mortem);
    /// by default the sink removes everything it wrote.
    bool keep_segments = false;
};

/// RecordSink that appends fixed-width CompactRecords to size-capped disk
/// segments, so a census of any size holds at most one segment of records
/// in RAM (the unflushed tail) plus two bytes per target (the response-mask
/// index that drives retry selection and merge improvement — see
/// probe_response_mask).
///
/// Records arrive in strictly increasing, gap-free global-index order (the
/// stream contract); `index_base` anchors global index → file offset.
/// Retry passes upgrade spilled records in place via replace() — records
/// are fixed-width, so an upgrade is one positioned write, no rewrite of
/// the segment. drain() re-reads everything sequentially, expands each
/// record back to a TargetRecord, and feeds a downstream sink in order —
/// the bridge back to the in-memory pipeline stages.
///
/// Single-threaded like every RecordSink (driven by the census consumer
/// thread). I/O errors throw std::runtime_error — a half-written spill is
/// not a census.
class SpillSink final : public RecordSink {
  public:
    explicit SpillSink(SpillConfig config = {}, std::uint64_t index_base = 0);
    ~SpillSink() override;

    SpillSink(const SpillSink&) = delete;
    SpillSink& operator=(const SpillSink&) = delete;

    void accept(std::uint64_t global_index, TargetRecord&& record) override;

    /// Appends a compact record; `global_index` must be exactly
    /// index_base() + size() (the stream order contract, asserted).
    void append(std::uint64_t global_index, const CompactRecord& record);

    /// Overwrites the record at `global_index` (flushed segment or tail).
    void replace(std::uint64_t global_index, const CompactRecord& record);
    void replace(std::uint64_t global_index, TargetRecord&& record) {
        replace(global_index, CompactRecord::from_record(record));
    }

    /// Reads one record back (seeks for flushed segments; RAM for the tail).
    [[nodiscard]] CompactRecord read(std::uint64_t global_index);

    /// The RAM-resident 10-bit response topology of every spilled record —
    /// everything retry selection and merge improvement need.
    [[nodiscard]] std::uint16_t response_mask(std::uint64_t global_index) const {
        return masks_[static_cast<std::size_t>(global_index - index_base_)];
    }
    [[nodiscard]] const std::vector<std::uint16_t>& response_masks() const noexcept {
        return masks_;
    }

    [[nodiscard]] std::size_t size() const noexcept { return masks_.size(); }
    [[nodiscard]] std::uint64_t index_base() const noexcept { return index_base_; }
    [[nodiscard]] std::size_t segments_flushed() const noexcept { return segments_.size(); }
    [[nodiscard]] const std::filesystem::path& directory() const noexcept {
        return directory_;
    }

    /// Sequentially re-reads every record in global-index order, expands it,
    /// and feeds `sink` (without calling its finish() — the caller owns the
    /// stream lifecycle).
    void drain(RecordSink& sink);

    /// Flushes the unflushed tail into a (possibly short) final segment —
    /// the checkpoint-boundary hook: after flush() every accepted record is
    /// on disk and segment_manifest() describes the census completely. Only
    /// legal as the last write-side operation before replace()/drain()
    /// (append() past a short final segment would break the position math,
    /// and is asserted against).
    void flush();

    /// One on-disk segment as the checkpoint manifest records it.
    struct SegmentInfo {
        std::filesystem::path path;
        std::size_t records = 0;
    };

    /// The flushed segment set, in global-index order.
    [[nodiscard]] std::vector<SegmentInfo> segment_manifest() const;

    /// Adopts segments a previous (killed) process wrote, together with the
    /// journaled response-mask index — the crash-resume entry point. The
    /// sink must be empty (throws std::runtime_error otherwise). Returns
    /// false and adopts nothing unless every segment is intact: a valid
    /// spill header and a size of exactly header + records × record width,
    /// every non-final segment holding `config.segment_records` records,
    /// the counts summing to `masks.size()`. Adopted segments are never
    /// removed by the destructor regardless of keep_segments — this sink
    /// did not create them alone, and a failed resume must stay resumable.
    [[nodiscard]] bool adopt(std::vector<SegmentInfo> segments,
                             std::vector<std::uint16_t> masks);

    /// Parses one segment file. A truncated tail (crash mid-write) is
    /// tolerated: complete records parse, the partial trailing record is
    /// dropped. A corrupt header throws.
    [[nodiscard]] static std::vector<CompactRecord> read_segment_file(
        const std::filesystem::path& path);

    /// Non-throwing variant: a corrupt or unreadable segment reports as an
    /// error value instead (truncated tails are still tolerated in-band).
    [[nodiscard]] static util::Result<std::vector<CompactRecord>> try_read_segment_file(
        const std::filesystem::path& path);

    /// Salvage read over a segment set: good segments contribute their
    /// records, corrupt ones are skipped and reported (path + reason) so
    /// the caller can keep going with partial data instead of losing the
    /// census. The value is never an error — total loss is simply every
    /// segment landing in `skipped`.
    struct SegmentSalvage {
        std::vector<CompactRecord> records;
        std::vector<std::pair<std::filesystem::path, std::string>> skipped;
    };
    [[nodiscard]] static SegmentSalvage read_segment_files(
        std::span<const std::filesystem::path> paths);

  private:
    struct Segment {
        std::filesystem::path path;
        std::size_t records = 0;
        /// Lazily opened read/write handle for replace()/read(); kept open
        /// because retry merges revisit segments many times.
        std::unique_ptr<std::fstream> stream;
    };

    void flush_tail();
    std::fstream& segment_stream(Segment& segment);

    SpillConfig config_;
    std::filesystem::path directory_;
    std::uint64_t index_base_;
    std::uint64_t sequence_;  ///< distinguishes this sink's files on disk
    bool adopted_ = false;    ///< segments inherited from a killed process
    std::vector<Segment> segments_;
    std::vector<CompactRecord> tail_;        ///< unflushed newest records
    std::vector<std::uint16_t> masks_;       ///< response mask per record
};

}  // namespace lfp::core

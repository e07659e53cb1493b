// Vantage-aware census API: the declarative CensusPlan describes *what* to
// measure (targets, vantage transports, window/timeout/worker knobs, ID
// bases) and the CensusRunner executes it — partitioning the target list
// across vantage lanes, running each lane's windowed campaign on its own
// thread, and index-merging records so the merged stream is byte-identical
// to a single-vantage serial run on deterministic transports.
//
// Determinism rests on three properties:
//   1. IPIDs and SNMP msgIDs are pure functions of a target's *global*
//      index (Campaign::run_indexed), so every lane stamps exactly the
//      packets a serial run would, whatever the partition.
//   2. Records are merged by global index, so output order never depends on
//      lane scheduling.
//   3. Targets that share backend state (alias IPs of one simulated router)
//      are pinned to one lane via CensusPlan::assignment, preserving their
//      serial relative order; lanes touch disjoint state and may run freely
//      in parallel.
// The downstream stages (feature extraction, signature aggregation,
// classification) shard over a worker pool with index-order merges, so the
// whole Figure-1 pipeline is deterministic at any worker count.
//
// Three entry points: stream_passes() is the census, stream_paths() the
// path census over traceroute-discovered hops, and measure_passes() the
// batch form (stream_passes() into a CollectingSink). A single pass streams
// records to the sink in global-index order while later targets are still
// in flight. More passes run the one multi-pass loop: pass 0 fills an
// incumbent store (whole records in RAM, or a SpillSink on disk with
// plan.spill), each later pass re-probes only the targets whose stored
// response mask is incomplete under per-pass shifted ID bases
// (kPassIpidStride/kPassMsgIdStride — still pure functions of pass and
// global index), a retry replaces its incumbent only on strict improvement
// (mask_merge_improves, TargetRecord::pass provenance), and the store
// drains to the sink in global-index order at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/measurement.hpp"
#include "core/record_sink.hpp"
#include "probe/transport.hpp"
#include "util/thread_pool.hpp"

namespace lfp::core {

/// Declarative description of a measurement census: one aggregate holding
/// everything the ad-hoc Campaign::Config + PipelineConfig + loose
/// ExperimentWorld plumbing used to scatter.
struct CensusPlan {
    /// Label of the census, e.g. the Measurement name a caller hands to
    /// measure_passes().
    std::string name = "census";
    /// The census's target list, for callers that keep it with the plan
    /// (the serving layer re-runs it every census); the runner's entry
    /// points take the list explicitly.
    std::vector<net::IPv4Address> targets;

    /// Vantage transports, one per lane (non-owning; must outlive the
    /// runner). One entry reproduces the classic single-vantage pipeline.
    std::vector<probe::ProbeTransport*> vantages;

    /// Optional explicit lane assignment for `targets`: assignment[i] is the
    /// vantage lane of targets[i]. Empty = group by the lead vantage's
    /// ProbeTransport::backend_hint() — targets reporting the same backend
    /// (alias interfaces of one simulated router) share a lane, everything
    /// else (including duplicate addresses, which always share) spreads
    /// round-robin in first-appearance order. Transports without ground
    /// truth hint nothing, which degrades to round-robin over distinct
    /// addresses. Pass an explicit assignment (assignment_by_affinity())
    /// when the caller knows an affinity the transport cannot.
    std::vector<std::uint32_t> assignment;

    /// Per-lane campaign knobs: window, timeouts, IPID/msgID bases. The ID
    /// bases seed the *global* index lanes, shared by every vantage.
    probe::Campaign::Config campaign;
    FeatureExtractorConfig extractor;

    /// Worker pool size for sharded feature extraction, signature
    /// aggregation, and classification. 1 = single-threaded, 0 = one worker
    /// per hardware thread. Any value yields identical output.
    std::size_t worker_threads = 1;
    /// Records per worker-pool shard.
    std::size_t shard_grain = 64;

    /// Census passes when an entry point is given `passes` 0: pass 0 probes
    /// the whole list, every later pass re-probes only the targets whose
    /// signatures came back incomplete (RetrySink's predicate) under that
    /// pass's shifted ID bases. 1 (the default) is the classic single-pass
    /// census.
    std::size_t passes = 1;
    /// Retry policy for the multi-pass loop (see RetrySink::Options).
    RetrySink::Options retry;

    /// Lane supervision deadline: when > 0, the streaming consumer watches
    /// each lane for progress and declares a lane dead once it has neither
    /// delivered a record nor finished within this window (also the trigger
    /// for a lane that *ends* short of its targets, e.g. a transport that
    /// threw). A dead lane is torn down (its campaign cancelled) and its
    /// unfinished targets are requeued onto the surviving lanes — IDs are
    /// pure functions of (pass, global index), so the re-probe stamps
    /// exactly the packets the dead lane would have, and the merged stream
    /// stays in global-index order. 0 (the default) disables supervision:
    /// a short lane throws, as ever. Resolved from LFP_WATCHDOG_MS when the
    /// plan leaves it 0. Set it comfortably above
    /// campaign.response_timeout — a merely slow lane that trips the
    /// watchdog is requeued too, which is safe but wasteful (and, on
    /// stateful simulated transports, no longer byte-identical since the
    /// first probes already advanced router state).
    std::chrono::milliseconds watchdog{0};

    /// Crash-tolerant resume for the spilled multi-pass census: when
    /// non-empty (or via LFP_CHECKPOINT_DIR when empty), spill segments are
    /// redirected into this directory and a census manifest (see
    /// core/checkpoint.hpp) is journaled at every pass boundary. A later
    /// run over the same target count finding a manifest resumes at the
    /// last completed pass instead of starting over; `kill -9` mid-pass
    /// costs at most one pass of work, and the resumed output is
    /// byte-identical to an uninterrupted run: resume replays the
    /// completed passes' send traffic (results discarded) before re-running
    /// the interrupted pass, so stateful simulated routers meet the state
    /// they would have. Applies to the spill path only (spill = true,
    /// passes > 1); other shapes ignore it.
    std::string checkpoint_dir;

    /// Spill-to-disk for the multi-pass census: when true, the incumbent
    /// store is a SpillSink and the census never materialises the whole
    /// record set in RAM. Pass 0 streams into the SpillSink (fixed-width
    /// CompactRecords in size-capped disk segments; two bytes of
    /// response-mask index per target stay resident), retry passes merge
    /// strictly-improving results into the spilled segments in place, and
    /// the final in-order emission re-reads the segments sequentially.
    /// Byte-identical classifications and signature databases to the
    /// in-memory path — one loop decides retries and merges from response
    /// masks over either store (see mask_merge_improves).
    /// Expanded records carry empty packet bytes (the raw bytes are
    /// consumed at assembly; see CompactRecord). Single-pass censuses
    /// ignore this flag: they hold nothing.
    bool spill = false;
    /// Segment directory/sizing for the spill path (see SpillConfig; the
    /// default resolves $LFP_SPILL_DIR, then the system temp directory).
    SpillConfig spill_config;

    /// Per-pass ID lane shifts: pass p stamps target g with IPIDs
    /// (ipid_base + p*kPassIpidStride) + g*ids_per_target .. and msgID
    /// (snmp_message_id_base + p*kPassMsgIdStride) + g — pure functions of
    /// (pass, global index), so a multi-pass census is as byte-deterministic
    /// as a single-pass one, and a retried target's packets differ from its
    /// pass-0 packets (fresh loss draws on the sim's per-packet hash, fresh
    /// wire traffic live). The IPID stride is odd so consecutive passes
    /// never re-stamp a colliding lane even after mod-2^16 wraparound.
    static constexpr std::uint16_t kPassIpidStride = 0x4D1F;
    static constexpr std::uint32_t kPassMsgIdStride = 1u << 20;

    /// Validation ceilings: generous for real deployments, tight enough to
    /// catch corrupted configs (a window of 2^20 or 10^6 vantages is a bug,
    /// not a plan).
    static constexpr std::size_t kMaxVantages = 256;
    static constexpr std::size_t kMaxWindow = 1 << 16;
    static constexpr std::size_t kMaxWorkers = 1024;
    static constexpr std::size_t kMaxPasses = 64;

    /// Throws std::invalid_argument naming the offending knob when the plan
    /// cannot be executed (no vantages, null transport, zero/absurd window,
    /// assignment of the wrong size or referencing a missing lane, ...).
    void validate() const;

    /// Builds a lane assignment that groups targets with equal affinity
    /// keys onto one lane, balancing *groups* round-robin over
    /// `vantage_count` lanes in first-appearance order. keys[i] is an
    /// opaque identifier of the backend state behind targets[i] (e.g. the
    /// ground-truth router index, or the address itself when independent).
    static std::vector<std::uint32_t> assignment_by_affinity(
        std::span<const std::uint64_t> keys, std::size_t vantage_count);
};

/// The hop set a path census probes: traceroute-discovered router
/// interfaces collapsed into a deduplicated target list with hop→path
/// provenance. Built from raw hop lists (sim::Traceroute::hops or a live
/// traceroute harvest) by from_paths(), which applies the census-side noise
/// filter — private/special addresses never become probe targets — while
/// keeping the counters the path analyses need to reason about what was
/// dropped. Targets keep first-appearance order across the path list, so
/// the list (and with it every derived ID lane) is a pure function of the
/// paths, never of how many census lanes later probe it.
struct PathTargets {
    /// Deduplicated routable hop addresses, in first-appearance order.
    std::vector<net::IPv4Address> targets;
    /// provenance[i] = ascending indices of every path that listed
    /// targets[i] (each path counted once, however often the hop repeats
    /// inside it) — the credit list the per-path profiles are built from.
    std::vector<std::vector<std::uint32_t>> provenance;
    /// first_path[i] = provenance[i].front(): the path (and thereby the
    /// discovering vantage) a target is attributed to for lane mapping.
    std::vector<std::uint32_t> first_path;

    /// Raw hop entries across all paths, before any filtering.
    std::uint64_t hops_listed = 0;
    /// Hop entries dropped by the address-level noise filter (private and
    /// special addresses — traceroute noise that must never be probed).
    std::uint64_t unroutable_dropped = 0;
    /// Routable hop entries beyond each address's first appearance.
    std::uint64_t duplicates_collapsed = 0;

    /// Collapses `paths` (one hop list per path, in path order) into the
    /// deduplicated target set described above.
    [[nodiscard]] static PathTargets from_paths(
        std::span<const std::vector<net::IPv4Address>> paths);
};

/// Executes CensusPlans. Holds the worker pool and the running global-index
/// offset, so consecutive census calls continue the same ID lanes exactly
/// like one long serial campaign over the concatenated target lists.
class CensusRunner {
  public:
    /// Validates the plan (throws std::invalid_argument on a bad one).
    explicit CensusRunner(CensusPlan plan);

    CensusRunner(const CensusRunner&) = delete;
    CensusRunner& operator=(const CensusRunner&) = delete;

    /// Per-pass accounting of the latest stream_passes() call (entry p
    /// describes pass p). The struct itself lives at core scope
    /// (core::PassStats in measurement.hpp) so the io exporters can persist
    /// pass trajectories without pulling in the census engine; the alias
    /// keeps the historical CensusRunner::PassStats spelling working.
    using PassStats = core::PassStats;

    /// The census: probes `targets` across the vantage lanes and drives
    /// `sink` with one assembled TargetRecord per target in strictly
    /// increasing global-index order, then sink.finish(). `assignment` maps
    /// each target to a lane (empty = backend-hint grouping, as for
    /// CensusPlan::assignment); `passes` 0 means "the plan's configured
    /// pass count".
    ///
    /// One pass streams: lane threads hand completed probe results to this
    /// (calling) thread over per-lane lock-free rings, feature extraction
    /// and signature/labeling run here in shard_grain batches over the
    /// worker pool, and the sink sees each record while later targets are
    /// still in flight. More passes run the multi-pass loop: pass 0 fills
    /// the incumbent store (RAM, or disk segments with plan.spill), each
    /// later pass re-probes only the targets RetrySink's predicate flags
    /// incomplete, under ID bases shifted by CensusPlan::kPassIpidStride/
    /// kPassMsgIdStride per pass — pure functions of (pass, global index),
    /// so multi-pass runs stay byte-deterministic. A retry result replaces
    /// its incumbent only when it measured *strictly more* (more answered
    /// probe slots, an SNMP answer breaking ties); records are never
    /// spliced across passes, and TargetRecord::pass carries the winning
    /// pass as provenance. The sink then sees each target's final record
    /// exactly once, in global-index order — after the last pass, since no
    /// record is final before every pass it might be retried in has run.
    /// Byte-identity: the output is the same at any vantage count, window
    /// or worker count, and (packet bytes aside) with or without spill.
    /// Per-pass counts land in last_pass_stats().
    void stream_passes(std::span<const net::IPv4Address> targets,
                       std::span<const std::uint32_t> assignment, std::size_t passes,
                       RecordSink& sink);

    /// Batch form of stream_passes(): collects the stream into a
    /// Measurement named `name`.
    [[nodiscard]] Measurement measure_passes(std::string name,
                                             std::span<const net::IPv4Address> targets,
                                             std::span<const std::uint32_t> assignment = {},
                                             std::size_t passes = 0);

    /// Per-pass stats of the most recent stream_passes() call (empty before
    /// the first one).
    [[nodiscard]] const std::vector<PassStats>& last_pass_stats() const noexcept {
        return pass_stats_;
    }

    /// The path census: collapses `paths` (one hop list per path) into a
    /// PathTargets set — deduplicated across paths, private hops filtered,
    /// provenance preserved — and probes it through stream_passes(), so the
    /// discovered hops ride the full multi-pass strict-improvement engine
    /// as first-class census targets. `path_lane`, when non-empty, names
    /// the vantage that discovered each path (path_lane[i] for paths[i],
    /// values taken mod the lane count): each hop is then probed from the
    /// lane of the first path that discovered it, with backend-hint
    /// affinity still grouping alias interfaces of one stateful router onto
    /// a single lane. Empty = the default hint grouping. Either way the
    /// merged output is byte-identical at any vantage count — IDs are pure
    /// functions of (pass, global index), and the target list depends only
    /// on the paths. The collapsed set lands in last_path_targets().
    void stream_paths(std::span<const std::vector<net::IPv4Address>> paths,
                      std::span<const std::uint32_t> path_lane, std::size_t passes,
                      RecordSink& sink);

    /// The hop set the most recent stream_paths() call probed (empty before
    /// the first path census).
    [[nodiscard]] const PathTargets& last_path_targets() const noexcept {
        return path_targets_;
    }

    /// The lane assignment for a path census: every target goes to the lane
    /// of the first path that discovered it (path_lane[first_path[target]]
    /// mod the vantage count), except that targets sharing a backend hint
    /// (alias interfaces of one stateful simulated router) are pinned to
    /// the lane of the hint group's first member — the same aliasing rule
    /// the default hint grouping enforces, so lanes stay free to run in
    /// parallel without racing one router's counters.
    [[nodiscard]] std::vector<std::uint32_t> assignment_by_discovery(
        const PathTargets& targets, std::span<const std::uint32_t> path_lane) const;

    /// Builds the signature database from the labeled subset of the given
    /// measurements (step 3), sharding aggregation per measurement over the
    /// worker pool and merging shard counts in measurement order.
    [[nodiscard]] SignatureDatabase build_database(std::span<const Measurement> measurements,
                                                   SignatureDbConfig config = {});

    /// Classifies every record in place (steps 4-5), sharded over the
    /// worker pool with deterministic index-order merge.
    void classify(Measurement& measurement, const SignatureDatabase& database,
                  LfpClassifier::Options options = {});

    [[nodiscard]] const CensusPlan& plan() const noexcept { return plan_; }
    [[nodiscard]] std::size_t vantage_count() const noexcept { return plan_.vantages.size(); }
    [[nodiscard]] util::ThreadPool& pool() noexcept { return pool_; }

    /// Aggregate counters across all lanes and census calls.
    [[nodiscard]] std::uint64_t packets_sent() const noexcept { return packets_sent_; }
    [[nodiscard]] std::uint64_t responses_received() const noexcept { return responses_; }
    [[nodiscard]] std::uint64_t stray_responses() const noexcept { return strays_; }
    /// Lanes the watchdog tore down and requeued (0 on a healthy census).
    [[nodiscard]] std::uint64_t lanes_recovered() const noexcept { return lanes_recovered_; }
    /// True when the latest stream_passes() call resumed from a checkpoint
    /// manifest instead of starting pass 0 from scratch.
    [[nodiscard]] bool resumed_from_checkpoint() const noexcept { return resumed_; }

  private:
    /// The engine beneath every pass: probes `targets` where targets[i]
    /// carries global index global_indices[i] and the given campaign knobs
    /// (pass 0 uses the plan's, retry passes shift the ID bases). Does not
    /// advance next_global_index_ — the entry points own index-space
    /// accounting.
    void stream_indexed(std::span<const net::IPv4Address> targets,
                        std::span<const std::uint64_t> global_indices,
                        std::span<const std::uint32_t> assignment,
                        const probe::Campaign::Config& campaign_config, RecordSink& sink);

    /// The multi-pass loop (passes > 1) over an incumbent store — the
    /// in-memory one or a SpillSink. indices[i] is the global index of
    /// targets[i]; the loop filters that list into pass 1's retry list.
    /// Defined and instantiated in census.cpp.
    template <class Store>
    void pass_loop(Store& store, std::span<const net::IPv4Address> targets,
                   std::vector<std::uint64_t> indices,
                   std::span<const std::uint32_t> assignment, std::size_t passes,
                   RecordSink& sink);

    CensusPlan plan_;
    util::ThreadPool pool_;
    std::uint64_t next_global_index_ = 0;
    std::uint64_t packets_sent_ = 0;
    std::uint64_t responses_ = 0;
    std::uint64_t strays_ = 0;
    std::uint64_t lanes_recovered_ = 0;
    bool resumed_ = false;
    std::vector<PassStats> pass_stats_;
    PathTargets path_targets_;
};

/// Sharded stage implementations shared by CensusRunner and the LfpPipeline
/// compatibility wrapper. All merge by index, so output is identical at any
/// pool width.

/// Steps 1-2 glue: turns raw probe results into a Measurement (feature
/// extraction, signature derivation, SNMP labeling) over `pool`.
[[nodiscard]] Measurement assemble_measurement(std::string name,
                                               std::vector<probe::TargetProbeResult>&& probed,
                                               const FeatureExtractorConfig& extractor,
                                               util::ThreadPool& pool, std::size_t grain);

/// Step 3: per-measurement sharded signature aggregation.
[[nodiscard]] SignatureDatabase build_signature_database(
    std::span<const Measurement> measurements, SignatureDbConfig config,
    util::ThreadPool& pool);

/// Steps 4-5: per-record sharded classification.
void classify_records(Measurement& measurement, const SignatureDatabase& database,
                      LfpClassifier::Options options, util::ThreadPool& pool,
                      std::size_t grain);

}  // namespace lfp::core

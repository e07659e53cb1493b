#include "core/census.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <type_traits>
#include <unordered_map>

#include "core/checkpoint.hpp"
#include "core/labeler.hpp"
#include "probe/campaign.hpp"
#include "util/alloc_trace.hpp"
#include "util/arena.hpp"
#include "util/spsc_ring.hpp"

namespace lfp::core {

namespace {

[[noreturn]] void plan_error(const std::string& what) {
    throw std::invalid_argument("CensusPlan: " + what);
}

/// Validates before the pool (and its threads) exists.
const CensusPlan& validated(const CensusPlan& plan) {
    plan.validate();
    return plan;
}

/// Completed probe results cross from a lane thread to the streaming
/// consumer over a ring this deep; a lane stalls (backpressure) only when
/// the consumer falls this far behind it.
constexpr std::size_t kLaneRingDepth = 256;

/// Sleep phase of the spin-then-sleep backoff on either side of a lane
/// ring (producer finding it full, consumer finding it empty).
constexpr std::chrono::microseconds kRingBackoff{50};

/// One vantage lane's streaming state: the producing campaign thread and
/// the ring its in-order completions travel through.
struct LaneStream {
    explicit LaneStream() : ring(kLaneRingDepth) {}

    util::SpscRing<probe::TargetProbeResult> ring;
    std::atomic<bool> done{false};
    /// Raised by the watchdog when the consumer declares this lane dead: the
    /// campaign's cancel seam, so a lane wedged with nothing completing
    /// still exits promptly instead of waiting out its target list.
    std::atomic<bool> cancel{false};
    std::exception_ptr error;  ///< synchronised by thread join
};

/// RecordSink that drops everything — the destination of checkpoint-resume
/// replay traffic, which exists to advance stateful transports, not to
/// produce records.
class DiscardSink final : public RecordSink {
  public:
    void accept(std::uint64_t, TargetRecord&&) override {}
};

/// Pass p's ID lanes: pure functions of (pass, global index) — see
/// CensusPlan::kPassIpidStride.
probe::Campaign::Config shifted_config(const probe::Campaign::Config& base,
                                       std::size_t pass) {
    probe::Campaign::Config shifted = base;
    shifted.ipid_base =
        static_cast<std::uint16_t>(shifted.ipid_base + pass * CensusPlan::kPassIpidStride);
    shifted.snmp_message_id_base +=
        static_cast<std::uint32_t>(pass) * CensusPlan::kPassMsgIdStride;
    return shifted;
}

/// Plan knob first, LFP_WATCHDOG_MS as the fallback when the plan leaves it
/// unset. Unparseable env values throw, like WorldConfig::from_env.
std::chrono::milliseconds resolved_watchdog(const CensusPlan& plan) {
    if (plan.watchdog.count() != 0) return plan.watchdog;
    const char* env = std::getenv("LFP_WATCHDOG_MS");
    if (env == nullptr || *env == '\0') return std::chrono::milliseconds{0};
    std::uint64_t parsed = 0;
    const auto [ptr, ec] =
        std::from_chars(env, env + std::string_view(env).size(), parsed);
    if (ec != std::errc{} || *ptr != '\0') {
        throw std::invalid_argument(std::string("unparseable LFP_WATCHDOG_MS='") + env +
                                    "'");
    }
    return std::chrono::milliseconds{parsed};
}

/// Plan knob first, LFP_CHECKPOINT_DIR as the fallback.
std::string resolved_checkpoint_dir(const CensusPlan& plan) {
    if (!plan.checkpoint_dir.empty()) return plan.checkpoint_dir;
    if (const char* env = std::getenv("LFP_CHECKPOINT_DIR"); env != nullptr && *env != '\0') {
        return env;
    }
    return {};
}

/// Assembles one TargetRecord from a completed probe exchange (steps 1-2
/// glue shared by the streaming consumer and assemble_measurement).
void assemble_record(TargetRecord& record, probe::TargetProbeResult&& probed,
                     const FeatureExtractorConfig& extractor) {
    record.probes = std::move(probed);
    record.features = extract_features(record.probes, extractor);
    record.signature = Signature::from_features(record.features);
    record.snmp_vendor = snmp_vendor_label(record.probes);
}

/// The in-memory incumbent store of the multi-pass loop: every target's
/// current best record held whole, packet bytes included. SpillSink is the
/// other store — same four operations (accept pass-0 records in stream
/// order, response_mask, replace, drain), incumbents on disk.
class RamStore final : public RecordSink {
  public:
    RamStore(std::uint64_t index_base, std::size_t size) : index_base_(index_base) {
        records_.reserve(size);
    }

    void accept(std::uint64_t, TargetRecord&& record) override {
        records_.push_back(std::move(record));
    }

    [[nodiscard]] std::uint16_t response_mask(std::uint64_t global_index) const {
        return probe_response_mask(records_[position(global_index)].probes);
    }

    void replace(std::uint64_t global_index, TargetRecord&& record) {
        records_[position(global_index)] = std::move(record);
    }

    void drain(RecordSink& sink) {
        for (std::size_t i = 0; i < records_.size(); ++i) {
            sink.accept(index_base_ + i, std::move(records_[i]));
        }
    }

  private:
    [[nodiscard]] std::size_t position(std::uint64_t global_index) const {
        return static_cast<std::size_t>(global_index - index_base_);
    }

    std::uint64_t index_base_;
    std::vector<TargetRecord> records_;
};

/// Retry-pass consumer: replaces the stored incumbent wholesale when the
/// retry measured strictly more (mask_merge_improves — >= on every evidence
/// axis, strictly better on one, so a retry never trades evidence away and
/// equal evidence keeps the earliest pass), stamping the winning pass as
/// provenance. Decided from the stored response mask alone, so a spilled
/// incumbent is never read back.
template <class Store>
class UpgradeSink final : public RecordSink {
  public:
    UpgradeSink(Store& store, std::uint16_t pass) : store_(&store), pass_(pass) {}

    void accept(std::uint64_t global_index, TargetRecord&& record) override {
        if (!mask_merge_improves(probe_response_mask(record.probes),
                                 store_->response_mask(global_index))) {
            return;
        }
        record.pass = pass_;
        store_->replace(global_index, std::move(record));
        ++upgraded_;
    }

    [[nodiscard]] std::uint64_t upgraded() const noexcept { return upgraded_; }

  private:
    Store* store_;
    std::uint16_t pass_;
    std::uint64_t upgraded_ = 0;
};

/// The crash-resume journal of a checkpointed spilled census (see
/// core/checkpoint.hpp): the spill segments live in the checkpoint
/// directory, and a manifest next to them is rewritten at every pass
/// boundary. Default-constructed — the RAM store, or no checkpoint
/// directory configured — it is disabled and every call is a no-op.
class Journal {
  public:
    Journal() = default;
    Journal(SpillSink& spill, std::uint64_t target_count, const SpillConfig& config)
        : spill_(&spill), target_count_(target_count), config_(config) {}

    /// Resume detection: a manifest describing this exact census shape
    /// (base, target count, segment geometry, a completed-pass count this
    /// run could have produced) whose segments adopt cleanly means an
    /// earlier process was killed here. Adopts the on-disk incumbents,
    /// installs the journaled pass stats and returns the completed pass
    /// count; 0 means start from scratch (also for any damaged manifest or
    /// segment — SpillSink::adopt() checks every segment's header and size).
    std::size_t resume(std::size_t passes, std::vector<PassStats>& stats) {
        if (spill_ == nullptr) return 0;
        auto manifest = read_manifest(spill_->directory());
        if (!manifest.has_value() || manifest->index_base != spill_->index_base() ||
            manifest->target_count != target_count_ ||
            manifest->segment_records != config_.segment_records ||
            manifest->completed_passes > passes) {
            return 0;
        }
        std::vector<SpillSink::SegmentInfo> segments;
        segments.reserve(manifest->segments.size());
        for (const auto& [name, records] : manifest->segments) {
            segments.push_back({spill_->directory() / name, records});
        }
        if (!spill_->adopt(std::move(segments), std::move(manifest->masks))) return 0;
        stats = std::move(manifest->pass_stats);
        retry_lists_ = std::move(manifest->retry_lists);
        resumed_ = true;
        return manifest->completed_passes;
    }

    /// The retry subset completed pass `pass` (>= 1) probed — the replay
    /// script a resume feeds back through stateful transports.
    [[nodiscard]] std::span<const std::uint64_t> retry_list(std::size_t pass) const {
        return retry_lists_[pass - 1];
    }

    /// Journals the census as of the pass that just completed (stats holds
    /// one entry per completed pass; `probed` is the subset a retry pass
    /// re-probed). flush() first: after it every accepted record is on disk
    /// and the segment list describes the census completely. The manifest
    /// itself is written atomically (tmp + rename), so a kill at any
    /// instant leaves either the previous checkpoint or this one.
    void record(const std::vector<PassStats>& stats, std::span<const std::uint64_t> probed) {
        if (spill_ == nullptr) return;
        if (stats.size() > 1) retry_lists_.emplace_back(probed.begin(), probed.end());
        spill_->flush();
        CensusManifest manifest;
        manifest.index_base = spill_->index_base();
        manifest.target_count = target_count_;
        manifest.segment_records = config_.segment_records;
        manifest.completed_passes = static_cast<std::uint32_t>(stats.size());
        for (const SpillSink::SegmentInfo& info : spill_->segment_manifest()) {
            manifest.segments.emplace_back(info.path.filename().string(), info.records);
        }
        manifest.masks = spill_->response_masks();
        manifest.pass_stats = stats;
        manifest.retry_lists = retry_lists_;
        write_manifest(spill_->directory(), manifest);
    }

    /// Clean finish: the manifest, and after a resume the adopted segments
    /// (which the SpillSink destructor deliberately leaves alone), are no
    /// longer needed.
    void retire() {
        if (spill_ == nullptr) return;
        remove_manifest(spill_->directory());
        if (resumed_ && !config_.keep_segments) {
            std::error_code ec;  // best-effort, like the destructor's cleanup
            for (const SpillSink::SegmentInfo& info : spill_->segment_manifest()) {
                std::filesystem::remove(info.path, ec);
            }
        }
    }

  private:
    SpillSink* spill_ = nullptr;
    std::uint64_t target_count_ = 0;
    SpillConfig config_;
    bool resumed_ = false;
    std::vector<std::vector<std::uint64_t>> retry_lists_;
};

}  // namespace

void CensusPlan::validate() const {
    if (vantages.empty()) {
        plan_error("no vantage transports (a census needs at least one vantage)");
    }
    if (vantages.size() > kMaxVantages) {
        plan_error(std::to_string(vantages.size()) + " vantages exceeds the ceiling of " +
                   std::to_string(kMaxVantages));
    }
    for (std::size_t v = 0; v < vantages.size(); ++v) {
        if (vantages[v] == nullptr) {
            plan_error("vantage " + std::to_string(v) + " is a null transport");
        }
    }
    if (campaign.window == 0) {
        plan_error("window must be >= 1 (1 = serial pacing)");
    }
    if (campaign.window > kMaxWindow) {
        plan_error("window " + std::to_string(campaign.window) + " exceeds the ceiling of " +
                   std::to_string(kMaxWindow));
    }
    if (worker_threads > kMaxWorkers) {
        plan_error("worker_threads " + std::to_string(worker_threads) +
                   " exceeds the ceiling of " + std::to_string(kMaxWorkers) +
                   " (0 = one per hardware thread)");
    }
    if (shard_grain == 0) {
        plan_error("shard_grain must be >= 1");
    }
    if (passes == 0) {
        plan_error("passes must be >= 1 (1 = single-pass census)");
    }
    if (passes > kMaxPasses) {
        plan_error("passes " + std::to_string(passes) + " exceeds the ceiling of " +
                   std::to_string(kMaxPasses));
    }
    if (spill && spill_config.segment_records == 0) {
        plan_error("spill_config.segment_records must be >= 1");
    }
    if (watchdog.count() < 0) {
        plan_error("watchdog must be >= 0 (0 = supervision off)");
    }
    if (!(campaign.packets_per_second >= 0)) {  // also rejects NaN
        plan_error("campaign.packets_per_second must be >= 0 (0 = unpaced)");
    }
    if (campaign.packets_per_second > 0 && !(campaign.pacing_burst > 0)) {
        plan_error("campaign.pacing_burst must be > 0 when pacing is on");
    }
    if (!assignment.empty()) {
        if (assignment.size() != targets.size()) {
            plan_error("assignment covers " + std::to_string(assignment.size()) +
                       " targets but the plan has " + std::to_string(targets.size()));
        }
        for (std::size_t i = 0; i < assignment.size(); ++i) {
            if (assignment[i] >= vantages.size()) {
                plan_error("assignment[" + std::to_string(i) + "] = " +
                           std::to_string(assignment[i]) + " but there are only " +
                           std::to_string(vantages.size()) + " vantages");
            }
        }
    }
}

std::vector<std::uint32_t> CensusPlan::assignment_by_affinity(
    std::span<const std::uint64_t> keys, std::size_t vantage_count) {
    if (vantage_count == 0) plan_error("assignment_by_affinity: zero vantages");
    std::vector<std::uint32_t> assignment(keys.size());
    std::unordered_map<std::uint64_t, std::uint32_t> lane_of_key;
    lane_of_key.reserve(keys.size());
    std::uint32_t next_lane = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        auto [it, inserted] = lane_of_key.try_emplace(keys[i], next_lane);
        if (inserted) next_lane = static_cast<std::uint32_t>((next_lane + 1) % vantage_count);
        assignment[i] = it->second;
    }
    return assignment;
}

CensusRunner::CensusRunner(CensusPlan plan)
    : plan_(std::move(plan)), pool_(validated(plan_).worker_threads) {}

void CensusRunner::stream_indexed(std::span<const net::IPv4Address> targets,
                                  std::span<const std::uint64_t> global_indices,
                                  std::span<const std::uint32_t> assignment,
                                  const probe::Campaign::Config& campaign_config,
                                  RecordSink& sink) {
    const std::size_t lanes = plan_.vantages.size();
    if (!assignment.empty() && assignment.size() != targets.size()) {
        plan_error("stream_passes(): assignment covers " + std::to_string(assignment.size()) +
                   " targets but the list has " + std::to_string(targets.size()));
    }

    // Default assignment: group by the lead vantage's backend-identity
    // hint, so alias interfaces of one stateful backend (which must see
    // their probes in serial order; two lanes probing it concurrently
    // would race) share a lane. Targets the transport knows nothing about
    // fall back to per-address singleton keys — duplicates of one address
    // still always share a lane, and a duplicate-free unhinted list
    // degenerates to plain round-robin.
    std::vector<std::uint32_t> default_assignment;
    if (assignment.empty() && lanes > 1) {
        std::vector<std::uint64_t> keys;
        keys.reserve(targets.size());
        for (net::IPv4Address ip : targets) {
            keys.push_back(plan_.vantages.front()->backend_hint(ip).value_or(
                0x8000000000000000ULL | ip.value()));
        }
        default_assignment = CensusPlan::assignment_by_affinity(keys, lanes);
        assignment = default_assignment;
    }

    // Partition: each lane gets its slice of the target list plus the
    // targets' global indices, in input order.
    struct Lane {
        std::vector<net::IPv4Address> targets;
        std::vector<std::uint64_t> indices;
    };
    std::vector<Lane> partition(lanes);
    std::vector<std::uint32_t> lane_of(targets.size(), 0);
    for (std::size_t i = 0; i < targets.size(); ++i) {
        const std::size_t lane = assignment.empty() ? i % lanes : assignment[i];
        if (lane >= lanes) {
            plan_error("stream_passes(): assignment[" + std::to_string(i) + "] = " +
                       std::to_string(lane) + " but there are only " + std::to_string(lanes) +
                       " vantages");
        }
        lane_of[i] = static_cast<std::uint32_t>(lane);
        partition[lane].targets.push_back(targets[i]);
        partition[lane].indices.push_back(global_indices[i]);
    }

    // Each vantage lane runs its own windowed streaming campaign on its own
    // thread (lanes spend their life overlapping network waits, so a
    // dedicated thread per lane beats queueing them behind pool workers),
    // emitting completed targets in lane order into its ring. This thread
    // is the consumer: it walks the *global* order — the next expected
    // index lives in exactly one lane, so the cross-lane merge is a plain
    // pop from that lane's ring — assembles records in shard_grain batches
    // over the worker pool, and feeds the sink in order.
    std::vector<probe::Campaign> campaigns;
    campaigns.reserve(lanes);
    for (std::size_t v = 0; v < lanes; ++v) {
        campaigns.emplace_back(*plan_.vantages[v], campaign_config);
    }
    std::vector<std::unique_ptr<LaneStream>> streams;
    streams.reserve(lanes);
    for (std::size_t v = 0; v < lanes; ++v) streams.push_back(std::make_unique<LaneStream>());

    // Set when the consumer bails (sink threw, or a lane died): producers
    // drop further emissions instead of blocking on a ring nobody drains.
    std::atomic<bool> abort{false};

    // Lane supervision (tentpole 2). When the plan (or LFP_WATCHDOG_MS)
    // arms a watchdog, a lane that delivers nothing for a whole deadline —
    // or exits with targets still owed — is declared dead: its campaign is
    // cancelled and its unfinished targets are requeued onto the surviving
    // lanes after the loop. IDs are pure functions of (pass, global index),
    // so the recovered run's output merges byte-identically with an
    // unfaulted one. All state is empty when supervision is off — the
    // normal path pays one predictable branch per pop, nothing more.
    // Resolved before any lane thread exists: an unparseable LFP_WATCHDOG_MS
    // must throw while unwinding is still safe.
    const std::chrono::milliseconds watchdog = resolved_watchdog(plan_);
    const bool supervised = watchdog.count() > 0;
    std::vector<char> lane_dead(supervised ? lanes : 0, 0);
    std::vector<std::size_t> holes;  ///< positions owed by dead lanes
    std::vector<std::pair<std::size_t, probe::TargetProbeResult>> buffered;
    std::size_t dead_lanes = 0;

    std::vector<std::thread> threads;
    threads.reserve(lanes);
    for (std::size_t v = 0; v < lanes; ++v) {
        threads.emplace_back([&, v] {
            // Scheduler/sender side of the campaign; the receive thread and
            // the simulated responder tag their own nested stages.
            util::AllocStageScope stage("lane");
            LaneStream& lane = *streams[v];
            try {
                util::SpinBackoff push_backoff(kRingBackoff);
                campaigns[v].run_streaming(
                    partition[v].targets, partition[v].indices,
                    [&lane, &abort, &push_backoff](std::size_t,
                                                   probe::TargetProbeResult&& result) {
                        push_backoff.reset();
                        while (!lane.ring.try_push(std::move(result))) {
                            // Nobody is draining this ring any more: tell
                            // the campaign to cancel instead of probing the
                            // rest of the lane for a dead consumer.
                            if (abort.load(std::memory_order_acquire)) return false;
                            push_backoff.pause();
                        }
                        return !abort.load(std::memory_order_acquire);
                    },
                    &lane.cancel);
            } catch (...) {
                lane.error = std::current_exception();
            }
            lane.done.store(true, std::memory_order_release);
        });
    }

    auto join_all = [&] {
        for (std::thread& thread : threads) {
            if (thread.joinable()) thread.join();
        }
    };

    std::exception_ptr failure;
    try {
        // Assembly batches: up to shard_grain raw results are collected,
        // turned into records in parallel over the pool, then sunk in
        // order. Lane threads keep probing (and filling their rings)
        // throughout.
        const std::size_t grain = std::max<std::size_t>(1, plan_.shard_grain);
        std::vector<probe::TargetProbeResult> batch;
        std::vector<std::uint64_t> batch_indices;
        std::vector<TargetRecord> batch_records;
        batch.reserve(grain);
        batch_indices.reserve(grain);
        const FeatureExtractorConfig& extractor = plan_.extractor;

        auto flush = [&] {
            if (batch.empty()) return;
            batch_records.clear();
            batch_records.resize(batch.size());
            TargetRecord* records = batch_records.data();
            probe::TargetProbeResult* probes = batch.data();
            pool_.parallel_for(batch.size(), 8,
                               [&extractor, records, probes](std::size_t begin,
                                                             std::size_t end) {
                                   util::AllocStageScope stage("assemble");
                                   for (std::size_t k = begin; k < end; ++k) {
                                       assemble_record(records[k], std::move(probes[k]),
                                                       extractor);
                                   }
                               });
            util::AllocStageScope stage("sink");
            for (std::size_t k = 0; k < batch_records.size(); ++k) {
                sink.accept(batch_indices[k], std::move(batch_records[k]));
            }
            batch.clear();
            batch_indices.clear();
        };

        // Declare lane v dead: stop its campaign, flush what the sink can
        // still take in order (everything batched predates the first
        // hole), and count the recovery. Requeueing happens after the loop.
        auto mark_dead = [&](std::size_t v) {
            lane_dead[v] = 1;
            ++dead_lanes;
            ++lanes_recovered_;
            streams[v]->cancel.store(true, std::memory_order_release);
            flush();
        };

        util::SpinBackoff pop_backoff(kRingBackoff);
        for (std::size_t i = 0; i < targets.size(); ++i) {
            const std::size_t v = lane_of[i];
            if (dead_lanes != 0 && lane_dead[v] != 0) {
                holes.push_back(i);
                continue;
            }
            LaneStream& lane = *streams[v];
            probe::TargetProbeResult result;
            pop_backoff.reset();
            bool popped = true;
            std::chrono::steady_clock::time_point wait_start{};
            std::size_t spins = 0;
            while (!lane.ring.try_pop(result)) {
                if (lane.done.load(std::memory_order_acquire)) {
                    // The producer is gone; whatever it managed to push is
                    // still in the ring — only a truly empty ring means the
                    // lane died short of index i.
                    if (lane.ring.try_pop(result)) break;
                    if (supervised && dead_lanes + 1 < lanes) {
                        mark_dead(v);
                        popped = false;
                        break;
                    }
                    throw std::runtime_error(
                        "CensusRunner::stream_passes: vantage lane " + std::to_string(v) +
                        " ended before target " + std::to_string(i) +
                        (lane.error ? " (lane threw)" : ""));
                }
                if (supervised) {
                    // Cheap deadline: stamp the clock on the first idle
                    // spin, re-check it every 512 spins (~tens of ms at
                    // the ring backoff cadence).
                    if (spins == 0) wait_start = std::chrono::steady_clock::now();
                    if (++spins % 512 == 0 &&
                        std::chrono::steady_clock::now() - wait_start > watchdog) {
                        if (dead_lanes + 1 < lanes) {
                            mark_dead(v);
                            popped = false;
                            break;
                        }
                        throw std::runtime_error(
                            "CensusRunner::stream_passes: watchdog expired on vantage lane " +
                            std::to_string(v) + " before target " + std::to_string(i) +
                            " with no surviving lane to requeue onto");
                    }
                }
                pop_backoff.pause();
            }
            if (!popped) {
                holes.push_back(i);
                continue;
            }
            if (dead_lanes == 0) {
                batch.push_back(std::move(result));
                batch_indices.push_back(global_indices[i]);
                if (batch.size() >= grain) flush();
            } else {
                // Order through the sink is broken by the holes; park
                // surviving-lane results until recovery fills the gaps.
                buffered.emplace_back(i, std::move(result));
            }
        }

        if (holes.empty()) {
            flush();
            sink.finish();
        } else {
            // Recovery. The surviving producers have delivered everything
            // they own and the dead ones were cancelled — join, then
            // re-probe the holes through the surviving vantages. Each dead
            // lane's targets move, in order, to the next surviving lane
            // (deterministic, so two recovered runs agree), and their IDs
            // are untouched — still functions of the global index.
            join_all();
            std::vector<std::uint32_t> redirect(lanes, 0);
            for (std::size_t d = 0; d < lanes; ++d) {
                if (lane_dead[d] == 0) {
                    redirect[d] = static_cast<std::uint32_t>(d);
                    continue;
                }
                std::size_t r = (d + 1) % lanes;
                while (lane_dead[r] != 0) r = (r + 1) % lanes;
                redirect[d] = static_cast<std::uint32_t>(r);
            }
            std::vector<net::IPv4Address> requeue_targets;
            std::vector<std::uint64_t> requeue_indices;
            std::vector<std::uint32_t> requeue_assignment;
            requeue_targets.reserve(holes.size());
            requeue_indices.reserve(holes.size());
            requeue_assignment.reserve(holes.size());
            for (std::size_t i : holes) {
                requeue_targets.push_back(targets[i]);
                requeue_indices.push_back(global_indices[i]);
                requeue_assignment.push_back(redirect[lane_of[i]]);
            }
            CollectingSink recovered("");
            recovered.reserve(holes.size());
            stream_indexed(requeue_targets, requeue_indices, requeue_assignment,
                           campaign_config, recovered);
            std::vector<TargetRecord> hole_records = recovered.take().records;

            // Assemble the parked surviving-lane results the same way the
            // batched path would have.
            std::vector<TargetRecord> survivor_records(buffered.size());
            {
                TargetRecord* records = survivor_records.data();
                auto* parked = buffered.data();
                const FeatureExtractorConfig& extract_config = plan_.extractor;
                pool_.parallel_for(buffered.size(), 8,
                                   [&extract_config, records, parked](std::size_t begin,
                                                                      std::size_t end) {
                                       for (std::size_t k = begin; k < end; ++k) {
                                           assemble_record(records[k],
                                                           std::move(parked[k].second),
                                                           extract_config);
                                       }
                                   });
            }

            // Emit the tail in position order: holes and parked results are
            // each already position-sorted, so a two-pointer merge restores
            // the global stream order the sink contract demands.
            std::size_t h = 0;
            std::size_t b = 0;
            while (h < hole_records.size() || b < survivor_records.size()) {
                if (b >= survivor_records.size() ||
                    (h < hole_records.size() && holes[h] < buffered[b].first)) {
                    sink.accept(global_indices[holes[h]], std::move(hole_records[h]));
                    ++h;
                } else {
                    sink.accept(global_indices[buffered[b].first],
                                std::move(survivor_records[b]));
                    ++b;
                }
            }
            sink.finish();
        }
    } catch (...) {
        failure = std::current_exception();
        abort.store(true, std::memory_order_release);
    }

    join_all();

    // A lane's own exception explains the failure better than the
    // consumer's "lane ended early" symptom; prefer it. Recovered (dead)
    // lanes are exempt: their campaign was cancelled deliberately and their
    // targets already re-probed — whatever they threw is not a failure of
    // this run.
    for (std::size_t v = 0; v < streams.size(); ++v) {
        if (dead_lanes != 0 && lane_dead[v] != 0) continue;
        if (streams[v]->error) {
            failure = streams[v]->error;
            break;
        }
    }
    if (failure) std::rethrow_exception(failure);

    for (const probe::Campaign& campaign : campaigns) {
        packets_sent_ += campaign.packets_sent();
        responses_ += campaign.responses_received();
        strays_ += campaign.stray_responses();
    }
}

Measurement CensusRunner::measure_passes(std::string name,
                                         std::span<const net::IPv4Address> targets,
                                         std::span<const std::uint32_t> assignment,
                                         std::size_t passes) {
    CollectingSink sink(std::move(name));
    sink.reserve(targets.size());
    stream_passes(targets, assignment, passes, sink);
    return sink.take();
}

PathTargets PathTargets::from_paths(std::span<const std::vector<net::IPv4Address>> paths) {
    PathTargets out;
    std::unordered_map<net::IPv4Address, std::uint32_t> index_of;
    for (std::size_t p = 0; p < paths.size(); ++p) {
        const auto path_index = static_cast<std::uint32_t>(p);
        for (const net::IPv4Address hop : paths[p]) {
            ++out.hops_listed;
            if (!hop.is_routable()) {
                ++out.unroutable_dropped;
                continue;
            }
            auto [it, inserted] =
                index_of.try_emplace(hop, static_cast<std::uint32_t>(out.targets.size()));
            if (inserted) {
                out.targets.push_back(hop);
                out.provenance.emplace_back();
                out.first_path.push_back(path_index);
            } else {
                ++out.duplicates_collapsed;
            }
            std::vector<std::uint32_t>& credited = out.provenance[it->second];
            // One credit per path, however often the hop loops inside it.
            if (credited.empty() || credited.back() != path_index) {
                credited.push_back(path_index);
            }
        }
    }
    return out;
}

std::vector<std::uint32_t> CensusRunner::assignment_by_discovery(
    const PathTargets& targets, std::span<const std::uint32_t> path_lane) const {
    const std::size_t lanes = plan_.vantages.size();
    std::vector<std::uint32_t> assignment(targets.targets.size(), 0);
    if (lanes <= 1) return assignment;
    // Affinity key: the backend hint when the lead vantage knows one (alias
    // interfaces of one stateful router share it), else the address itself.
    // The first member of each affinity group decides the group's lane —
    // the lane whose vantage first discovered it.
    std::unordered_map<std::uint64_t, std::uint32_t> lane_of_key;
    lane_of_key.reserve(targets.targets.size());
    for (std::size_t i = 0; i < targets.targets.size(); ++i) {
        const net::IPv4Address ip = targets.targets[i];
        const std::uint64_t key = plan_.vantages.front()->backend_hint(ip).value_or(
            0x8000000000000000ULL | ip.value());
        const std::uint32_t path = targets.first_path[i];
        const std::uint32_t preferred =
            path < path_lane.size() ? path_lane[path] % static_cast<std::uint32_t>(lanes) : 0;
        auto [it, inserted] = lane_of_key.try_emplace(key, preferred);
        assignment[i] = it->second;
    }
    return assignment;
}

void CensusRunner::stream_paths(std::span<const std::vector<net::IPv4Address>> paths,
                                std::span<const std::uint32_t> path_lane, std::size_t passes,
                                RecordSink& sink) {
    path_targets_ = PathTargets::from_paths(paths);
    std::vector<std::uint32_t> assignment;
    if (!path_lane.empty()) {
        assignment = assignment_by_discovery(path_targets_, path_lane);
    }
    stream_passes(path_targets_.targets, assignment, passes, sink);
}

template <class Store>
void CensusRunner::pass_loop(Store& store, std::span<const net::IPv4Address> targets,
                             std::vector<std::uint64_t> indices,
                             std::span<const std::uint32_t> assignment, std::size_t passes,
                             RecordSink& sink) {
    const std::uint64_t index_base = next_global_index_;

    // Probes the targets at global indices `list` under pass `pass`'s ID
    // lanes — pure functions of (pass, global index), so a retry emits
    // packets no earlier pass emitted (fresh loss draws) yet the whole run
    // stays byte-deterministic. The subset scratch comes from a bump arena
    // recycled per call, so a steady retry cadence allocates nothing new.
    util::BumpArena arena;
    auto probe_subset = [&](std::span<const std::uint64_t> list, std::size_t pass,
                            RecordSink& into) {
        arena.reset();
        auto subset = arena.make_span<net::IPv4Address>(list.size());
        std::span<std::uint32_t> subset_assignment;
        if (!assignment.empty()) subset_assignment = arena.make_span<std::uint32_t>(list.size());
        for (std::size_t k = 0; k < list.size(); ++k) {
            const auto position = static_cast<std::size_t>(list[k] - index_base);
            subset[k] = targets[position];
            if (!assignment.empty()) subset_assignment[k] = assignment[position];
        }
        stream_indexed(subset, list, subset_assignment, shifted_config(plan_.campaign, pass),
                       into);
    };

    // RetrySink's predicate on the stored response mask: the merged state,
    // not the raw retry result, decides what the next pass re-probes.
    auto incomplete = [&](std::uint64_t g) {
        return RetrySink::incomplete_mask(store.response_mask(g), plan_.retry);
    };

    // Checkpoint and resume, the one store-specific step: a spilled census
    // with a checkpoint directory journals every pass boundary and, finding
    // the manifest of a killed run, resumes after its last completed pass.
    // Every ID is a pure function of (pass, global index) and the merge is
    // idempotent per pass, so a partially merged interrupted pass heals on
    // re-run and the resumed output is byte-identical to an uninterrupted
    // one.
    Journal journal;
    if constexpr (std::is_same_v<Store, SpillSink>) {
        if (!resolved_checkpoint_dir(plan_).empty()) {
            journal = Journal(store, targets.size(), plan_.spill_config);
        }
    }
    const std::size_t completed = journal.resume(passes, pass_stats_);
    resumed_ = completed != 0;

    // Pass 0 streams every target into the store. On resume the store
    // already holds the completed passes' incumbents, and the same traffic
    // — pass 0 and every completed retry pass, results discarded — is
    // replayed instead: simulated routers advance per-packet counters at
    // send time and a fresh process holds fresh routers, so the resumed
    // pass must meet the backend state the uninterrupted run met. The retry
    // list is then pass 0's index list, filtered in place; on resume the
    // masks came from the manifest, so it is exactly the list the killed
    // process would have probed next.
    DiscardSink discard;
    stream_indexed(targets, indices, assignment, plan_.campaign,
                   resumed_ ? static_cast<RecordSink&>(discard) : store);
    for (std::size_t pass = 1; pass < completed; ++pass) {
        probe_subset(journal.retry_list(pass), pass, discard);
    }
    next_global_index_ += targets.size();
    std::vector<std::uint64_t> retry_list = std::move(indices);
    std::erase_if(retry_list, std::not_fn(incomplete));
    if (!resumed_) {
        pass_stats_.push_back({targets.size(), 0, retry_list.size()});
        journal.record(pass_stats_, {});
    }

    // Retry passes re-probe only the still-incomplete targets and merge by
    // strict improvement against the stored incumbent.
    for (std::size_t pass = std::max<std::size_t>(completed, 1);
         pass < passes && !retry_list.empty(); ++pass) {
        UpgradeSink<Store> upgrade(store, static_cast<std::uint16_t>(pass));
        probe_subset(retry_list, pass, upgrade);
        std::vector<std::uint64_t> still;
        std::copy_if(retry_list.begin(), retry_list.end(), std::back_inserter(still), incomplete);
        pass_stats_.push_back({retry_list.size(), upgrade.upgraded(), still.size()});
        journal.record(pass_stats_, retry_list);
        retry_list = std::move(still);
    }

    // Every target's final record exactly once, in global-index order,
    // with TargetRecord::pass naming the winning pass.
    store.drain(sink);
    sink.finish();
    journal.retire();
}

void CensusRunner::stream_passes(std::span<const net::IPv4Address> targets,
                                 std::span<const std::uint32_t> assignment,
                                 std::size_t passes, RecordSink& sink) {
    if (passes == 0) passes = plan_.passes;  // 0 = the plan's configured count
    if (passes > CensusPlan::kMaxPasses) {
        plan_error("stream_passes(): passes " + std::to_string(passes) +
                   " exceeds the ceiling of " + std::to_string(CensusPlan::kMaxPasses));
    }
    pass_stats_.clear();
    resumed_ = false;
    std::vector<std::uint64_t> indices(targets.size());
    std::iota(indices.begin(), indices.end(), next_global_index_);

    // A single pass is the plain streaming census: no record can be
    // upgraded later, so the sink overlaps the probing, with a RetrySink in
    // front only to tally how much a second pass would have re-probed.
    if (passes == 1) {
        RetrySink retry(&sink, plan_.retry);
        stream_indexed(targets, indices, assignment, plan_.campaign, retry);
        next_global_index_ += targets.size();
        pass_stats_.push_back({targets.size(), 0, retry.retry_indices().size()});
        return;
    }

    // Multi-pass: records are not final until every pass they might be
    // retried in has run, so the incumbents wait in a store — whole records
    // in RAM, or with plan.spill compact records in disk segments plus a
    // two-byte response mask per target in RAM.
    if (plan_.spill) {
        SpillConfig config = plan_.spill_config;
        if (const std::string dir = resolved_checkpoint_dir(plan_); !dir.empty()) {
            config.directory = dir;
        }
        SpillSink store(config, next_global_index_);
        pass_loop(store, targets, std::move(indices), assignment, passes, sink);
    } else {
        RamStore store(next_global_index_, targets.size());
        pass_loop(store, targets, std::move(indices), assignment, passes, sink);
    }
}

SignatureDatabase CensusRunner::build_database(std::span<const Measurement> measurements,
                                               SignatureDbConfig config) {
    return build_signature_database(measurements, config, pool_);
}

void CensusRunner::classify(Measurement& measurement, const SignatureDatabase& database,
                            LfpClassifier::Options options) {
    classify_records(measurement, database, options, pool_, plan_.shard_grain);
}

Measurement assemble_measurement(std::string name,
                                 std::vector<probe::TargetProbeResult>&& probed,
                                 const FeatureExtractorConfig& extractor,
                                 util::ThreadPool& pool, std::size_t grain) {
    Measurement measurement;
    measurement.name = std::move(name);
    measurement.records.resize(probed.size());
    TargetRecord* records = measurement.records.data();
    probe::TargetProbeResult* probes = probed.data();
    pool.parallel_for(probed.size(), grain,
                      [&extractor, records, probes](std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i) {
                              assemble_record(records[i], std::move(probes[i]), extractor);
                          }
                      });
    return measurement;
}

SignatureDatabase build_signature_database(std::span<const Measurement> measurements,
                                           SignatureDbConfig config, util::ThreadPool& pool) {
    // Shard aggregation per measurement: counts are additive, so absorbing
    // the shard databases (in any order — we use measurement order) yields
    // the same totals as one serial pass.
    std::vector<SignatureDatabase> shards(measurements.size(), SignatureDatabase(config));
    SignatureDatabase* shard_data = shards.data();
    const Measurement* measurement_data = measurements.data();
    pool.parallel_for(measurements.size(), 1,
                      [shard_data, measurement_data](std::size_t begin, std::size_t end) {
                          for (std::size_t m = begin; m < end; ++m) {
                              for (const TargetRecord& record : measurement_data[m].records) {
                                  if (!record.snmp_vendor || record.features.empty()) continue;
                                  shard_data[m].add_labeled(record.signature,
                                                            *record.snmp_vendor);
                              }
                          }
                      });
    SignatureDatabase database(config);
    for (const SignatureDatabase& shard : shards) database.absorb(shard);
    database.finalize();
    return database;
}

void classify_records(Measurement& measurement, const SignatureDatabase& database,
                      LfpClassifier::Options options, util::ThreadPool& pool,
                      std::size_t grain) {
    const LfpClassifier classifier(database, options);
    TargetRecord* records = measurement.records.data();
    pool.parallel_for(measurement.records.size(), grain,
                      [&classifier, records](std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i) {
                              records[i].lfp = classifier.classify(records[i].signature);
                          }
                      });
}

}  // namespace lfp::core

// Census-as-a-service: the resident control plane. A CensusService owns a
// CensusRunner, a SnapshotStore, and (optionally) a PassScheduler thread;
// each census — scheduled, triggered, or posted by the serving loop —
// streams through a fresh SnapshotBuilder and publishes an immutable
// versioned Snapshot that the QueryEngine answers from. Queries never wait
// on a running census: they read the previously published snapshot through
// one atomic load, and the new version swaps in only when fully built.
//
// Environment knobs (ServiceConfig::from_env / default_socket_path):
//   LFP_SERVE_INTERVAL_MS  recurring-pass period; 0 = on-demand only
//   LFP_SERVE_RETAIN       snapshot versions retained for diff queries
//   LFP_SERVE_SOCKET       lfp_serve's unix-domain socket path
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/census.hpp"
#include "serve/snapshot.hpp"

namespace lfp::serve {

/// The recurring-pass driver: a worker thread that invokes a callback every
/// `interval` (recurring mode) and whenever trigger() is called (on-demand;
/// an interval of zero means on-demand only). Triggers arriving while a
/// pass runs coalesce into one follow-up pass — the schedule never queues
/// unboundedly behind a slow census. The same thread also runs posted jobs:
/// one run per post(), in post order, never coalesced, ahead of any pending
/// pass.
class PassScheduler {
  public:
    struct Options {
        /// Period between scheduled passes. zero = never fire on a timer;
        /// only trigger() starts passes.
        std::chrono::milliseconds interval{0};
        /// Run one pass immediately on start() rather than waiting a full
        /// interval first.
        bool run_immediately = true;
    };

    explicit PassScheduler(std::function<void()> pass) : PassScheduler(std::move(pass), Options{}) {}
    PassScheduler(std::function<void()> pass, Options options);
    ~PassScheduler();

    PassScheduler(const PassScheduler&) = delete;
    PassScheduler& operator=(const PassScheduler&) = delete;

    /// Starts the scheduler thread. Idempotent.
    void start();
    /// Stops the thread, joining it; a pass in flight and every job posted
    /// before the call complete first. Idempotent; the destructor calls it.
    void stop();

    /// Requests one pass now (starts the thread if needed). Returns after
    /// noting the request, not after the pass.
    void trigger();

    /// Queues `job` to run once on the scheduler thread, after every job
    /// posted before it (starts the thread if needed). Returns at once.
    void post(std::function<void()> job);

    /// Passes plus posted jobs completed since construction.
    [[nodiscard]] std::uint64_t passes_completed() const;

    /// Blocks until passes_completed() reaches `count`, or `timeout`
    /// elapses. Returns whether the count was reached.
    [[nodiscard]] bool wait_for_passes(std::uint64_t count, std::chrono::milliseconds timeout);

  private:
    void run();

    std::function<void()> pass_;
    Options options_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::thread thread_;
    bool running_ = false;
    bool stop_requested_ = false;
    bool trigger_pending_ = false;
    std::deque<std::function<void()>> jobs_;
    std::uint64_t completed_ = 0;
};

/// One measured-path sweep for a path census: the hop lists to collapse
/// and probe (CensusRunner::stream_paths) plus, optionally, the vantage
/// index that discovered each path — the lane-preference stream the
/// runner maps onto its census lanes.
struct PathSweep {
    std::vector<std::vector<net::IPv4Address>> paths;
    std::vector<std::uint32_t> path_lane;  ///< empty = backend-hint grouping
};

/// What one path census published, captured on the thread that ran it
/// (the runner's last_path_targets() belongs to whichever census ran last).
struct PathCensusResult {
    std::uint64_t version = 0;
    std::size_t paths = 0;    ///< measured paths stored for PATH @<index>
    std::size_t targets = 0;  ///< collapsed hop targets probed
    std::uint64_t hops_listed = 0;
    std::uint64_t duplicates_collapsed = 0;
    std::uint64_t unroutable_dropped = 0;
};

/// Produces a fresh sweep per path census (e.g. a traceroute harvest, or
/// analysis::PathCensus::discover() in the sim deployment). Called under
/// the census lock — deterministic sources yield deterministic censuses.
using PathSource = std::function<PathSweep()>;

/// Service-level knobs layered over the CensusPlan (which continues to
/// describe the measurement itself: targets, vantages, windows, passes).
struct ServiceConfig {
    /// Name stamped onto published snapshots.
    std::string name = "census";
    /// Passes per serving census; 0 = the plan's configured pass count.
    std::size_t passes = 0;
    /// Recurring census period; zero = on-demand only.
    std::chrono::milliseconds interval{0};
    /// Snapshot versions retained for diff queries.
    std::size_t retain = 4;
    /// Whether start() runs a census immediately (the usual case: serve as
    /// soon as there is something to serve).
    bool run_immediately = true;
    /// Durability directory: non-empty persists every published snapshot
    /// there (see SnapshotStore) and lets restore_latest() reload the
    /// newest across a restart. Empty = in-memory only, as before.
    std::string state_dir;

    core::SignatureDbConfig database;
    core::LfpClassifier::Options classify;
    AsnResolver asn;
    /// Path discovery for run_path_census_now() / the PATHCENSUS verb.
    /// Absent = the service runs plain censuses only.
    PathSource paths;

    /// Overlays LFP_SERVE_INTERVAL_MS / LFP_SERVE_RETAIN / LFP_SERVE_STATE
    /// from the environment onto `base` (default-constructed when omitted).
    [[nodiscard]] static ServiceConfig from_env();
    [[nodiscard]] static ServiceConfig from_env(ServiceConfig base);
};

/// The lfp_serve daemon's socket path: LFP_SERVE_SOCKET, or a per-uid
/// default under the system temp directory.
[[nodiscard]] std::string default_socket_path();

/// The resident census service. Owns the runner (and with it the vantage
/// schedule and worker pool), the snapshot store, and the scheduler.
/// Censuses serialize internally; queries against store()/current snapshots
/// proceed concurrently with a running census.
class CensusService {
  public:
    /// Validates the plan (CensusRunner's constructor throws on a bad one).
    /// The plan's transports must outlive the service.
    CensusService(core::CensusPlan plan, ServiceConfig config = {});
    ~CensusService();

    CensusService(const CensusService&) = delete;
    CensusService& operator=(const CensusService&) = delete;

    /// Starts the scheduler (recurring passes when config.interval > 0, an
    /// immediate first census when config.run_immediately).
    void start();
    /// Stops the scheduler; a census in flight and every job posted before
    /// the call complete first.
    void stop();

    /// Requests one census soon (asynchronous; coalesces with a pending
    /// trigger).
    void trigger();

    /// Runs `job` once on the scheduler thread, in post order (see
    /// PassScheduler::post). The serving loop posts TRIGGER and PATHCENSUS
    /// here, and lfp_serve its boot census, so censuses run on that one
    /// thread while the loop keeps answering queries.
    void post(std::function<void()> job);

    /// Runs one census synchronously on the calling thread and publishes
    /// the snapshot. Returns the published version. Serializes with
    /// scheduler-driven censuses.
    std::uint64_t run_census_now();

    /// Runs one *path* census: pulls a sweep from config.paths, collapses
    /// the hop lists into census targets (CensusRunner::stream_paths), and
    /// publishes the classified snapshot with the measured paths attached
    /// (Snapshot::paths() — the PATH @<index> answers). Returns the
    /// published version and the sweep's counters; throws std::logic_error
    /// when no path source is configured. Serializes with every other
    /// census.
    PathCensusResult run_path_census_now();

    /// Whether config.paths was provided (the PATHCENSUS verb's gate).
    [[nodiscard]] bool has_path_source() const noexcept {
        return static_cast<bool>(config_.paths);
    }

    /// Boot-time durability: reloads the newest persisted snapshot from
    /// config.state_dir and publishes it as current, marked restored() —
    /// the service answers in degraded mode (stale data, stamped with its
    /// age by STATS) until the first fresh census publishes over it.
    /// Version numbering continues above the restored version. Returns
    /// whether a snapshot was restored; false (no-op) when state_dir is
    /// empty or holds nothing loadable. Does not count toward
    /// censuses_completed().
    bool restore_latest();

    /// Censuses published so far, scheduler-driven and synchronous alike.
    [[nodiscard]] std::uint64_t censuses_completed() const {
        return published_.load(std::memory_order_relaxed);
    }

    /// Blocks until the scheduler thread has run at least `count` censuses
    /// and posted jobs (or timeout).
    [[nodiscard]] bool wait_for_census(std::uint64_t count, std::chrono::milliseconds timeout) {
        return scheduler_.wait_for_passes(count, timeout);
    }

    [[nodiscard]] const SnapshotStore& store() const noexcept { return store_; }
    [[nodiscard]] core::CensusRunner& runner() noexcept { return runner_; }
    [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }

  private:
    ServiceConfig config_;
    core::CensusRunner runner_;
    SnapshotStore store_;
    std::mutex census_mutex_;  ///< serializes censuses, never queries
    std::uint64_t next_version_ = 1;
    std::atomic<std::uint64_t> published_{0};
    PassScheduler scheduler_;
};

}  // namespace lfp::serve

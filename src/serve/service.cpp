#include "serve/service.hpp"

#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <utility>

#ifndef _WIN32
#include <unistd.h>
#endif

namespace lfp::serve {

namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
    const char* value = std::getenv(name);
    if (value == nullptr || *value == '\0') return fallback;
    std::uint64_t parsed = 0;
    const char* end = value;
    while (*end != '\0') ++end;
    auto [ptr, ec] = std::from_chars(value, end, parsed);
    if (ec != std::errc{} || ptr != end) return fallback;
    return parsed;
}

}  // namespace

PassScheduler::PassScheduler(std::function<void()> pass, Options options)
    : pass_(std::move(pass)), options_(options) {}

PassScheduler::~PassScheduler() { stop(); }

void PassScheduler::start() {
    std::lock_guard<std::mutex> guard(mutex_);
    if (running_) return;
    running_ = true;
    stop_requested_ = false;
    if (options_.run_immediately) trigger_pending_ = true;
    thread_ = std::thread([this] { run(); });
}

void PassScheduler::stop() {
    {
        std::lock_guard<std::mutex> guard(mutex_);
        if (!running_) return;
        stop_requested_ = true;
    }
    cv_.notify_all();
    thread_.join();
    std::lock_guard<std::mutex> guard(mutex_);
    running_ = false;
}

void PassScheduler::trigger() {
    bool need_start = false;
    {
        std::lock_guard<std::mutex> guard(mutex_);
        trigger_pending_ = true;
        need_start = !running_;
    }
    if (need_start) {
        // start() takes the lock itself; run_immediately already queued one
        // pass when set, but trigger_pending_ is a flag, not a counter, so
        // the two requests coalesce.
        start();
    }
    cv_.notify_all();
}

void PassScheduler::post(std::function<void()> job) {
    bool need_start = false;
    {
        std::lock_guard<std::mutex> guard(mutex_);
        jobs_.push_back(std::move(job));
        need_start = !running_;
    }
    if (need_start) start();
    cv_.notify_all();
}

std::uint64_t PassScheduler::passes_completed() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return completed_;
}

bool PassScheduler::wait_for_passes(std::uint64_t count, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, timeout, [this, count] { return completed_ >= count; });
}

void PassScheduler::run() {
    using Clock = std::chrono::steady_clock;
    std::unique_lock<std::mutex> lock(mutex_);
    const auto woken = [this] { return stop_requested_ || trigger_pending_ || !jobs_.empty(); };
    // Recurring mode: a pass falls due one interval after the previous
    // pass; posted jobs run in between without moving that deadline.
    Clock::time_point next_timed = Clock::now() + options_.interval;
    while (true) {
        bool timed_out = false;
        if (options_.interval.count() > 0) {
            timed_out = !cv_.wait_until(lock, next_timed, woken);
        } else {
            cv_.wait(lock, woken);
        }
        std::function<void()> job;
        if (!jobs_.empty()) {
            // Posted jobs first, even once stop() is asked for: each one is
            // a request that is still owed its answer.
            job = std::move(jobs_.front());
            jobs_.pop_front();
        } else if (stop_requested_) {
            return;
        } else if (!timed_out && !trigger_pending_) {
            continue;
        } else {
            trigger_pending_ = false;  // triggers from here on ask for one more pass
        }
        lock.unlock();
        if (job) {
            job();
        } else {
            pass_();
        }
        lock.lock();
        if (!job) next_timed = Clock::now() + options_.interval;
        ++completed_;
        cv_.notify_all();
    }
}

ServiceConfig ServiceConfig::from_env() { return from_env(ServiceConfig{}); }

ServiceConfig ServiceConfig::from_env(ServiceConfig base) {
    base.interval = std::chrono::milliseconds(
        env_u64("LFP_SERVE_INTERVAL_MS", static_cast<std::uint64_t>(base.interval.count())));
    base.retain = static_cast<std::size_t>(env_u64("LFP_SERVE_RETAIN", base.retain));
    if (const char* dir = std::getenv("LFP_SERVE_STATE"); dir != nullptr && *dir != '\0') {
        base.state_dir = dir;
    }
    return base;
}

std::string default_socket_path() {
    if (const char* path = std::getenv("LFP_SERVE_SOCKET"); path != nullptr && *path != '\0') {
        return path;
    }
    const std::filesystem::path dir = std::filesystem::temp_directory_path();
#ifndef _WIN32
    return (dir / ("lfp_serve." + std::to_string(::getuid()) + ".sock")).string();
#else
    return (dir / "lfp_serve.sock").string();
#endif
}

CensusService::CensusService(core::CensusPlan plan, ServiceConfig config)
    : config_(std::move(config)),
      runner_(std::move(plan)),
      store_(config_.retain, config_.state_dir),
      scheduler_([this] { run_census_now(); },
                 {.interval = config_.interval, .run_immediately = config_.run_immediately}) {}

CensusService::~CensusService() { stop(); }

void CensusService::start() { scheduler_.start(); }

void CensusService::stop() { scheduler_.stop(); }

void CensusService::trigger() { scheduler_.trigger(); }

void CensusService::post(std::function<void()> job) { scheduler_.post(std::move(job)); }

std::uint64_t CensusService::run_census_now() {
    std::lock_guard<std::mutex> guard(census_mutex_);
    SnapshotBuilder builder({.name = config_.name,
                             .database = config_.database,
                             .classify = config_.classify,
                             .asn = config_.asn});
    const core::CensusPlan& plan = runner_.plan();
    runner_.stream_passes(plan.targets, plan.assignment, config_.passes, builder);
    auto snapshot =
        builder.build(next_version_++, runner_.last_pass_stats(), &runner_.pool());
    const std::uint64_t version = store_.publish(std::move(snapshot));
    published_.fetch_add(1, std::memory_order_relaxed);
    return version;
}

PathCensusResult CensusService::run_path_census_now() {
    if (!config_.paths) {
        throw std::logic_error("CensusService: no path source configured for a path census");
    }
    std::lock_guard<std::mutex> guard(census_mutex_);
    PathSweep sweep = config_.paths();
    SnapshotBuilder builder({.name = config_.name,
                             .database = config_.database,
                             .classify = config_.classify,
                             .asn = config_.asn});
    runner_.stream_paths(sweep.paths, sweep.path_lane, config_.passes, builder);
    const core::PathTargets& targets = runner_.last_path_targets();
    PathCensusResult result{.paths = sweep.paths.size(),
                            .targets = targets.targets.size(),
                            .hops_listed = targets.hops_listed,
                            .duplicates_collapsed = targets.duplicates_collapsed,
                            .unroutable_dropped = targets.unroutable_dropped};
    builder.set_paths(std::move(sweep.paths));
    auto snapshot =
        builder.build(next_version_++, runner_.last_pass_stats(), &runner_.pool());
    result.version = store_.publish(std::move(snapshot));
    published_.fetch_add(1, std::memory_order_relaxed);
    return result;
}

bool CensusService::restore_latest() {
    if (config_.state_dir.empty()) return false;
    auto snapshot = load_latest_snapshot(config_.state_dir,
                                         {.database = config_.database, .asn = config_.asn});
    if (snapshot == nullptr) return false;
    // Serialize with censuses so a concurrent publish cannot interleave
    // with the version bump. Not counted in published_ — a restore serves
    // old data, it does not complete a census.
    std::lock_guard<std::mutex> guard(census_mutex_);
    next_version_ = snapshot->version() + 1;
    store_.publish(std::move(snapshot));
    return true;
}

}  // namespace lfp::serve

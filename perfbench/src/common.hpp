// Shared pieces of the benchmark driver: run arguments, the result report,
// timing helpers, /proc and getrusage readings, the span tracer, record
// digests, and the heap-allocation ledger read in traced runs.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

namespace lfpbench {

using Clock = std::chrono::steady_clock;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Scratch directory inside the checkout; every workload creates its
    /// private temp dirs below it and removes them before returning.
    std::string work_dir;
    /// The lfp_serve binary built next to this driver.
    std::string serve_binary;
};

[[nodiscard]] double seconds_between(Clock::time_point from, Clock::time_point to);
[[nodiscard]] double seconds_since(Clock::time_point from);
[[nodiscard]] std::int64_t now_ns();
/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID), in ns.
[[nodiscard]] std::int64_t thread_cpu_ns();
/// User+system CPU of this process (getrusage), in seconds.
[[nodiscard]] double process_cpu_s();
/// VmHWM of `pid` (0 = this process) in bytes, or 0 when unreadable.
[[nodiscard]] std::uint64_t peak_rss_bytes(pid_t pid = 0);
/// utime+stime of `pid` from /proc/<pid>/stat, in seconds (-1 when gone).
[[nodiscard]] double proc_cpu_s(pid_t pid);
/// rchar/wchar of this process from /proc/self/io.
struct IoCounters {
    std::uint64_t read_bytes = 0;
    std::uint64_t write_bytes = 0;
};
[[nodiscard]] IoCounters io_counters();

/// Percentile by nearest rank over a copy of `values` (q in [0, 1]).
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);

/// FNV-1a 64 over a byte stream; the record-stream digests use it.
class Digest {
  public:
    void add(std::string_view bytes);
    void add_u64(std::uint64_t value);
    [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};
[[nodiscard]] std::string hex(std::uint64_t value);

/// The run's result: every metric by name and unit, plus the attempt and
/// failure counts. Output checks call fail(); a failed check makes the
/// run exit non-zero.
class Report {
  public:
    void metric(const std::string& name, double value, const std::string& unit);
    void attempt(std::uint64_t count = 1) { attempted_ += count; }
    void fail(const std::string& why, std::uint64_t count = 1);
    /// A check that must hold for the output to count as correct.
    void check(bool ok, const std::string& what) {
        if (!ok) fail("check failed: " + what);
    }

    [[nodiscard]] bool correct() const noexcept { return failed_ == 0; }
    [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
    /// Prints the metric table to stdout, then the result object as the
    /// last line.
    void print() const;

  private:
    struct Metric {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/// In-memory span recorder for traced runs: spans around each public call
/// the benchmark makes, written out when the run ends. Disabled tracers
/// record nothing.
class Tracer {
  public:
    struct Span {
        std::string name;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        std::int64_t parent = -1;  ///< index into spans(), -1 for a root
        std::uint64_t request = 0;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}
    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// Opens a span under the innermost open span; returns its index.
    std::int64_t open(std::string name, std::uint64_t request = 0);
    void close(std::int64_t index);
    /// Adds a finished span (e.g. one of several overlapping requests)
    /// under the innermost open span.
    void record(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                std::uint64_t request);

    /// Writes every span as one JSON object per line, with its self time:
    /// its duration minus the time its children cover.
    void write(const std::string& path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<std::int64_t> open_;
};

class ScopedSpan {
  public:
    ScopedSpan(Tracer& tracer, std::string name, std::uint64_t request = 0)
        : tracer_(tracer), index_(tracer.open(std::move(name), request)) {}
    ~ScopedSpan() { tracer_.close(index_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    Tracer& tracer_;
    std::int64_t index_;
};

/// Heap allocations by pipeline stage (util::t_alloc_stage), counted by the
/// driver's operator new only while enabled — traced runs turn it on.
inline constexpr std::array<const char*, 8> kAllocStages = {
    "lane", "admit", "dispatch", "recv", "sim", "assemble", "sink", "untagged"};
using AllocCounts = std::array<std::uint64_t, kAllocStages.size()>;
void set_alloc_counting(bool enabled);
[[nodiscard]] AllocCounts alloc_counts();

/// Creates a fresh private directory under `parent` (mkdtemp).
[[nodiscard]] std::string make_private_dir(const std::string& parent, const char* prefix);
/// Removes a directory tree created by make_private_dir.
void remove_tree(const std::string& path);

int run_census_spill(const Args& args, Report& report, Tracer& tracer);
int run_path_census(const Args& args, Report& report, Tracer& tracer);
int run_serve_mixed(const Args& args, Report& report, Tracer& tracer);

}  // namespace lfpbench

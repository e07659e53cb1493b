// Pieces every workload that runs a census in-process shares: the
// benchmark's own record sink, the decorated vantage lanes, and the
// per-census readings they turn into end-to-end and per-layer metrics.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common.hpp"
#include "core/census.hpp"
#include "tracing_transport.hpp"

namespace lfpbench {

/// The benchmark's RecordSink: checks the stream is gap-free and in
/// order, digests every record, notes when the first record arrived (the
/// boundary between the probe phase and the in-order drain), and times the
/// consumer's wait for each later record: from the return of one accept()
/// to the entry of the next, so the sink's own work is not counted. When
/// `keep` is set it also collects the records for later stages; `observe`,
/// when set, sees every record as it streams by.
class CheckingSink final : public lfp::core::RecordSink {
  public:
    using Observer = std::function<void(const lfp::core::TargetRecord&)>;
    /// `expected` pre-sizes the wait samples so the sink does not allocate
    /// for them while records stream.
    CheckingSink(std::size_t expected, bool keep, Observer observe = {});

    void accept(std::uint64_t global_index, lfp::core::TargetRecord&& record) override;
    void finish() override { ++finishes_; }

    [[nodiscard]] std::uint64_t records() const noexcept { return records_; }
    [[nodiscard]] std::uint64_t out_of_order() const noexcept { return out_of_order_; }
    [[nodiscard]] int finishes() const noexcept { return finishes_; }
    [[nodiscard]] std::uint64_t digest() const noexcept { return digest_.value(); }
    [[nodiscard]] std::optional<Clock::time_point> first_accept() const { return first_accept_; }
    [[nodiscard]] std::vector<lfp::core::TargetRecord> take() { return std::move(kept_); }
    /// Wait before each record after the first, in µs, outside the sink.
    [[nodiscard]] const std::vector<double>& waits_us() const noexcept { return waits_us_; }

  private:
    bool keep_;
    Observer observe_;
    std::optional<std::uint64_t> previous_index_;
    std::uint64_t records_ = 0;
    std::uint64_t out_of_order_ = 0;
    int finishes_ = 0;
    Digest digest_;
    std::optional<Clock::time_point> first_accept_;
    std::int64_t last_return_ns_ = 0;
    std::vector<double> waits_us_;
    std::vector<lfp::core::TargetRecord> kept_;
};

/// Digest of one record's measured content: target, pass, which probe
/// slots answered, the signature key and the SNMP label.
void digest_record(Digest& digest, const lfp::core::TargetRecord& record);

/// One census's vantage lanes, each inner transport behind a decorator.
class Lanes {
  public:
    Lanes(std::span<lfp::probe::ProbeTransport* const> inner, bool timed);

    [[nodiscard]] std::vector<lfp::probe::ProbeTransport*> vantages();
    /// Sum of every lane's counters.
    [[nodiscard]] std::uint64_t packets() const;
    [[nodiscard]] std::uint64_t responses() const;
    [[nodiscard]] std::uint64_t polls() const;
    [[nodiscard]] std::uint64_t empty_polls() const;
    [[nodiscard]] double sim_s() const;
    [[nodiscard]] double send_busy_s() const;
    [[nodiscard]] double recv_busy_s() const;

  private:
    std::vector<std::unique_ptr<TracingTransport>> lanes_;
};

/// Readings of one measured census iteration.
struct Iteration {
    double setup_s = 0.0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double probe_phase_s = 0.0;
    double drain_phase_s = 0.0;
    std::uint64_t targets = 0;
    std::uint64_t packets = 0;
    std::uint64_t responses = 0;
    std::uint64_t polls = 0;
    std::uint64_t empty_polls = 0;
    std::uint64_t strays = 0;
    std::uint64_t retried = 0;
    std::uint64_t upgraded = 0;
    double sim_s = 0.0;
    double send_busy_s = 0.0;
    double recv_busy_s = 0.0;
    double wait_p50_us = 0.0;
    double wait_p99_us = 0.0;
    AllocCounts allocs{};
    IoCounters io{};

    [[nodiscard]] double targets_per_s() const {
        return static_cast<double>(targets) / wall_s;
    }
};

/// Adds the probe/sim/core readings of a finished census to `it`.
void read_census(Iteration& it, const Lanes& lanes, const lfp::core::CensusRunner& runner);
/// Adds the phase split and record waits the census's sink saw to `it`.
void read_sink(Iteration& it, const CheckingSink& sink, Clock::time_point stream_start);
/// Sets the wait percentiles of `it` from the waits of its censuses.
void read_waits(Iteration& it, std::vector<double> waits_us);

/// The end-to-end metrics every census workload reports from its measured
/// iterations (medians over iterations).
void report_census_e2e(Report& report, const std::vector<Iteration>& iterations);

/// The per-layer metrics of the traced iterations; `untraced_targets_per_s`
/// is the same run's untraced rate, for trace.overhead_ratio.
void report_census_layers(Report& report, const std::vector<Iteration>& traced,
                          double untraced_targets_per_s);

template <typename F>
std::vector<double> collect(const std::vector<Iteration>& iterations, F field) {
    std::vector<double> out;
    out.reserve(iterations.size());
    for (const Iteration& it : iterations) out.push_back(field(it));
    return out;
}

}  // namespace lfpbench

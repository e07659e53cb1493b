#include "census_common.hpp"

#include "stack/vendor.hpp"

namespace lfpbench {

void digest_record(Digest& digest, const lfp::core::TargetRecord& record) {
    digest.add_u64(record.probes.target.value());
    digest.add_u64(record.pass);
    std::uint64_t answered = 0;
    for (std::size_t p = 0; p < lfp::probe::kProtocolCount; ++p) {
        answered = answered * 4 +
                   record.probes.responses_for(static_cast<lfp::probe::ProtoIndex>(p));
    }
    digest.add_u64(answered);
    digest.add(record.signature.key());
    digest.add(record.snmp_vendor ? lfp::stack::to_string(*record.snmp_vendor) : "-");
}

CheckingSink::CheckingSink(std::size_t expected, bool keep, Observer observe)
    : keep_(keep), observe_(std::move(observe)) {
    waits_us_.reserve(expected);
    if (keep_) kept_.reserve(expected);
}

void CheckingSink::accept(std::uint64_t global_index, lfp::core::TargetRecord&& record) {
    if (!first_accept_) {
        first_accept_ = Clock::now();
    } else if (waits_us_.size() < waits_us_.capacity()) {
        waits_us_.push_back(static_cast<double>(now_ns() - last_return_ns_) / 1e3);
    }
    if (previous_index_ && global_index != *previous_index_ + 1) ++out_of_order_;
    previous_index_ = global_index;
    ++records_;
    digest_record(digest_, record);
    if (observe_) observe_(record);
    if (keep_) kept_.push_back(std::move(record));
    // Taken last, so the next wait covers only time spent outside the sink.
    last_return_ns_ = now_ns();
}

Lanes::Lanes(std::span<lfp::probe::ProbeTransport* const> inner, bool timed) {
    for (lfp::probe::ProbeTransport* transport : inner) {
        lanes_.push_back(std::make_unique<TracingTransport>(*transport, timed));
    }
}

std::vector<lfp::probe::ProbeTransport*> Lanes::vantages() {
    std::vector<lfp::probe::ProbeTransport*> out;
    for (auto& lane : lanes_) out.push_back(lane.get());
    return out;
}

namespace {
template <typename T, typename F>
T sum_lanes(const std::vector<std::unique_ptr<TracingTransport>>& lanes, F field) {
    T total{};
    for (const auto& lane : lanes) total += field(lane->tally()).load(std::memory_order_relaxed);
    return total;
}
}  // namespace

std::uint64_t Lanes::packets() const {
    return sum_lanes<std::uint64_t>(lanes_, [](auto& t) -> auto& { return t.packets; });
}
std::uint64_t Lanes::responses() const {
    return sum_lanes<std::uint64_t>(lanes_, [](auto& t) -> auto& { return t.responses; });
}
std::uint64_t Lanes::polls() const {
    return sum_lanes<std::uint64_t>(lanes_, [](auto& t) -> auto& { return t.polls; });
}
std::uint64_t Lanes::empty_polls() const {
    return sum_lanes<std::uint64_t>(lanes_, [](auto& t) -> auto& { return t.empty_polls; });
}
double Lanes::sim_s() const {
    return static_cast<double>(
               sum_lanes<std::int64_t>(lanes_, [](auto& t) -> auto& { return t.sim_ns; })) /
           1e9;
}
double Lanes::send_busy_s() const {
    return static_cast<double>(sum_lanes<std::int64_t>(
               lanes_, [](auto& t) -> auto& { return t.send_busy_ns; })) /
           1e9;
}
double Lanes::recv_busy_s() const {
    return static_cast<double>(sum_lanes<std::int64_t>(
               lanes_, [](auto& t) -> auto& { return t.recv_busy_ns; })) /
           1e9;
}

void read_sink(Iteration& it, const CheckingSink& sink, Clock::time_point stream_start) {
    if (sink.first_accept()) {
        it.probe_phase_s += seconds_between(stream_start, *sink.first_accept());
        it.drain_phase_s += seconds_since(*sink.first_accept());
    }
}

void read_census(Iteration& it, const Lanes& lanes, const lfp::core::CensusRunner& runner) {
    it.packets += lanes.packets();
    it.responses += lanes.responses();
    it.polls += lanes.polls();
    it.empty_polls += lanes.empty_polls();
    it.sim_s += lanes.sim_s();
    it.send_busy_s += lanes.send_busy_s();
    it.recv_busy_s += lanes.recv_busy_s();
    it.strays += runner.stray_responses();
    const auto& stats = runner.last_pass_stats();
    for (std::size_t pass = 1; pass < stats.size(); ++pass) {
        it.retried += stats[pass].probed;
        it.upgraded += stats[pass].upgraded;
    }
}

void read_waits(Iteration& it, std::vector<double> waits_us) {
    it.wait_p50_us = percentile(waits_us, 0.50);
    it.wait_p99_us = percentile(std::move(waits_us), 0.99);
}

void report_census_e2e(Report& report, const std::vector<Iteration>& iterations) {
    report.metric("setup_s", median(collect(iterations, [](auto& it) { return it.setup_s; })),
                  "s");
    report.metric("targets_per_s",
                  median(collect(iterations, [](auto& it) { return it.targets_per_s(); })),
                  "1/s");
    report.metric("cpu_ms_per_ktarget", median(collect(iterations, [](auto& it) {
                      return it.cpu_s * 1e3 / (static_cast<double>(it.targets) / 1e3);
                  })),
                  "ms");
    report.metric("peak_rss_mb", static_cast<double>(peak_rss_bytes()) / 1e6, "MB");
    // Means over censuses, not medians: a census's wait percentiles fall in
    // two groups (a p50 of ~1.15 us or ~1.5 us on census-spill here), and a
    // median of ~10 censuses jumps between them.
    report.metric("query_p50_us",
                  mean(collect(iterations, [](auto& it) { return it.wait_p50_us; })), "us");
    report.metric("query_p99_us",
                  mean(collect(iterations, [](auto& it) { return it.wait_p99_us; })), "us");
    report.metric("query_max_qps", median(collect(iterations, [](auto& it) {
                      return static_cast<double>(it.packets) / it.wall_s;
                  })),
                  "1/s");
    report.metric("publish_ms",
                  median(collect(iterations, [](auto& it) { return it.wall_s * 1e3; })), "ms");
}

void report_census_layers(Report& report, const std::vector<Iteration>& traced,
                          double untraced_targets_per_s) {
    auto per_target = [&](auto field) {
        return median(collect(traced, [&](const Iteration& it) {
            return static_cast<double>(field(it)) / static_cast<double>(it.targets);
        }));
    };
    report.metric("probe.packets_per_target", per_target([](auto& it) { return it.packets; }),
                  "count");
    report.metric("probe.responses_per_target",
                  per_target([](auto& it) { return it.responses; }), "count");
    report.metric("probe.polls_per_target", per_target([](auto& it) { return it.polls; }),
                  "count");
    report.metric("probe.empty_poll_ratio", median(collect(traced, [](auto& it) {
                      return static_cast<double>(it.empty_polls) /
                             static_cast<double>(it.polls);
                  })),
                  "ratio");
    report.metric("probe.recv_busy_ns_per_target",
                  per_target([](auto& it) { return it.recv_busy_s * 1e9; }), "ns");
    report.metric("probe.send_busy_ns_per_target",
                  per_target([](auto& it) { return it.send_busy_s * 1e9; }), "ns");
    report.metric("probe.stray_ratio", median(collect(traced, [](auto& it) {
                      return it.responses == 0 ? 0.0
                                               : static_cast<double>(it.strays) /
                                                     static_cast<double>(it.responses);
                  })),
                  "ratio");
    report.metric("sim.busy_ns_per_target", per_target([](auto& it) { return it.sim_s * 1e9; }),
                  "ns");
    report.metric("core.engine_targets_per_s", median(collect(traced, [](auto& it) {
                      return static_cast<double>(it.targets) / (it.wall_s - it.sim_s);
                  })),
                  "1/s");
    report.metric("core.probe_phase_s",
                  median(collect(traced, [](auto& it) { return it.probe_phase_s; })), "s");
    report.metric("core.drain_phase_s",
                  median(collect(traced, [](auto& it) { return it.drain_phase_s; })), "s");
    report.metric("core.retry_ratio", per_target([](auto& it) { return it.retried; }), "ratio");
    report.metric("core.upgrade_ratio", median(collect(traced, [](auto& it) {
                      return it.retried == 0 ? 0.0
                                             : static_cast<double>(it.upgraded) /
                                                   static_cast<double>(it.retried);
                  })),
                  "ratio");
    for (std::size_t stage = 0; stage < kAllocStages.size(); ++stage) {
        report.metric(std::string("alloc.") + kAllocStages[stage] + "_per_target",
                      per_target([&](auto& it) { return it.allocs[stage]; }), "count");
    }
    report.metric("spill.write_bytes_per_target",
                  per_target([](auto& it) { return it.io.write_bytes; }), "B");
    report.metric("spill.read_bytes_per_target",
                  per_target([](auto& it) { return it.io.read_bytes; }), "B");
    const double traced_rate = median(collect(traced, [](auto& it) { return it.targets_per_s(); }));
    report.metric("trace.overhead_ratio", traced_rate / untraced_targets_per_s, "ratio");
}

}  // namespace lfpbench

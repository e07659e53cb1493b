// Probe-engine throughput: serial (window=1) vs windowed campaigns over the
// simulated Internet with a modeled per-probe RTT. The paper's census probed
// ~2.2M interfaces; at one blocking round trip per packet that is weeks of
// wall clock, which is why the engine decouples sends from receives. This
// bench measures targets/sec at several (fixed) window sizes and verifies
// the windowed runs return byte-identical Measurement records to the serial
// one.
//
// A second scenario scales *vantages*: a CensusRunner partitions the same
// target list across N vantage transports (each a lane with its own
// sender/receiver thread pair and in-flight window) and index-merges the
// records. Lanes multiply the total in-flight budget, so targets/sec scales
// with the lane count while the merged Measurement stays byte-identical to
// the single-vantage run.
//
// A third scenario models the regime the adaptive window exists for: a
// lossy path whose ICMP budget is rate-limited (sim::Internet token bucket
// + source-quench advisories) under live timeout semantics. A fixed
// full-ceiling window blasts past the budget and loses ICMP/UDP answers
// wholesale; the AIMD window learns the path's knee and keeps them. The
// metric that matters there is *successfully measured targets* — full
// signatures, the population LFP extracts complete signatures from; a
// census must re-probe everything else. The acceptance gate is adaptive
// >= 1.5x fixed on full-signature yield from the identical hitlist (a
// deterministic-leaning count; the per-second rates are printed alongside
// and track it, but breathe with wall-clock scheduling noise).
//
// A fourth scenario gates the multi-pass retry scheduler: on a path with
// deterministic per-packet-hash loss, 2 census passes at the same
// packets-per-second cap must complete strictly more full signatures than
// 1 pass — the retry pass re-probes exactly the incomplete targets under
// shifted ID bases, drawing fresh loss fates. A paced windowed run is also
// checked byte-identical to the unpaced serial baseline (the token bucket
// shapes timing, never results).
//
// Env overrides: LFP_BENCH_TARGETS, LFP_BENCH_RTT_US, LFP_BENCH_JITTER.
// LFP_BENCH_SMOKE=1 shrinks every scenario for CI PR runs: identity checks
// and the (deterministic) multi-pass yield gate stay enforced, the
// timing-sensitive speed gates are reported but waived.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <vector>

#include "core/census.hpp"
#include "probe/campaign.hpp"
#include "probe/sim_transport.hpp"
#include "sim/internet.hpp"
#include "util/table.hpp"

namespace {

std::size_t env_or(const char* name, std::size_t fallback) {
    const char* value = std::getenv(name);
    return value ? static_cast<std::size_t>(std::strtoull(value, nullptr, 10)) : fallback;
}

double env_or_double(const char* name, double fallback) {
    const char* value = std::getenv(name);
    return value ? std::strtod(value, nullptr) : fallback;
}

}  // namespace

int main() {
    using namespace lfp;
    using Clock = std::chrono::steady_clock;

    const bool smoke = env_or("LFP_BENCH_SMOKE", 0) != 0;
    const std::size_t target_count = env_or("LFP_BENCH_TARGETS", smoke ? 120 : 300);
    const auto rtt = std::chrono::microseconds(env_or("LFP_BENCH_RTT_US", 2000));
    const double jitter = env_or_double("LFP_BENCH_JITTER", 0.3);
    if (smoke) {
        std::cout << "[smoke mode: reduced sizes, speed gates reported but waived]\n\n";
    }

    const sim::TopologyConfig topo_config{
        .seed = 42, .num_ases = 300, .tier1_count = 8, .transit_fraction = 0.18, .scale = 1.0};

    // Each run gets a freshly built world from the same seeds, so the
    // simulated routers' counter state is identical and result equality is
    // meaningful across window sizes.
    auto run_campaign = [&](std::size_t window, double pps = 0.0) {
        sim::Topology topology = sim::Topology::build(topo_config);
        sim::Internet internet(topology, {.seed = 4, .loss_rate = 0.004});
        probe::SimTransport transport(internet,
                                      probe::SimTransport::Options{.rtt = rtt, .jitter = jitter});
        // Fixed-window mode: this scenario measures raw window scaling, so
        // the adaptive controller stays off (loss here is rate-independent).
        probe::Campaign campaign(transport,
                                 {.window = window,
                                  .adaptive_window = false,
                                  .packets_per_second = pps,
                                  .response_timeout = std::chrono::milliseconds(250)});

        std::vector<net::IPv4Address> targets;
        for (std::size_t i = 0; i < topology.router_count() && targets.size() < target_count;
             ++i) {
            targets.push_back(topology.router(i).interfaces().front());
        }

        const auto start = Clock::now();
        auto results = campaign.run(targets);
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start);
        const double seconds = static_cast<double>(elapsed.count()) / 1e6;
        const double rate =
            seconds > 0 ? static_cast<double>(results.size()) / seconds : 0.0;
        return std::pair<std::vector<probe::TargetProbeResult>, double>(std::move(results),
                                                                        rate);
    };

    std::cout << "Probe engine throughput: " << target_count << " targets, 10 packets each, "
              << "RTT " << rtt.count() << "us (jitter +/-" << jitter * 100 << "%)\n\n";

    auto [serial_results, serial_rate] = run_campaign(1);

    util::TablePrinter table("Targets/sec by in-flight window (simulated Internet)");
    table.header({"window", "targets/sec", "speedup", "records identical"});
    table.row({"1 (serial)", util::format_double(serial_rate, 1), "1.0x", "baseline"});

    bool all_identical = true;
    double speedup_at_32 = 0.0;
    for (std::size_t window : {8, 32, 128}) {
        auto [results, rate] = run_campaign(window);
        const bool identical = results == serial_results;
        all_identical = all_identical && identical;
        const double speedup = serial_rate > 0 ? rate / serial_rate : 0.0;
        if (window == 32) speedup_at_32 = speedup;
        table.row({std::to_string(window), util::format_double(rate, 1),
                   util::format_double(speedup, 1) + "x", identical ? "yes" : "NO"});
    }
    // Pacing byte-neutrality: a token-bucket cap delays admissions but must
    // never change what a run measures. A generous cap keeps the timed cost
    // negligible while still exercising the paced admission path.
    auto [paced_results, paced_rate] = run_campaign(32, 200'000.0);
    const bool paced_identical = paced_results == serial_results;
    all_identical = all_identical && paced_identical;
    table.row({"32 @ 200k pps", util::format_double(paced_rate, 1),
               util::format_double(serial_rate > 0 ? paced_rate / serial_rate : 0.0, 1) + "x",
               paced_identical ? "yes" : "NO"});
    table.print(std::cout);

    std::cout << "\nAcceptance: window>=32 must be >=5x serial with identical records: "
              << (speedup_at_32 >= 5.0 && all_identical ? "PASS" : "FAIL") << "\n"
              << "(A serial census of the paper's 2.2M interfaces at this RTT would take\n"
              << " ~" << util::format_double(2.2e6 / std::max(serial_rate, 1.0) / 3600.0, 1)
              << " hours; the windowed engine divides that by the window.)\n";

    // --- Multi-vantage scaling: lanes multiply the in-flight budget --------
    const std::size_t census_targets =
        std::max<std::size_t>(target_count * 4, smoke ? 400 : 1000);
    auto run_census = [&](std::size_t vantage_count) {
        sim::Topology topology = sim::Topology::build(topo_config);
        sim::Internet internet(topology, {.seed = 4, .loss_rate = 0.004});
        std::vector<std::unique_ptr<probe::SimTransport>> transports;
        for (std::size_t v = 0; v < vantage_count; ++v) {
            transports.push_back(std::make_unique<probe::SimTransport>(
                internet, probe::SimTransport::Options{.rtt = rtt, .jitter = jitter}));
        }

        core::CensusPlan plan;
        plan.name = "throughput";
        for (const auto& transport : transports) plan.vantages.push_back(transport.get());
        plan.campaign.window = 32;
        plan.campaign.response_timeout = std::chrono::milliseconds(250);
        for (std::size_t i = 0;
             i < topology.router_count() && plan.targets.size() < census_targets; ++i) {
            // One interface per router: targets are independent, so the
            // default round-robin lane assignment is safe.
            plan.targets.push_back(topology.router(i).interfaces().front());
        }
        core::CensusRunner runner(std::move(plan));

        const auto start = Clock::now();
        auto measurement =
            runner.measure_passes(runner.plan().name, runner.plan().targets, {}, 1);
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start);
        const double seconds = static_cast<double>(elapsed.count()) / 1e6;
        const double rate =
            seconds > 0 ? static_cast<double>(measurement.records.size()) / seconds : 0.0;
        return std::pair<lfp::core::Measurement, double>(std::move(measurement), rate);
    };

    std::cout << "\nMulti-vantage census: " << census_targets
              << " targets, window 32 per lane\n\n";
    auto [one_vantage, one_vantage_rate] = run_census(1);

    util::TablePrinter census_table("Targets/sec by vantage count (CensusRunner, window 32)");
    census_table.header({"vantages", "targets/sec", "speedup", "records identical"});
    census_table.row({"1", util::format_double(one_vantage_rate, 1), "1.0x", "baseline"});

    bool census_identical = true;
    double speedup_at_4 = 0.0;
    for (std::size_t vantage_count : {2, 4, 8}) {
        auto [measurement, rate] = run_census(vantage_count);
        const bool identical = measurement == one_vantage;
        census_identical = census_identical && identical;
        const double speedup = one_vantage_rate > 0 ? rate / one_vantage_rate : 0.0;
        if (vantage_count == 4) speedup_at_4 = speedup;
        census_table.row({std::to_string(vantage_count), util::format_double(rate, 1),
                          util::format_double(speedup, 1) + "x", identical ? "yes" : "NO"});
    }
    census_table.print(std::cout);

    std::cout << "\nAcceptance: 4 vantages must be >=2x one vantage at window 32 with\n"
              << "byte-identical merged records: "
              << (speedup_at_4 >= 2.0 && census_identical ? "PASS" : "FAIL") << "\n";

    // --- Lossy path with ICMP rate limiting: adaptive vs fixed window ------
    // The path sustains a bounded ICMP answer rate; past it, echo replies
    // and the ICMP errors UDP probes earn are replaced by source-quench
    // advisories. The transport runs with live-path semantics (drained()
    // never proves silence, like a real raw socket), so every target whose
    // answers were suppressed parks a window slot for the full response
    // timeout. A fixed full-ceiling window overruns the budget and stalls
    // on those timeouts wholesale; the AIMD window converges to the
    // sustainable rate and keeps both its answers and its pace.
    const std::size_t lossy_targets = smoke ? 200 : 800;

    // Hitlist: the full-signature re-probe population — targets known to
    // answer all nine probes when the path is quiet (exactly the
    // responsive population a census re-probes for complete signatures).
    // Selected in an instant quiet world (rtt 0, no loss, no limiter) so
    // the timed runs measure pacing, not target policy.
    const auto hitlist = [&] {
        sim::Topology topology = sim::Topology::build(topo_config);
        sim::Internet internet(topology, {.seed = 4, .loss_rate = 0.0});
        probe::SimTransport transport(internet);
        probe::Campaign campaign(transport,
                                 {.send_snmp = false, .window = 64, .adaptive_window = false});
        std::vector<net::IPv4Address> candidates;
        for (std::size_t i = 0; i < topology.router_count(); ++i) {
            candidates.push_back(topology.router(i).interfaces().front());
        }
        auto probed = campaign.run(candidates);
        std::vector<net::IPv4Address> selected;
        for (std::size_t i = 0; i < probed.size() && selected.size() < lossy_targets; ++i) {
            if (probed[i].all_protocols_responsive()) selected.push_back(candidates[i]);
        }
        return selected;
    }();

    auto run_lossy = [&](bool adaptive) {
        sim::Topology topology = sim::Topology::build(topo_config);
        sim::Internet internet(topology, {.seed = 4,
                                          .loss_rate = 0.001,
                                          .icmp_rate_limit_per_sec = 12000.0,
                                          .icmp_rate_limit_burst = 32.0});
        probe::SimTransport transport(
            internet, probe::SimTransport::Options{.rtt = rtt,
                                                   .jitter = jitter,
                                                   .live_semantics = true});
        // SNMP off: the discovery probe is filtered almost everywhere, and
        // under live semantics a guaranteed-unanswered slot would just park
        // every target on the timeout, drowning the signal this scenario
        // measures (the nine-probe LFP exchange is what the window paces).
        // The response timeout stays at the live-prober default (1 s):
        // parking a window slot for a second is the true price of a lost
        // answer, and it is exactly what blasting past the budget costs.
        probe::Campaign campaign(transport,
                                 {.send_snmp = false,
                                  .window = 128,
                                  .adaptive_window = adaptive});

        const auto& targets = hitlist;
        const auto start = Clock::now();
        auto results = campaign.run(targets);
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start);
        const double seconds = static_cast<double>(elapsed.count()) / 1e6;

        std::size_t full = 0;
        for (const auto& result : results) {
            if (result.all_protocols_responsive()) ++full;
        }
        struct Outcome {
            double rate = 0;       ///< targets/sec
            double full_rate = 0;  ///< full signatures/sec
            std::size_t full = 0;
            std::uint64_t quenches = 0;
            std::size_t window = 0;
        } outcome;
        outcome.rate = seconds > 0 ? static_cast<double>(results.size()) / seconds : 0.0;
        outcome.full_rate = seconds > 0 ? static_cast<double>(full) / seconds : 0.0;
        outcome.full = full;
        outcome.quenches = campaign.rate_limit_signals();
        outcome.window = campaign.current_window();
        return outcome;
    };

    std::cout << "\nLossy path, ICMP rate-limited (12k ICMP answers/sec, burst 32), live\n"
              << "timeout semantics: " << hitlist.size()
              << " full-responsive targets, window ceiling 128\n\n";
    const auto fixed = run_lossy(false);
    const auto adaptive = run_lossy(true);

    util::TablePrinter lossy_table("Adaptive vs fixed window on the rate-limited path");
    lossy_table.header(
        {"mode", "targets/sec", "full sigs/sec", "full sigs", "quenches", "final window"});
    lossy_table.row({"fixed 128", util::format_double(fixed.rate, 1),
                     util::format_double(fixed.full_rate, 1), std::to_string(fixed.full),
                     std::to_string(fixed.quenches), std::to_string(fixed.window)});
    lossy_table.row({"adaptive <=128", util::format_double(adaptive.rate, 1),
                     util::format_double(adaptive.full_rate, 1), std::to_string(adaptive.full),
                     std::to_string(adaptive.quenches), std::to_string(adaptive.window)});
    lossy_table.print(std::cout);

    const double adaptive_gain =
        fixed.full > 0 ? static_cast<double>(adaptive.full) / static_cast<double>(fixed.full)
                       : 0.0;
    std::cout << "\nAcceptance: the adaptive window must collect >=1.5x the fixed window's\n"
              << "full signatures from the same hitlist on the rate-limited lossy path: "
              << util::format_double(adaptive_gain, 2) << "x "
              << (adaptive_gain >= 1.5 ? "PASS" : "FAIL") << "\n";

    // --- Multi-pass retry scheduling on a lossy path ----------------------
    // Per-packet-hash loss (no wall-clock limiter, so the counts below are
    // deterministic) under live timeout semantics and one shared
    // packets-per-second cap: a single pass leaves every loss-struck target
    // with a partial signature; a second pass re-probes exactly those
    // targets under shifted ID bases — fresh per-packet loss draws — and
    // converts most of them. The census-grade metric is full-signature
    // yield from the identical hitlist at the identical send budget.
    const double multipass_pps = 25'000.0;
    auto run_multipass = [&](std::size_t passes) {
        sim::Topology topology = sim::Topology::build(topo_config);
        sim::Internet internet(topology, {.seed = 4, .loss_rate = 0.02});
        probe::SimTransport transport(
            internet, probe::SimTransport::Options{.rtt = rtt,
                                                   .jitter = jitter,
                                                   .live_semantics = true});
        core::CensusPlan plan;
        plan.name = "multipass";
        plan.vantages = {&transport};
        plan.campaign.send_snmp = false;
        plan.campaign.window = 64;
        plan.campaign.packets_per_second = multipass_pps;
        plan.campaign.response_timeout = std::chrono::milliseconds(250);
        plan.passes = passes;
        // The hitlist is known-responsive, so even total silence means
        // every probe (or every answer) was lost — retry it too.
        plan.retry.retry_silent = true;
        core::CensusRunner runner(std::move(plan));

        const auto start = Clock::now();
        auto measurement = runner.measure_passes("multipass", hitlist, {}, passes);
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start);
        const double seconds = static_cast<double>(elapsed.count()) / 1e6;

        std::size_t full = 0;
        for (const auto& record : measurement.records) {
            if (record.probes.all_protocols_responsive()) ++full;
        }
        struct Outcome {
            std::size_t full = 0;
            double seconds = 0;
            std::vector<core::CensusRunner::PassStats> stats;
        } outcome;
        outcome.full = full;
        outcome.seconds = seconds;
        outcome.stats = runner.last_pass_stats();
        return outcome;
    };

    std::cout << "\nMulti-pass retry, lossy path (2% per-packet loss, live timeouts, "
              << util::format_double(multipass_pps, 0) << " pps cap):\n"
              << hitlist.size() << " full-responsive targets\n\n";
    const auto one_pass = run_multipass(1);
    const auto two_pass = run_multipass(2);

    util::TablePrinter pass_table("Full-signature yield by census passes (equal pps cap)");
    pass_table.header({"passes", "full sigs", "yield", "probed/pass", "seconds"});
    auto probed_summary = [](const std::vector<core::CensusRunner::PassStats>& stats) {
        std::string parts;
        for (const auto& stat : stats) {
            if (!parts.empty()) parts += "+";
            parts += std::to_string(stat.probed);
        }
        return parts;
    };
    pass_table.row({"1", std::to_string(one_pass.full),
                    util::format_percent(static_cast<double>(one_pass.full) /
                                         static_cast<double>(hitlist.size())),
                    probed_summary(one_pass.stats),
                    util::format_double(one_pass.seconds, 2)});
    pass_table.row({"2", std::to_string(two_pass.full),
                    util::format_percent(static_cast<double>(two_pass.full) /
                                         static_cast<double>(hitlist.size())),
                    probed_summary(two_pass.stats),
                    util::format_double(two_pass.seconds, 2)});
    pass_table.print(std::cout);

    const bool multipass_pass = two_pass.full > one_pass.full;
    std::cout << "\nAcceptance: 2 passes must complete strictly more full signatures than 1\n"
              << "pass from the same hitlist at the same pps cap: "
              << two_pass.full << " vs " << one_pass.full << " "
              << (multipass_pass ? "PASS" : "FAIL")
              << "\n(per-packet-hash loss makes these counts deterministic, so this gate\n"
              << " binds in smoke mode too; pass 2 re-probed only the "
              << (two_pass.stats.empty() ? 0 : two_pass.stats.front().incomplete)
              << " incomplete targets.)\n";

    const bool identity_pass = all_identical && census_identical && multipass_pass;
    const bool yield_pass = adaptive_gain >= 1.5;
    const bool speed_pass = speedup_at_32 >= 5.0 && speedup_at_4 >= 2.0;
    if (smoke) {
        // CI PR smoke: only the byte-identity checks and the deterministic
        // multi-pass yield gate are truly load-independent and stay
        // binding. The adaptive yield gate leans on a
        // wall-clock token bucket (a heavily loaded runner slows the sim's
        // sends until even the blast fits the budget), so like the speedup
        // gates it is reported but waived; the full-size run gates all
        // three.
        std::cout << "\n[smoke] identity checks " << (identity_pass ? "PASS" : "FAIL")
                  << "; yield gate "
                  << (yield_pass ? "passes (informational)" : "waived (informational)")
                  << ", speedup gates "
                  << (speed_pass ? "pass (informational)" : "waived (informational)") << "\n";
        return identity_pass ? 0 : 1;
    }
    return identity_pass && yield_pass && speed_pass ? 0 : 1;
}

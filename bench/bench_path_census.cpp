// Path census — traceroute-discovered hops as first-class census targets.
//
// Two properties are gated, both binding (smoke included):
//
//   1. Measurement quality: a path census — traceroute sweep, hop dedup,
//      multi-pass probing, classification against a roster-calibrated
//      signature database (the paper's split: calibrate LFP broadly,
//      classify what traceroutes discover) — must agree with ground truth
//      on nearly every hop both can name, identify a bounded-below share
//      of the truth-known hops, and produce §6 vendor-diversity rows
//      (Fig 9–17 shape) matching the oracle evaluated at the measurement's
//      own coverage. This is the live-style-measurement-vs-oracle check:
//      the paper's analyses keep their shape when fed from probing.
//
//   2. Byte-determinism across vantage counts: the same path census run at
//      V ∈ {1, 2, 4} census lanes (fresh stateful world per V) must yield
//      byte-identical measurement CSV and identical PathStats — the lane
//      count parallelizes probing, it never changes what is measured.
//
// Env knobs: LFP_BENCH_SMOKE=1 shrinks the world for CI PRs;
// LFP_PATH_* overrides apply to the sweep exactly as in lfp_census.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/path_census.hpp"
#include "io/csv_export.hpp"
#include "probe/sim_transport.hpp"
#include "sim/internet.hpp"
#include "sim/topology.hpp"
#include "util/table.hpp"

namespace {

using namespace lfp;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
    const char* value = std::getenv(name);
    if (value == nullptr || *value == '\0') return fallback;
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(value, &end, 10);
    return (end != nullptr && *end == '\0') ? parsed : fallback;
}

sim::Topology build_topology(bool smoke) {
    return sim::Topology::build({.seed = 77,
                                 .num_ases = smoke ? 120u : 240u,
                                 .tier1_count = 5,
                                 .transit_fraction = 0.2,
                                 .scale = smoke ? 0.5 : 0.8});
}

analysis::PathCensusConfig sweep_config(bool smoke) {
    analysis::PathCensusConfig config;
    config.sources = 4;
    config.destinations = smoke ? 24 : 64;
    config.flows_per_pair = 1;
    return analysis::PathCensusConfig::from_env(config);
}

/// One complete path census at `vantage_count` lanes over a fresh world.
struct CensusRun {
    analysis::PathCensusResult result;
    analysis::PathStats stats;
    std::string csv;
    std::uint64_t packets = 0;
};

CensusRun run_census(bool smoke, std::size_t vantage_count) {
    // Fresh topology and internet per run: simulated routers are stateful,
    // so byte-identity across vantage counts is only meaningful from
    // identical initial conditions.
    sim::Topology topology = build_topology(smoke);
    sim::Internet internet(topology, {.seed = 13, .loss_rate = 0.02});
    std::vector<std::unique_ptr<probe::SimTransport>> transports;
    core::CensusPlan plan;
    plan.name = "bench-path-census";
    for (std::size_t lane = 0; lane < vantage_count; ++lane) {
        transports.push_back(std::make_unique<probe::SimTransport>(internet));
        plan.vantages.push_back(transports.back().get());
    }
    plan.campaign.window = 16;
    plan.passes = 2;

    core::CensusRunner runner(std::move(plan));
    const analysis::PathCensus census(topology, sweep_config(smoke));

    CensusRun run;
    run.result = census.run(runner);
    run.stats = run.result.stats(topology, analysis::PathScope::all);
    run.packets = runner.packets_sent();
    std::ostringstream csv;
    io::export_measurement_csv(csv, run.result.measurement);
    run.csv = csv.str();
    return run;
}

double exactly(const util::Ecdf& e, double k) { return e.at(k) - e.at(k - 1.0); }

}  // namespace

int main() {
    const bool smoke = env_u64("LFP_BENCH_SMOKE", 0) != 0;
    bool ok = true;

    // --- 1: measured census vs ground truth on the same world -------------
    const auto start = std::chrono::steady_clock::now();
    sim::Topology topology = build_topology(smoke);
    sim::Internet internet(topology, {.seed = 13, .loss_rate = 0.02});
    probe::SimTransport transport(internet);
    core::CensusPlan plan;
    plan.name = "bench-path-census";
    plan.vantages.push_back(&transport);
    plan.campaign.window = 16;
    plan.passes = 2;
    core::CensusRunner runner(std::move(plan));

    // Calibration: a roster census over the same world learns the signature
    // database the path hops are classified against — the paper's split
    // (calibrate LFP broadly, then classify what traceroutes discover).
    // Self-calibrating from the path hops alone leaves most signatures
    // non-unique and coverage collapses.
    probe::SimTransport calibration_transport(internet);
    core::CensusPlan calibration_plan;
    calibration_plan.name = "bench-path-calibration";
    // One interface per router: a simulated router's counters are shared
    // across its interfaces, so probing aliases back-to-back contaminates
    // the velocity features and costs classification accuracy.
    for (std::size_t i = 0; i < topology.router_count(); ++i) {
        calibration_plan.targets.push_back(topology.router(i).interfaces().front());
    }
    calibration_plan.vantages.push_back(&calibration_transport);
    calibration_plan.campaign.window = 16;
    calibration_plan.passes = 2;
    core::CensusRunner calibration_runner(std::move(calibration_plan));
    const core::Measurement calibration = calibration_runner.measure_passes(
        calibration_runner.plan().name, calibration_runner.plan().targets);
    // The default admission threshold (min_occurrences = 20) is sized for
    // the full-scale experiment world; a bench-sized world has only a few
    // hundred labeled records, so admit any signature three labeled routers
    // share — singletons are noise and cost accuracy, 20 admits nothing.
    const core::SignatureDatabase database = calibration_runner.build_database(
        std::span<const core::Measurement>(&calibration, 1), {.min_occurrences = 3});

    const analysis::PathCensus census(topology, sweep_config(smoke));
    const analysis::PathCensusResult measured = census.run(runner, &database);
    const double census_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

    const analysis::VendorMap truth_map = census.ground_truth(measured.targets);
    const analysis::PathAgreement agreement =
        analysis::PathCensus::agreement(measured.vendors, truth_map, measured.targets);

    const analysis::PathStats measured_stats = measured.stats(topology, analysis::PathScope::all);
    const analysis::PathAnalyzer truth_analyzer(topology, truth_map);
    const analysis::PathStats truth_stats =
        truth_analyzer.analyze(measured.discovery.traces, analysis::PathScope::all, {});

    // The oracle at the measurement's own coverage: truth verdicts
    // restricted to the hops the measured map names. Gating the Fig 11 rows
    // against *this* map separates classification error (which the gates
    // must catch) from coverage bias (which is inherent to live-style
    // probing — silent routers and non-unique signatures identify nothing).
    analysis::VendorMap restricted_truth;
    for (const net::IPv4Address address : measured.targets.targets) {
        const auto expected = truth_map.lookup(address);
        if (expected && measured.vendors.lookup(address)) {
            restricted_truth.assign(address, *expected);
        }
    }
    const analysis::PathAnalyzer restricted_analyzer(topology, restricted_truth);
    const analysis::PathStats restricted_stats =
        restricted_analyzer.analyze(measured.discovery.traces, analysis::PathScope::all, {});

    std::cout << "bench_path_census" << (smoke ? " (smoke)" : "") << ": "
              << measured.discovery.traces.size() << " paths, " << measured.targets.hops_listed
              << " hops -> " << measured.targets.targets.size() << " targets ("
              << measured.targets.duplicates_collapsed << " dup, "
              << measured.targets.unroutable_dropped << " unroutable), census "
              << util::format_double(census_seconds, 2) << " s, " << runner.packets_sent()
              << " packets, " << measured.stale_unresponsive << " stale-unresponsive\n";
    std::cout << "agreement: accuracy=" << util::format_double(agreement.accuracy(), 4)
              << " coverage=" << util::format_double(agreement.coverage(), 4)
              << " (truth=" << agreement.truth_known << " measured=" << agreement.measured_known
              << " both=" << agreement.both_known << " of " << agreement.hops << " hops)\n";

    const double measured_single = exactly(measured_stats.vendors_per_path, 1.0);
    const double truth_single = exactly(truth_stats.vendors_per_path, 1.0);
    const double restricted_single = exactly(restricted_stats.vendors_per_path, 1.0);
    std::cout << "Fig 11 rows (measured | oracle@coverage | oracle): paths="
              << measured_stats.paths_considered << " | " << restricted_stats.paths_considered
              << " | " << truth_stats.paths_considered
              << ", identified%=" << util::format_double(measured_stats.identified_fraction.mean(), 1)
              << " | " << util::format_double(restricted_stats.identified_fraction.mean(), 1)
              << " | " << util::format_double(truth_stats.identified_fraction.mean(), 1)
              << ", 1-vendor=" << util::format_percent(measured_single) << " | "
              << util::format_percent(restricted_single) << " | "
              << util::format_percent(truth_single)
              << ", combinations=" << measured_stats.combinations.items().size() << " | "
              << restricted_stats.combinations.items().size() << " | "
              << truth_stats.combinations.items().size() << "\n";

    // Gates. Accuracy: where measurement and oracle both name a hop they
    // must almost always agree (SNMP labels are authoritative; unique LFP
    // matches resolve through signatures the same world induced). The
    // Fig 11 shape gates compare against the oracle *at the measurement's
    // coverage* — identical hop domain, so any row drift is classification
    // error, not the coverage bias inherent to live-style probing.
    struct Gate {
        const char* name;
        bool pass;
    };
    const Gate gates[] = {
        {"accuracy >= 0.95", agreement.accuracy() >= 0.95},
        {"coverage >= 0.30", agreement.coverage() >= 0.30},
        {"paths considered match oracle@coverage",
         measured_stats.paths_considered == restricted_stats.paths_considered},
        {"1-vendor share within 0.10 of oracle@coverage",
         std::abs(measured_single - restricted_single) <= 0.10},
        {"mean vendors/path within 0.25 of oracle@coverage",
         !measured_stats.vendors_per_path.empty() &&
             !restricted_stats.vendors_per_path.empty() &&
             std::abs(measured_stats.vendors_per_path.mean() -
                      restricted_stats.vendors_per_path.mean()) <= 0.25},
        {"some hop identified", measured_stats.identified_fraction.mean() > 0.0},
    };
    for (const Gate& gate : gates) {
        std::cout << "gate " << gate.name << ": " << (gate.pass ? "PASS" : "FAIL") << "\n";
        if (!gate.pass) ok = false;
    }

    // --- 2: byte-determinism across vantage counts -------------------------
    const std::size_t vantage_counts[] = {1, 2, 4};
    std::vector<CensusRun> runs;
    for (const std::size_t count : vantage_counts) {
        const auto t0 = std::chrono::steady_clock::now();
        runs.push_back(run_census(smoke, count));
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        std::cout << "V=" << count << ": " << runs.back().result.measurement.records.size()
                  << " records, " << runs.back().packets << " packets, "
                  << util::format_double(seconds, 2) << " s\n";
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
        const bool csv_identical = runs[i].csv == runs[0].csv;
        std::cout << "gate V=" << vantage_counts[i] << " CSV byte-identical to V=1: "
                  << (csv_identical ? "PASS" : "FAIL") << "\n";
        if (!csv_identical) ok = false;
        const bool stats_identical =
            runs[i].stats.paths_considered == runs[0].stats.paths_considered &&
            runs[i].stats.vendors_per_path.sorted_samples() ==
                runs[0].stats.vendors_per_path.sorted_samples() &&
            runs[i].stats.identified_fraction.sorted_samples() ==
                runs[0].stats.identified_fraction.sorted_samples();
        std::cout << "gate V=" << vantage_counts[i] << " PathStats identical to V=1: "
                  << (stats_identical ? "PASS" : "FAIL") << "\n";
        if (!stats_identical) ok = false;
    }

    return ok ? 0 : 1;
}

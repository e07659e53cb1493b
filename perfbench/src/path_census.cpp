// path-census: the fidelity world (stateful stack::SimulatedRouters behind
// probe::SimTransport at RTT 0), in five steps per census:
//   1. a roster calibration census of one interface per router;
//   2. build_database;
//   3. a PathCensus traceroute sweep;
//   4. a 2-lane in-memory multi-pass stream_paths census of the collapsed
//      hop set, then classify;
//   5. agreement with ground truth, and the per-path statistics.
// The fidelity simulator, traceroute synthesis and hop dedup,
// classification and the multi-lane merge carry the work; hops are heavily
// shared across paths and nothing spills.
#include <iostream>
#include <sstream>

#include "analysis/path_census.hpp"
#include "census_common.hpp"
#include "io/csv_export.hpp"
#include "probe/sim_transport.hpp"
#include "sim/internet.hpp"
#include "sim/topology.hpp"

namespace lfpbench {
namespace {

/// World and sweep size: a 1000-AS topology (~20k routers) and 4 sources ×
/// 700 destinations × 2 flows, so one census runs in ~1.3 s on a 4-core
/// Xeon host and a run measures several of them. The topology is fixed;
/// the seed picks the sweep's sources and destinations and the loss draws,
/// so seeds differ in what is measured, not in how big the world is.
constexpr std::size_t kAses = 1000;
constexpr std::uint64_t kTopologySeed = 20231024;
constexpr int kSetups = 3;
constexpr std::size_t kDestinations = 700;

struct CensusOutput {
    std::uint64_t csv_digest = 0;
    double accuracy = 0.0;
    double coverage = 0.0;
    std::uint64_t roster = 0;
    std::uint64_t hops = 0;
};

}  // namespace

int run_path_census(const Args& args, Report& report, Tracer& tracer) {
    using namespace lfp;
    std::vector<Iteration> untraced;
    std::vector<Iteration> traced;
    std::optional<CensusOutput> reference;
    std::uint64_t last_digest = 0;
    std::vector<double> build_db_ms, classify_ns, discover_ms, dedup, path_stats_ms;
    const auto run_start = Clock::now();

    for (std::size_t i = 0;; ++i) {
        const bool timed = args.trace && i > 0;
        // At least three censuses; no census that would end past --seconds.
        const double last_s = untraced.empty() && traced.empty()
                                  ? 0.0
                                  : (traced.empty() ? untraced : traced).back().wall_s;
        if (i >= 3 && seconds_since(run_start) + last_s > args.seconds) break;
        ScopedSpan census_span(tracer, "path_census", i);

        Iteration it;
        // The world build is repeated and the median taken; the last world
        // serves the census (simulated routers are stateful, so every
        // census needs a fresh one).
        std::vector<double> setups;
        std::optional<sim::Topology> built;
        for (int k = 0; k < kSetups; ++k) {
            const auto setup_start = Clock::now();
            sim::Topology next = sim::Topology::build({.seed = kTopologySeed, .num_ases = kAses});
            setups.push_back(seconds_since(setup_start));
            built.emplace(std::move(next));
        }
        it.setup_s = median(setups);
        sim::Topology& topology = *built;
        sim::Internet internet(topology, {.seed = args.seed ^ 0x5EED, .loss_rate = 0.02});

        set_alloc_counting(timed);
        const AllocCounts allocs_before = alloc_counts();
        const IoCounters io_before = io_counters();
        const double cpu_before = process_cpu_s();
        double untimed_s = 0.0;  // the benchmark's own hop collapse, excluded
        std::vector<double> waits_us;
        const auto start = Clock::now();

        // 1. Roster calibration: one interface per router.
        std::vector<net::IPv4Address> roster;
        roster.reserve(topology.router_count());
        for (std::size_t r = 0; r < topology.router_count(); ++r) {
            roster.push_back(topology.router(r).interfaces().front());
        }
        probe::SimTransport calibration_transport(internet);
        probe::ProbeTransport* calibration_inner[] = {&calibration_transport};
        Lanes calibration_lanes(calibration_inner, timed);
        core::CensusPlan calibration_plan;
        calibration_plan.name = "path-calibration";
        calibration_plan.vantages = calibration_lanes.vantages();
        calibration_plan.campaign.window = 16;
        calibration_plan.passes = 2;
        core::CensusRunner calibration_runner(std::move(calibration_plan));
        CheckingSink calibration_sink(roster.size(), /*keep=*/true);
        Clock::time_point stream_start = Clock::now();
        {
            ScopedSpan span(tracer, "core.stream_passes", i);
            calibration_runner.stream_passes(roster, {}, 2, calibration_sink);
        }
        read_sink(it, calibration_sink, stream_start);
        read_census(it, calibration_lanes, calibration_runner);
        waits_us = calibration_sink.waits_us();
        core::Measurement calibration;
        calibration.name = "path-calibration";
        calibration.records = calibration_sink.take();

        // 2. The signature database. Admit signatures three labeled routers
        // share: singletons are noise, the paper's 20 admits nothing here.
        auto step = Clock::now();
        const core::SignatureDatabase database = [&] {
            ScopedSpan span(tracer, "core.build_database", i);
            return calibration_runner.build_database(
                std::span<const core::Measurement>(&calibration, 1), {.min_occurrences = 3});
        }();
        build_db_ms.push_back(seconds_since(step) * 1e3);

        // 3. The traceroute sweep.
        analysis::PathCensusConfig sweep;
        sweep.seed = args.seed;
        sweep.sources = 4;
        sweep.destinations = kDestinations;
        sweep.flows_per_pair = 2;
        const analysis::PathCensus census(topology, sweep);
        step = Clock::now();
        const analysis::PathDiscovery discovery = [&] {
            ScopedSpan span(tracer, "analysis.discover", i);
            return census.discover();
        }();
        const std::vector<std::vector<net::IPv4Address>> paths = discovery.hop_lists();
        discover_ms.push_back(seconds_since(step) * 1e3);

        // 4. The 2-lane hop census, then classification.
        const auto untimed_start = Clock::now();
        const core::PathTargets expected_targets = core::PathTargets::from_paths(paths);
        probe::SimTransport lane0(internet);
        probe::SimTransport lane1(internet);
        probe::ProbeTransport* hop_inner[] = {&lane0, &lane1};
        Lanes hop_lanes(hop_inner, timed);
        untimed_s += seconds_since(untimed_start);
        core::CensusPlan hop_plan;
        hop_plan.name = "path-census";
        hop_plan.vantages = hop_lanes.vantages();
        hop_plan.campaign.window = 16;
        hop_plan.passes = 2;
        core::CensusRunner hop_runner(std::move(hop_plan));
        CheckingSink hop_sink(expected_targets.targets.size(), /*keep=*/true);
        stream_start = Clock::now();
        {
            ScopedSpan span(tracer, "core.stream_paths", i);
            hop_runner.stream_paths(paths, discovery.trace_source, 2, hop_sink);
        }
        read_sink(it, hop_sink, stream_start);
        read_census(it, hop_lanes, hop_runner);
        waits_us.insert(waits_us.end(), hop_sink.waits_us().begin(), hop_sink.waits_us().end());
        const core::PathTargets& hop_targets = hop_runner.last_path_targets();
        core::Measurement measurement;
        measurement.name = "path-census";
        measurement.records = hop_sink.take();
        // What stream_paths probed: one final record per target, in index
        // order, each naming the collapsed hop set's target at that index.
        const auto check_start = Clock::now();
        bool probed_hop_set = measurement.records.size() == expected_targets.targets.size();
        for (std::size_t r = 0; probed_hop_set && r < measurement.records.size(); ++r) {
            probed_hop_set = measurement.records[r].probes.target == expected_targets.targets[r];
        }
        untimed_s += seconds_since(check_start);
        step = Clock::now();
        {
            ScopedSpan span(tracer, "core.classify", i);
            hop_runner.classify(measurement, database);
        }
        const std::size_t classified = std::max<std::size_t>(1, measurement.records.size());
        classify_ns.push_back(seconds_since(step) * 1e9 / static_cast<double>(classified));

        // 5. Agreement with ground truth and the per-path statistics.
        const analysis::VendorMap vendors = analysis::VendorMap::from_measurement(
            measurement, analysis::VendorMap::Method::combined);
        const analysis::PathAgreement agreement =
            analysis::PathCensus::agreement(vendors, census.ground_truth(hop_targets), hop_targets);
        step = Clock::now();
        const analysis::PathStats stats = [&] {
            ScopedSpan span(tracer, "analysis.path_stats", i);
            return analysis::PathAnalyzer(topology, vendors)
                .analyze(discovery.traces, analysis::PathScope::all);
        }();
        path_stats_ms.push_back(seconds_since(step) * 1e3);
        const auto end = Clock::now();

        it.cpu_s = process_cpu_s() - cpu_before;
        const IoCounters io_after = io_counters();
        const AllocCounts allocs_after = alloc_counts();
        set_alloc_counting(false);
        it.wall_s = seconds_between(start, end) - untimed_s;
        it.targets = roster.size() + hop_targets.targets.size();
        it.io = {io_after.read_bytes - io_before.read_bytes,
                 io_after.write_bytes - io_before.write_bytes};
        for (std::size_t s = 0; s < it.allocs.size(); ++s) {
            it.allocs[s] = allocs_after[s] - allocs_before[s];
        }
        read_waits(it, std::move(waits_us));
        dedup.push_back(static_cast<double>(hop_targets.targets.size()) /
                        static_cast<double>(std::max<std::uint64_t>(1, hop_targets.hops_listed)));

        // Output checks: both record streams gap-free and in order, the hop
        // census's records name exactly the collapsed hop set, and the same
        // CSV digest and agreement as every other census of this run.
        std::ostringstream csv;
        io::export_measurement_csv(csv, measurement);
        Digest digest;
        digest.add(csv.str());
        CensusOutput output{digest.value(), agreement.accuracy(), agreement.coverage(),
                            roster.size(), hop_targets.targets.size()};
        report.attempt(it.targets);
        last_digest = output.csv_digest;
        const std::uint64_t missing =
            (roster.size() - std::min<std::uint64_t>(roster.size(), calibration_sink.records())) +
            (hop_targets.targets.size() -
             std::min<std::uint64_t>(hop_targets.targets.size(), hop_sink.records()));
        const std::uint64_t disordered = calibration_sink.out_of_order() + hop_sink.out_of_order();
        if (missing + disordered > 0) {
            report.fail("path-census: " + std::to_string(missing) + " missing and " +
                            std::to_string(disordered) + " out-of-order records",
                        missing + disordered);
        }
        report.check(probed_hop_set,
                     "path-census: stream_paths records name exactly the collapsed hop set");
        report.check(stats.paths_considered > 0, "path-census: some path analysed");
        if (!reference) {
            reference = output;
        } else if (output.csv_digest != reference->csv_digest ||
                   output.accuracy != reference->accuracy ||
                   output.coverage != reference->coverage) {
            report.fail("path-census: CSV digest " + hex(output.csv_digest) + " != " +
                            hex(reference->csv_digest) + (timed ? " (traced)" : ""),
                        it.targets);
        }
        (timed ? traced : untraced).push_back(it);
    }

    std::cout << "path-census: " << untraced.size() + traced.size() << " censuses of "
              << reference->roster << " roster + " << reference->hops << " hop targets, CSV digest "
              << hex(last_digest) << '\n';
    if (args.trace) {
        report_census_layers(report, traced, untraced.front().targets_per_s());
        report.metric("core.build_db_ms", median(build_db_ms), "ms");
        report.metric("core.classify_ns_per_record", median(classify_ns), "ns");
        report.metric("analysis.discover_ms", median(discover_ms), "ms");
        report.metric("analysis.dedup_ratio", median(dedup), "ratio");
        report.metric("analysis.path_stats_ms", median(path_stats_ms), "ms");
    } else {
        report_census_e2e(report, untraced);
        report.metric("path_accuracy", reference->accuracy, "ratio");
        report.metric("path_coverage", reference->coverage, "ratio");
    }
    return 0;
}

}  // namespace lfpbench

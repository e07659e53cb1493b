// Path-census tests: TracerouteSynthesizer property sweep (per-flow
// determinism, valley-free hop sequences, noise fractions, no self-hops),
// PathTargets dedup/provenance semantics (a shared router interface is
// probed once and credited to every path), byte-identity of the path
// census across vantage counts — including under a wedged lane with
// watchdog requeue — measured-vs-ground-truth agreement, the lfp_majority
// SNMP-fallback regression, the LFP_PATH_* config surface, and the
// PATHCENSUS / PATH @<index> wire verbs.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/path_census.hpp"
#include "core/census.hpp"
#include "io/csv_export.hpp"
#include "probe/sim_transport.hpp"
#include "serve/query.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "sim/faults.hpp"
#include "sim/internet.hpp"
#include "sim/topology.hpp"
#include "sim/traceroute.hpp"

namespace lfp {
namespace {

using namespace std::chrono_literals;

/// Scoped environment override (restores the previous value on destruction).
class ScopedEnv {
  public:
    ScopedEnv(const char* name, const char* value) : name_(name) {
        const char* previous = std::getenv(name);
        if (previous != nullptr) saved_ = previous;
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() {
        if (saved_) {
            ::setenv(name_, saved_->c_str(), 1);
        } else {
            ::unsetenv(name_);
        }
    }
    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

  private:
    const char* name_;
    std::optional<std::string> saved_;
};

/// A deterministic world rebuilt from fixed seeds; loss defaults to zero so
/// byte-identity comparisons see every response.
struct PathWorld {
    explicit PathWorld(double loss = 0.0)
        : topology(sim::Topology::build({.seed = 77,
                                         .num_ases = 120,
                                         .tier1_count = 4,
                                         .transit_fraction = 0.2,
                                         .scale = 0.5})),
          internet(topology, {.seed = 13, .loss_rate = loss}) {}

    sim::Topology topology;
    sim::Internet internet;
};

analysis::PathCensusConfig small_sweep() {
    analysis::PathCensusConfig config;
    config.sources = 3;
    config.destinations = 12;
    config.flows_per_pair = 1;
    return config;
}

/// Collapses a trace's hops to the AS sequence of the routers they resolve
/// to (noise hops — private or phantom — resolve to no router and drop
/// out), merging consecutive duplicates.
std::vector<std::uint32_t> hop_as_sequence(const sim::Topology& topology,
                                           const sim::Traceroute& trace) {
    std::vector<std::uint32_t> sequence;
    for (const net::IPv4Address hop : trace.hops) {
        const std::size_t index = topology.find_by_interface(hop);
        if (index == sim::Topology::npos) continue;
        const std::uint32_t asn = topology.asn_of(index);
        if (sequence.empty() || sequence.back() != asn) sequence.push_back(asn);
    }
    return sequence;
}

/// Valley-free check (Gao-Rexford): an AS path must look like
/// up* (peer)? down* — once a peer or customer (down) edge is taken, no
/// provider (up) or peer edge may follow.
bool valley_free(const sim::AsGraph& graph, const std::vector<std::uint32_t>& path) {
    bool descending = false;  // true once a peer or down edge was taken
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const sim::AsNode& from = graph.node(path[i]);
        const std::uint32_t to = path[i + 1];
        const bool up = std::find(from.providers.begin(), from.providers.end(), to) !=
                        from.providers.end();
        const bool down = std::find(from.customers.begin(), from.customers.end(), to) !=
                          from.customers.end();
        const bool peer = std::find(from.peers.begin(), from.peers.end(), to) !=
                          from.peers.end();
        if (!up && !down && !peer) return false;  // not even adjacent
        if (descending && (up || peer)) return false;
        if (peer || down) descending = true;
    }
    return true;
}

/// Transport decorator counting probe packets per destination address
/// (IPv4 header bytes 16–19); everything else forwards to the inner
/// transport, including backend_hint so alias grouping still works.
class CountingTransport final : public probe::ProbeTransport {
  public:
    explicit CountingTransport(probe::ProbeTransport& inner) : inner_(&inner) {}

    void send_batch(std::span<const net::Bytes> packets) override {
        for (const net::Bytes& packet : packets) {
            if (packet.size() < 20) continue;
            const std::uint32_t destination =
                (static_cast<std::uint32_t>(packet[16]) << 24) |
                (static_cast<std::uint32_t>(packet[17]) << 16) |
                (static_cast<std::uint32_t>(packet[18]) << 8) |
                static_cast<std::uint32_t>(packet[19]);
            ++counts_[net::IPv4Address(destination)];
        }
        inner_->send_batch(packets);
    }
    std::vector<net::Bytes> poll_responses(std::chrono::milliseconds timeout) override {
        return inner_->poll_responses(timeout);
    }
    [[nodiscard]] bool drained() const override { return inner_->drained(); }
    [[nodiscard]] net::IPv4Address vantage_address() const override {
        return inner_->vantage_address();
    }
    [[nodiscard]] std::chrono::milliseconds transact_timeout() const override {
        return inner_->transact_timeout();
    }
    [[nodiscard]] std::optional<std::uint64_t> backend_hint(
        net::IPv4Address target) const override {
        return inner_->backend_hint(target);
    }

    [[nodiscard]] std::uint64_t count(net::IPv4Address target) const {
        auto it = counts_.find(target);
        return it == counts_.end() ? 0 : it->second;
    }

  private:
    probe::ProbeTransport* inner_;
    std::unordered_map<net::IPv4Address, std::uint64_t> counts_;
};

// ------------------------------------------------------- TracerouteProperty

TEST(TracerouteProperty, SameFlowTripleYieldsIdenticalTrace) {
    PathWorld world;
    sim::TracerouteSynthesizer first(world.topology, 99);
    sim::TracerouteSynthesizer second(world.topology, 99);
    const auto& nodes = world.topology.graph().nodes();
    std::size_t compared = 0;
    for (std::size_t i = 0; i < nodes.size() && compared < 24; i += 7) {
        const std::uint32_t src = nodes[i].asn;
        const std::uint32_t dst = nodes[(i + 31) % nodes.size()].asn;
        for (std::uint64_t flow = 0; flow < 2; ++flow) {
            const auto a = first.trace(src, dst, flow);
            const auto b = second.trace(src, dst, flow);
            ASSERT_EQ(a.has_value(), b.has_value());
            if (!a) continue;
            EXPECT_EQ(a->hops, b->hops);
            EXPECT_EQ(a->source, b->source);
            EXPECT_EQ(a->destination, b->destination);
            // Replaying the triple on the *same* synthesizer must also
            // reproduce it (no hidden stream state).
            const auto replay = first.trace(src, dst, flow);
            ASSERT_TRUE(replay.has_value());
            EXPECT_EQ(replay->hops, a->hops);
            ++compared;
        }
    }
    EXPECT_GE(compared, 8u) << "world too small for the property sweep";
}

TEST(TracerouteProperty, EveryHopSequenceIsValleyFree) {
    PathWorld world;
    sim::TracerouteSynthesizer synthesizer(world.topology, 7);
    // Noise replaces a hop in place, so a noisy trace can lose an AS from
    // the resolved sequence entirely; the valley-free invariant is a
    // property of the routing, so assert it on noiseless traces.
    synthesizer.set_noise(0.0, 0.0);
    const auto& nodes = world.topology.graph().nodes();
    std::size_t checked = 0;
    for (std::size_t i = 0; i < nodes.size(); i += 3) {
        const std::uint32_t src = nodes[i].asn;
        const std::uint32_t dst = nodes[(i * 13 + 5) % nodes.size()].asn;
        const auto trace = synthesizer.trace(src, dst, 0);
        if (!trace) continue;
        const std::vector<std::uint32_t> sequence = hop_as_sequence(world.topology, *trace);
        EXPECT_TRUE(valley_free(world.topology.graph(), sequence))
            << "violation on " << src << " -> " << dst;
        ++checked;
    }
    EXPECT_GE(checked, 10u);
}

TEST(TracerouteProperty, NoiseFractionsHonoredWithinBounds) {
    PathWorld world;
    sim::TracerouteSynthesizer synthesizer(world.topology, 21);
    const double stale = 0.2;
    const double priv = 0.1;
    synthesizer.set_noise(stale, priv);
    std::size_t total = 0;
    std::size_t private_hops = 0;
    std::size_t phantom_hops = 0;
    const auto& nodes = world.topology.graph().nodes();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const auto trace =
            synthesizer.trace(nodes[i].asn, nodes[(i + 17) % nodes.size()].asn, 0);
        if (!trace) continue;
        for (const net::IPv4Address hop : trace->hops) {
            ++total;
            if (!hop.is_routable()) {
                ++private_hops;
            } else if (world.topology.find_by_interface(hop) == sim::Topology::npos) {
                ++phantom_hops;  // routable but bound to no router: stale
            }
        }
    }
    ASSERT_GE(total, 200u) << "not enough hops for a statistical bound";
    const double private_fraction = static_cast<double>(private_hops) /
                                    static_cast<double>(total);
    const double stale_fraction = static_cast<double>(phantom_hops) /
                                  static_cast<double>(total);
    EXPECT_NEAR(private_fraction, priv, 0.06);
    EXPECT_NEAR(stale_fraction, stale, 0.08);
}

TEST(TracerouteProperty, HopsNeverIncludeEndpoints) {
    PathWorld world;
    sim::TracerouteSynthesizer synthesizer(world.topology, 4);
    synthesizer.set_noise(0.1, 0.05);
    const auto& nodes = world.topology.graph().nodes();
    std::size_t checked = 0;
    for (std::size_t i = 0; i < nodes.size(); i += 2) {
        const auto trace =
            synthesizer.trace(nodes[i].asn, nodes[(i + 11) % nodes.size()].asn, 0);
        if (!trace) continue;
        for (const net::IPv4Address hop : trace->hops) {
            EXPECT_NE(hop, trace->destination)
                << "the targeted host must never appear as a hop";
            EXPECT_NE(hop, trace->source);
        }
        ++checked;
    }
    EXPECT_GE(checked, 10u);
}

// ------------------------------------------------------------- PathTargets

TEST(PathTargets, DedupProvenanceAndCounters) {
    const net::IPv4Address a(0x05010101);  // routable
    const net::IPv4Address b(0x05010102);
    const net::IPv4Address c(0x05010103);
    const net::IPv4Address private_hop(0x0A000001);  // 10.0.0.1
    const std::vector<std::vector<net::IPv4Address>> paths = {
        {a, b, private_hop, a},  // a repeats inside one path
        {b, c},
        {c, a},
    };
    const core::PathTargets targets = core::PathTargets::from_paths(paths);

    ASSERT_EQ(targets.targets.size(), 3u);
    EXPECT_EQ(targets.targets[0], a);  // first-appearance order
    EXPECT_EQ(targets.targets[1], b);
    EXPECT_EQ(targets.targets[2], c);

    EXPECT_EQ(targets.hops_listed, 8u);
    EXPECT_EQ(targets.unroutable_dropped, 1u);
    // a twice more (in-path repeat + path 2), b once, c once.
    EXPECT_EQ(targets.duplicates_collapsed, 4u);

    ASSERT_EQ(targets.provenance.size(), 3u);
    EXPECT_EQ(targets.provenance[0], (std::vector<std::uint32_t>{0, 2}));  // a: paths 0, 2
    EXPECT_EQ(targets.provenance[1], (std::vector<std::uint32_t>{0, 1}));  // b: paths 0, 1
    EXPECT_EQ(targets.provenance[2], (std::vector<std::uint32_t>{1, 2}));  // c: paths 1, 2
    EXPECT_EQ(targets.first_path, (std::vector<std::uint32_t>{0, 0, 1}));
}

TEST(PathTargets, SharedHopProbedOnceCreditedToEveryPath) {
    PathWorld world;
    probe::SimTransport inner(world.internet);
    CountingTransport transport(inner);

    // Three synthetic paths sharing one router interface; two more
    // interfaces are unique to one path each.
    const net::IPv4Address shared = world.topology.router(0).interfaces().front();
    const net::IPv4Address only_a = world.topology.router(1).interfaces().front();
    const net::IPv4Address only_b = world.topology.router(2).interfaces().front();
    const std::vector<std::vector<net::IPv4Address>> paths = {
        {shared, only_a},
        {shared, only_b},
        {shared},
    };

    core::CensusPlan plan;
    plan.vantages.push_back(&transport);
    plan.campaign.window = 8;
    core::CensusRunner runner(std::move(plan));
    core::CollectingSink sink("paths");
    runner.stream_paths(paths, {}, 1, sink);
    const core::Measurement measurement = sink.take();

    // One record per *distinct* interface, and the shared hop saw exactly
    // as many packets as a single-path hop — probed once, not three times.
    ASSERT_EQ(measurement.records.size(), 3u);
    EXPECT_GT(transport.count(shared), 0u);
    EXPECT_EQ(transport.count(shared), transport.count(only_a));
    EXPECT_EQ(transport.count(shared), transport.count(only_b));

    // ...while the provenance credits it to all three paths.
    const core::PathTargets& targets = runner.last_path_targets();
    ASSERT_EQ(targets.targets.size(), 3u);
    EXPECT_EQ(targets.targets[0], shared);
    EXPECT_EQ(targets.provenance[0], (std::vector<std::uint32_t>{0, 1, 2}));
    EXPECT_EQ(targets.provenance[1], (std::vector<std::uint32_t>{0}));
    EXPECT_EQ(targets.provenance[2], (std::vector<std::uint32_t>{1}));
}

TEST(PathTargets, MultiPassMergeNeverRegressesDuplicateHops) {
    // A lossy world probed with retries: the merged record of every target
    // must answer at least as much per protocol as the identical world's
    // single-pass record (strict-improvement merge; duplicate hops across
    // paths collapse to one global index, so retries can never double-count
    // or regress them).
    const analysis::PathCensusConfig config = small_sweep();

    auto run = [&config](std::size_t passes) {
        PathWorld world(0.25);
        probe::SimTransport transport(world.internet);
        core::CensusPlan plan;
        plan.vantages.push_back(&transport);
        plan.campaign.window = 8;
        core::CensusRunner runner(std::move(plan));
        const analysis::PathCensus census(world.topology, config);
        const analysis::PathDiscovery discovery = census.discover();
        core::CollectingSink sink("paths");
        runner.stream_paths(discovery.hop_lists(), discovery.trace_source, passes, sink);
        return sink.take();
    };

    const core::Measurement single = run(1);
    const core::Measurement multi = run(3);
    ASSERT_EQ(multi.records.size(), single.records.size());
    ASSERT_FALSE(multi.records.empty());
    for (std::size_t i = 0; i < multi.records.size(); ++i) {
        const std::uint16_t single_mask =
            core::probe_response_mask(single.records[i].probes);
        const std::uint16_t multi_mask = core::probe_response_mask(multi.records[i].probes);
        for (std::size_t protocol = 0; protocol < 3; ++protocol) {
            EXPECT_GE(core::mask_responses_for(multi_mask, protocol),
                      core::mask_responses_for(single_mask, protocol))
                << "record " << i << " protocol " << protocol
                << ": a retry pass regressed the merge";
        }
        EXPECT_GE(multi.records[i].snmp_vendor.has_value(),
                  single.records[i].snmp_vendor.has_value());
    }
}

// -------------------------------------------------------------- PathCensus

TEST(PathCensus, DiscoveryIsDeterministic) {
    PathWorld world;
    const analysis::PathCensus census(world.topology, small_sweep());
    const analysis::PathDiscovery first = census.discover();
    const analysis::PathDiscovery second = census.discover();
    EXPECT_EQ(first.sources, second.sources);
    EXPECT_EQ(first.destinations, second.destinations);
    EXPECT_EQ(first.trace_source, second.trace_source);
    ASSERT_EQ(first.traces.size(), second.traces.size());
    ASSERT_FALSE(first.traces.empty());
    for (std::size_t i = 0; i < first.traces.size(); ++i) {
        EXPECT_EQ(first.traces[i].hops, second.traces[i].hops);
    }
}

TEST(PathCensus, ByteIdenticalAcrossVantageCounts) {
    const analysis::PathCensusConfig config = small_sweep();

    struct Run {
        std::string csv;
        std::vector<net::IPv4Address> targets;
        std::vector<double> vendors_per_path;
    };
    auto run_at = [&config](std::size_t vantage_count) {
        PathWorld world;  // fresh stateful world per vantage count
        std::vector<std::unique_ptr<probe::SimTransport>> transports;
        core::CensusPlan plan;
        for (std::size_t lane = 0; lane < vantage_count; ++lane) {
            transports.push_back(std::make_unique<probe::SimTransport>(world.internet));
            plan.vantages.push_back(transports.back().get());
        }
        plan.campaign.window = 8;
        plan.passes = 2;
        core::CensusRunner runner(std::move(plan));
        const analysis::PathCensus census(world.topology, config);
        const analysis::PathCensusResult result = census.run(runner);
        Run out;
        std::ostringstream csv;
        io::export_measurement_csv(csv, result.measurement);
        out.csv = csv.str();
        out.targets = result.targets.targets;
        out.vendors_per_path =
            result.stats(world.topology, analysis::PathScope::all).vendors_per_path
                .sorted_samples();
        return out;
    };

    const Run v1 = run_at(1);
    ASSERT_FALSE(v1.targets.empty());
    for (const std::size_t count : {2u, 4u}) {
        const Run v = run_at(count);
        EXPECT_EQ(v.targets, v1.targets) << "V=" << count
                                         << ": the discovered target set moved";
        EXPECT_EQ(v.csv, v1.csv) << "V=" << count << ": measurement not byte-identical";
        EXPECT_EQ(v.vendors_per_path, v1.vendors_per_path) << "V=" << count;
    }
}

TEST(PathCensus, WedgedLaneRequeueKeepsPathCensusByteIdentical) {
    const analysis::PathCensusConfig config = small_sweep();

    // Reference: two healthy lanes.
    PathWorld reference_world;
    probe::SimTransport ref_lane0(reference_world.internet);
    probe::SimTransport ref_lane1(reference_world.internet);
    core::CensusPlan reference_plan;
    reference_plan.vantages = {&ref_lane0, &ref_lane1};
    reference_plan.campaign.window = 8;
    core::CensusRunner reference_runner(std::move(reference_plan));
    const analysis::PathCensus reference_census(reference_world.topology, config);
    const analysis::PathCensusResult reference = reference_census.run(reference_runner);

    // Faulted: lane 1 wedged from birth (sends swallowed before the
    // stateful inner transport), watchdog requeues onto the survivor.
    PathWorld world;
    probe::SimTransport lane0(world.internet);
    probe::SimTransport lane1_inner(world.internet);
    sim::FaultPlan wedge;
    wedge.wedge_after = 0;
    sim::FaultInjectingTransport lane1(lane1_inner, wedge);
    core::CensusPlan plan;
    plan.vantages = {&lane0, &lane1};
    plan.campaign.window = 8;
    plan.watchdog = 400ms;
    core::CensusRunner runner(std::move(plan));
    const analysis::PathCensus census(world.topology, config);
    const analysis::PathCensusResult supervised = census.run(runner);

    EXPECT_EQ(runner.lanes_recovered(), 1u);
    EXPECT_EQ(supervised.targets.targets, reference.targets.targets);
    EXPECT_EQ(supervised.measurement, reference.measurement)
        << "watchdog requeue must not change what a path census measures";

    std::ostringstream reference_csv;
    std::ostringstream supervised_csv;
    io::export_measurement_csv(reference_csv, reference.measurement);
    io::export_measurement_csv(supervised_csv, supervised.measurement);
    EXPECT_EQ(supervised_csv.str(), reference_csv.str());
}

TEST(PathCensus, MeasuredMapAgreesWithGroundTruth) {
    PathWorld world(0.02);
    probe::SimTransport transport(world.internet);
    core::CensusPlan plan;
    plan.vantages.push_back(&transport);
    plan.campaign.window = 8;
    plan.passes = 2;
    core::CensusRunner runner(std::move(plan));
    const analysis::PathCensus census(world.topology, small_sweep());
    const analysis::PathCensusResult result = census.run(runner);

    const analysis::VendorMap truth = census.ground_truth(result.targets);
    const analysis::PathAgreement agreement =
        analysis::PathCensus::agreement(result.vendors, truth, result.targets);
    EXPECT_GT(agreement.truth_known, 0u);
    EXPECT_GT(agreement.measured_known, 0u);
    EXPECT_GT(agreement.both_known, 0u);
    EXPECT_GE(agreement.accuracy(), 0.9)
        << "measured and oracle maps disagree on commonly-identified hops";

    // The §6 analyses run from the measured map: scope filtering and the
    // routable-hops denominator are map-independent, so the paths
    // considered must match the oracle's exactly.
    const analysis::PathStats measured_stats =
        result.stats(world.topology, analysis::PathScope::all);
    const analysis::PathAnalyzer truth_analyzer(world.topology, truth);
    const analysis::PathStats truth_stats =
        truth_analyzer.analyze(result.discovery.traces, analysis::PathScope::all, {});
    EXPECT_EQ(measured_stats.paths_considered, truth_stats.paths_considered);
    EXPECT_GT(measured_stats.paths_considered, 0u);
}

TEST(PathCensus, NoiseCountersSurfaceStaleAndPrivateHops) {
    PathWorld world;
    probe::SimTransport transport(world.internet);
    core::CensusPlan plan;
    plan.vantages.push_back(&transport);
    plan.campaign.window = 8;
    core::CensusRunner runner(std::move(plan));

    analysis::PathCensusConfig config = small_sweep();
    config.destinations = 20;
    config.stale_fraction = 0.15;
    config.private_fraction = 0.1;
    const analysis::PathCensus census(world.topology, config);
    const analysis::PathCensusResult result = census.run(runner);

    // Private hops are filtered before probing (address-level noise);
    // phantom hops survive the filter, get probed, and answer nothing in a
    // loss-free world (response-level noise).
    EXPECT_GT(result.targets.unroutable_dropped, 0u);
    EXPECT_GT(result.stale_unresponsive, 0u);
    for (const net::IPv4Address target : result.targets.targets) {
        EXPECT_TRUE(target.is_routable());
    }
}

// ------------------------------------------------------- PathCensusConfig

TEST(PathCensusConfig, EnvOverridesAndValidation) {
    {
        ScopedEnv sources("LFP_PATH_SOURCES", "3");
        ScopedEnv dests("LFP_PATH_DESTS", "9");
        ScopedEnv flows("LFP_PATH_FLOWS", "2");
        ScopedEnv stale("LFP_PATH_STALE", "0.25");
        ScopedEnv priv("LFP_PATH_PRIVATE", "0");
        const analysis::PathCensusConfig config = analysis::PathCensusConfig::from_env();
        EXPECT_EQ(config.sources, 3u);
        EXPECT_EQ(config.destinations, 9u);
        EXPECT_EQ(config.flows_per_pair, 2u);
        EXPECT_DOUBLE_EQ(config.stale_fraction, 0.25);
        EXPECT_DOUBLE_EQ(config.private_fraction, 0.0);
    }
    {
        ScopedEnv sources("LFP_PATH_SOURCES", "0");
        EXPECT_THROW((void)analysis::PathCensusConfig::from_env(), std::invalid_argument);
    }
    {
        ScopedEnv stale("LFP_PATH_STALE", "1.5");
        EXPECT_THROW((void)analysis::PathCensusConfig::from_env(), std::invalid_argument);
    }
    {
        ScopedEnv dests("LFP_PATH_DESTS", "not-a-number");
        EXPECT_THROW((void)analysis::PathCensusConfig::from_env(), std::invalid_argument);
    }
}

// ------------------------------------------ VendorMap measurement methods

TEST(VendorMapMeasurement, LfpMajorityKeepsSnmpLabeledNonUniqueTargets) {
    // Regression: a headline-mode classification leaves non-unique matches
    // vendorless; lfp_majority used to silently drop such targets even
    // when SNMP evidence named the vendor — knowing strictly less than
    // `combined` about an SNMP-labeled router.
    core::Measurement measurement;
    core::TargetRecord record;
    record.probes.target = net::IPv4Address(0x05020202);
    record.snmp_vendor = stack::Vendor::juniper;
    record.lfp.kind = core::MatchKind::non_unique;
    record.lfp.vendor = std::nullopt;  // headline mode: no majority verdict
    measurement.records.push_back(record);

    const auto majority = analysis::VendorMap::from_measurement(
        measurement, analysis::VendorMap::Method::lfp_majority);
    const auto looked_up = majority.lookup(record.probes.target);
    ASSERT_TRUE(looked_up.has_value());
    EXPECT_EQ(*looked_up, stack::Vendor::juniper);

    // Strict-LFP maps must still exclude it (no unique match), combined
    // must still include it — the fallback changes lfp_majority only.
    EXPECT_FALSE(analysis::VendorMap::from_measurement(measurement,
                                                       analysis::VendorMap::Method::lfp)
                     .lookup(record.probes.target)
                     .has_value());
    EXPECT_TRUE(analysis::VendorMap::from_measurement(measurement,
                                                      analysis::VendorMap::Method::combined)
                    .lookup(record.probes.target)
                    .has_value());
}

TEST(VendorMapMeasurement, LfpMajorityPrefersMajorityVerdictOverSnmp) {
    // When majority mode *did* stamp a vendor, that verdict wins — the
    // SNMP fallback fills gaps, it does not override the method.
    core::Measurement measurement;
    core::TargetRecord record;
    record.probes.target = net::IPv4Address(0x05020203);
    record.snmp_vendor = stack::Vendor::juniper;
    record.lfp.kind = core::MatchKind::non_unique;
    record.lfp.vendor = stack::Vendor::cisco;
    measurement.records.push_back(record);

    const auto majority = analysis::VendorMap::from_measurement(
        measurement, analysis::VendorMap::Method::lfp_majority);
    const auto looked_up = majority.lookup(record.probes.target);
    ASSERT_TRUE(looked_up.has_value());
    EXPECT_EQ(*looked_up, stack::Vendor::cisco);
}

// ------------------------------------------------------------ serve verbs

TEST(ServePathCensus, PathCensusVerbPublishesAndAnswersMeasuredPaths) {
    PathWorld world(0.02);
    auto transport = std::make_unique<probe::SimTransport>(world.internet);
    core::CensusPlan plan;
    plan.name = "serve";
    plan.vantages.push_back(transport.get());
    plan.campaign.window = 8;
    plan.passes = 2;

    serve::ServiceConfig config;
    config.name = "serve";
    config.run_immediately = false;
    sim::Topology* topology = &world.topology;
    config.paths = [topology]() {
        analysis::PathCensusConfig sweep = small_sweep();
        const analysis::PathCensus census(*topology, sweep);
        analysis::PathDiscovery discovery = census.discover();
        serve::PathSweep out;
        out.paths = discovery.hop_lists();
        out.path_lane = std::move(discovery.trace_source);
        return out;
    };

    serve::CensusService service(std::move(plan), config);
    const serve::QueryEngine engine(service.store());

    // Before any census: measured-path queries fail cleanly.
    EXPECT_EQ(serve::handle_request("PATH @0", service, engine).response.rfind("ERR", 0), 0u);

    const std::string census_response =
        serve::handle_request("PATHCENSUS", service, engine).response;
    ASSERT_EQ(census_response.rfind("OK version=1", 0), 0u) << census_response;
    EXPECT_NE(census_response.find(" paths="), std::string::npos);

    const auto snapshot = service.store().current();
    ASSERT_NE(snapshot, nullptr);
    ASSERT_FALSE(snapshot->paths().empty());
    EXPECT_FALSE(snapshot->records().empty());

    // PATH @0 answers hops + verdicts from the published snapshot.
    const std::string profile = serve::handle_request("PATH @0", service, engine).response;
    ASSERT_EQ(profile.rfind("OK version=1", 0), 0u) << profile;
    EXPECT_NE(profile.find("hops=" + std::to_string(snapshot->paths().front().size())),
              std::string::npos)
        << profile;

    // The engine answer matches querying the same hops explicitly.
    const auto direct = engine.path_profile(snapshot->paths().front());
    const auto measured = engine.measured_path(0);
    ASSERT_TRUE(measured.has_value());
    EXPECT_EQ(measured.value().known_hops, direct.known_hops);
    EXPECT_EQ(measured.value().identified_hops, direct.identified_hops);
    EXPECT_EQ(measured.value().combination, direct.combination);

    // Out-of-range and malformed indices fail cleanly.
    EXPECT_EQ(serve::handle_request("PATH @999999", service, engine).response.rfind("ERR", 0),
              0u);
    EXPECT_EQ(serve::handle_request("PATH @x", service, engine).response.rfind("ERR", 0), 0u);
}

TEST(ServePathCensus, PathCensusVerbWithoutSourceFailsCleanly) {
    PathWorld world;
    auto transport = std::make_unique<probe::SimTransport>(world.internet);
    core::CensusPlan plan;
    plan.name = "serve";
    plan.targets.push_back(world.topology.router(0).interfaces().front());
    plan.vantages.push_back(transport.get());
    plan.campaign.window = 8;

    serve::ServiceConfig config;
    config.run_immediately = false;
    serve::CensusService service(std::move(plan), config);
    const serve::QueryEngine engine(service.store());

    EXPECT_FALSE(service.has_path_source());
    const std::string response =
        serve::handle_request("PATHCENSUS", service, engine).response;
    EXPECT_EQ(response.rfind("ERR", 0), 0u) << response;

    // A plain census publishes a snapshot without measured paths.
    EXPECT_EQ(serve::handle_request("TRIGGER", service, engine).response, "OK version=1");
    EXPECT_EQ(serve::handle_request("PATH @0", service, engine).response.rfind("ERR", 0), 0u);
}

}  // namespace
}  // namespace lfp

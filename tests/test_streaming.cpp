// Tests for the streaming census engine: adaptive-window convergence under
// the sim's loss/rate-limit profiles (and its byte-neutrality — the AIMD
// trajectory must never change results), CensusRunner::stream_passes() vs
// the materialised measure_passes() on the RIPE-5 dataset, the record-sink chain vs
// the batch build_database/classify stages, backend-hint default lane
// grouping, and the SynchronousTransport poll contract.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/census.hpp"
#include "core/pipeline.hpp"
#include "core/record_sink.hpp"
#include "probe/campaign.hpp"
#include "probe/sim_transport.hpp"
#include "sim/datasets.hpp"
#include "sim/internet.hpp"

namespace lfp {
namespace {

/// Up to `per_router` interface IPs of every router plus phantom (dead)
/// addresses — alias interfaces and non-responders in one list.
std::vector<net::IPv4Address> world_targets(const sim::Topology& topology, std::size_t limit,
                                            std::size_t per_router = 1) {
    std::vector<net::IPv4Address> targets;
    for (std::size_t i = 0; i < topology.router_count() && targets.size() < limit; ++i) {
        const auto& interfaces = topology.router(i).interfaces();
        for (std::size_t k = 0;
             k < std::min(per_router, interfaces.size()) && targets.size() < limit; ++k) {
            targets.push_back(interfaces[k]);
        }
    }
    for (std::size_t i = 0; i < topology.phantom_addresses().size() && targets.size() < limit;
         ++i) {
        targets.push_back(topology.phantom_addresses()[i]);
    }
    return targets;
}

// ---------------------------------------------------------------------------
// Adaptive window
// ---------------------------------------------------------------------------

TEST(AdaptiveWindow, BacksOffUnderIcmpRateLimiting) {
    // A path that sustains far fewer ICMP answers than a full window emits:
    // the engine must observe source-quench advisories and shrink the
    // in-flight window below its ceiling.
    sim::Topology topology = sim::Topology::build(
        {.seed = 51, .num_ases = 120, .tier1_count = 6, .transit_fraction = 0.2, .scale = 0.6});
    sim::Internet internet(topology, {.seed = 9,
                                      .loss_rate = 0.0,
                                      .icmp_rate_limit_per_sec = 400.0,
                                      .icmp_rate_limit_burst = 16.0});
    probe::SimTransport transport(
        internet, probe::SimTransport::Options{.rtt = std::chrono::microseconds(500)});
    probe::Campaign campaign(transport,
                             {.window = 64,
                              .adaptive_window = true,
                              .response_timeout = std::chrono::milliseconds(250)});

    const auto targets = world_targets(topology, 250);
    const auto results = campaign.run(targets);

    ASSERT_EQ(results.size(), targets.size());
    EXPECT_GT(internet.responses_rate_limited(), 0u);
    EXPECT_GT(campaign.rate_limit_signals(), 0u);
    EXPECT_GT(campaign.window_decreases(), 0u);
    EXPECT_LT(campaign.current_window(), 64u)
        << "the window must converge below the ceiling while the path quenches";
    // TCP RSTs and SNMP answers are not ICMP and pass the rate limiter, so
    // router-backed targets still respond — just not on the quenched slots.
    // (The list is padded with phantom addresses, hence the loose bound.)
    std::size_t responsive = 0;
    for (const auto& result : results) {
        if (result.any_response()) ++responsive;
    }
    EXPECT_GT(responsive, results.size() / 3);
}

TEST(AdaptiveWindow, GrowsBackToCeilingOnCleanPaths) {
    // Loss-free, quench-free world: the controller must never decrease, and
    // the window must sit at the ceiling.
    sim::Topology topology = sim::Topology::build(
        {.seed = 52, .num_ases = 80, .tier1_count = 5, .transit_fraction = 0.2, .scale = 0.5});
    sim::Internet internet(topology, {.seed = 4, .loss_rate = 0.0});
    probe::SimTransport transport(
        internet, probe::SimTransport::Options{.rtt = std::chrono::microseconds(200)});
    probe::Campaign campaign(transport, {.window = 32, .adaptive_window = true});

    const auto results = campaign.run(world_targets(topology, 150));
    ASSERT_EQ(results.size(), 150u);
    EXPECT_EQ(campaign.rate_limit_signals(), 0u);
    EXPECT_EQ(campaign.window_decreases(), 0u);
    EXPECT_EQ(campaign.current_window(), 32u);
}

TEST(AdaptiveWindow, FixedModeObservesButIgnoresSignals) {
    sim::Topology topology = sim::Topology::build(
        {.seed = 51, .num_ases = 120, .tier1_count = 6, .transit_fraction = 0.2, .scale = 0.6});
    sim::Internet internet(topology, {.seed = 9,
                                      .loss_rate = 0.0,
                                      .icmp_rate_limit_per_sec = 400.0,
                                      .icmp_rate_limit_burst = 16.0});
    probe::SimTransport transport(
        internet, probe::SimTransport::Options{.rtt = std::chrono::microseconds(500)});
    probe::Campaign campaign(transport,
                             {.window = 64,
                              .adaptive_window = false,
                              .response_timeout = std::chrono::milliseconds(250)});

    const auto results = campaign.run(world_targets(topology, 200));
    ASSERT_EQ(results.size(), 200u);
    EXPECT_GT(campaign.rate_limit_signals(), 0u) << "quenches are still counted";
    EXPECT_EQ(campaign.window_decreases(), 0u) << "but never acted upon";
    EXPECT_EQ(campaign.current_window(), 64u);
}

TEST(AdaptiveWindow, TrajectoryNeverChangesResults) {
    // Under deterministic loss + jitter (rate limiting off), an adaptive
    // run must stay byte-identical to the fixed serial run whatever window
    // trajectory the controller walked.
    const sim::TopologyConfig topo_config{
        .seed = 83, .num_ases = 120, .tier1_count = 6, .transit_fraction = 0.2, .scale = 0.6};
    const sim::InternetConfig net_config{.seed = 9, .loss_rate = 0.01};

    auto run_with = [&](std::size_t window, bool adaptive) {
        sim::Topology topology = sim::Topology::build(topo_config);
        sim::Internet internet(topology, net_config);
        probe::SimTransport transport(
            internet, probe::SimTransport::Options{.rtt = std::chrono::microseconds(200),
                                                   .jitter = 0.8});
        probe::Campaign campaign(transport,
                                 {.window = window,
                                  .adaptive_window = adaptive,
                                  .response_timeout = std::chrono::milliseconds(250)});
        return campaign.run(world_targets(topology, 160));
    };

    const auto serial = run_with(1, false);
    const auto adaptive = run_with(32, true);
    ASSERT_EQ(serial.size(), adaptive.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i], adaptive[i]) << "target " << i;
    }
}

// ---------------------------------------------------------------------------
// Streaming engine and record sinks
// ---------------------------------------------------------------------------

TEST(Streaming, CampaignEmitsInInputOrderAndMatchesRunIndexed) {
    const sim::TopologyConfig topo_config{
        .seed = 19, .num_ases = 80, .tier1_count = 5, .transit_fraction = 0.2, .scale = 0.5};

    auto make_world = [&] {
        auto topology = std::make_unique<sim::Topology>(sim::Topology::build(topo_config));
        auto internet =
            std::make_unique<sim::Internet>(*topology, sim::InternetConfig{.seed = 3,
                                                                           .loss_rate = 0.005});
        return std::pair(std::move(topology), std::move(internet));
    };

    auto [topo_a, net_a] = make_world();
    probe::SimTransport transport_a(
        *net_a, probe::SimTransport::Options{.rtt = std::chrono::microseconds(200),
                                             .jitter = 0.5});
    probe::Campaign campaign_a(transport_a, {.window = 16});
    const auto targets = world_targets(*topo_a, 120);
    const auto batch = campaign_a.run_indexed(targets, {});

    auto [topo_b, net_b] = make_world();
    probe::SimTransport transport_b(
        *net_b, probe::SimTransport::Options{.rtt = std::chrono::microseconds(200),
                                             .jitter = 0.5});
    probe::Campaign campaign_b(transport_b, {.window = 16});
    std::vector<probe::TargetProbeResult> streamed;
    std::size_t expected_index = 0;
    campaign_b.run_streaming(targets, {},
                             [&](std::size_t index, probe::TargetProbeResult&& result) {
                                 EXPECT_EQ(index, expected_index++)
                                     << "emission order must be input order";
                                 streamed.push_back(std::move(result));
                                 return true;
                             });

    ASSERT_EQ(streamed.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(batch[i], streamed[i]) << "target " << i;
    }
}

TEST(Streaming, EmitCancellationStopsTheRunPromptly) {
    // emit returning false must cancel the campaign: no further emissions,
    // and the remaining targets are never admitted (their probes unsent).
    sim::Topology topology = sim::Topology::build(
        {.seed = 19, .num_ases = 80, .tier1_count = 5, .transit_fraction = 0.2, .scale = 0.5});
    sim::Internet internet(topology, {.seed = 3, .loss_rate = 0.0});
    probe::SimTransport transport(internet);
    probe::Campaign campaign(transport, {.window = 4});

    const auto targets = world_targets(topology, 100);
    ASSERT_EQ(targets.size(), 100u);
    std::size_t emitted = 0;
    campaign.run_streaming(targets, {},
                           [&](std::size_t, probe::TargetProbeResult&&) {
                               ++emitted;
                               return emitted < 5;  // cancel on the fifth record
                           });
    EXPECT_EQ(emitted, 5u);
    EXPECT_LT(campaign.packets_sent(), targets.size() * 10)
        << "cancellation must stop admission, not probe the whole list";
}

namespace {
/// Throws once the stream reaches its fuse — the failing-consumer case.
class FusedSink final : public core::RecordSink {
  public:
    explicit FusedSink(std::size_t fuse) : fuse_(fuse) {}
    void accept(std::uint64_t, core::TargetRecord&&) override {
        if (++accepted_ >= fuse_) throw std::runtime_error("sink fuse blown");
    }
    [[nodiscard]] std::size_t accepted() const noexcept { return accepted_; }

  private:
    std::size_t fuse_;
    std::size_t accepted_ = 0;
};
}  // namespace

TEST(Streaming, SinkFailurePropagatesAndCancelsLanes) {
    sim::Topology topology = sim::Topology::build(
        {.seed = 19, .num_ases = 80, .tier1_count = 5, .transit_fraction = 0.2, .scale = 0.5});
    sim::Internet internet(topology, {.seed = 3, .loss_rate = 0.0});
    std::vector<std::unique_ptr<probe::SimTransport>> transports;
    for (std::size_t v = 0; v < 2; ++v) {
        transports.push_back(std::make_unique<probe::SimTransport>(internet));
    }
    core::CensusPlan plan;
    for (const auto& transport : transports) plan.vantages.push_back(transport.get());
    plan.campaign.window = 8;
    plan.shard_grain = 4;
    core::CensusRunner runner(std::move(plan));

    const auto targets = world_targets(topology, 120);
    FusedSink sink(3);
    EXPECT_THROW(runner.stream_passes(targets, {}, 1, sink), std::runtime_error);
    EXPECT_EQ(sink.accepted(), 3u);
}

TEST(Streaming, StreamMatchesMaterialisedMeasureOnRipe5) {
    // The acceptance scenario: the RIPE-5 snapshot streamed through a
    // 4-vantage CensusRunner into a CollectingSink must equal both the
    // materialised 4-vantage measure_passes() and the single-vantage serial
    // run.
    const sim::TopologyConfig topo_config{
        .seed = 23, .num_ases = 300, .tier1_count = 8, .transit_fraction = 0.18, .scale = 0.5};
    const sim::Topology reference = sim::Topology::build(topo_config);
    sim::DatasetConfig dataset_config;
    dataset_config.seed = 0xDA7A;
    dataset_config.traces_per_snapshot = 4000;
    const auto snapshots = sim::DatasetBuilder(reference, dataset_config).ripe_snapshots();
    ASSERT_EQ(snapshots.back().name, "RIPE-5");
    const auto targets = snapshots.back().router_ips();
    ASSERT_GT(targets.size(), 500u);

    auto plan_with = [&](sim::Internet& internet,
                         std::vector<std::unique_ptr<probe::SimTransport>>& transports,
                         std::size_t vantage_count, std::size_t window) {
        for (std::size_t v = 0; v < vantage_count; ++v) {
            transports.push_back(std::make_unique<probe::SimTransport>(internet));
        }
        core::CensusPlan plan;
        plan.name = "RIPE-5";
        for (const auto& transport : transports) plan.vantages.push_back(transport.get());
        plan.campaign.window = window;
        return plan;
    };

    auto measured = [&](std::size_t vantage_count, std::size_t window) {
        sim::Topology topology = sim::Topology::build(topo_config);
        sim::Internet internet(topology, {.seed = 31, .loss_rate = 0.004});
        std::vector<std::unique_ptr<probe::SimTransport>> transports;
        core::CensusRunner runner(plan_with(internet, transports, vantage_count, window));
        return runner.measure_passes("RIPE-5", targets, {}, 1);
    };

    auto streamed = [&](std::size_t vantage_count, std::size_t window) {
        sim::Topology topology = sim::Topology::build(topo_config);
        sim::Internet internet(topology, {.seed = 31, .loss_rate = 0.004});
        std::vector<std::unique_ptr<probe::SimTransport>> transports;
        core::CensusRunner runner(plan_with(internet, transports, vantage_count, window));
        core::CollectingSink sink("RIPE-5");
        runner.stream_passes(targets, {}, 1, sink);
        return sink.take();
    };

    const auto serial_materialised = measured(1, 1);
    const auto four_lane_streamed = streamed(4, 32);
    const auto four_lane_materialised = measured(4, 32);
    EXPECT_GT(serial_materialised.responsive_count(), serial_materialised.records.size() / 2);
    EXPECT_EQ(serial_materialised, four_lane_streamed);
    EXPECT_EQ(four_lane_materialised, four_lane_streamed);
}

TEST(Streaming, SinkChainMatchesBatchStages) {
    const sim::TopologyConfig topo_config{
        .seed = 13, .num_ases = 200, .tier1_count = 6, .transit_fraction = 0.2, .scale = 0.8};

    auto fresh_runner = [&](std::vector<std::unique_ptr<probe::SimTransport>>& transports,
                            std::unique_ptr<sim::Topology>& topology,
                            std::unique_ptr<sim::Internet>& internet) {
        topology = std::make_unique<sim::Topology>(sim::Topology::build(topo_config));
        internet = std::make_unique<sim::Internet>(
            *topology, sim::InternetConfig{.seed = 5, .loss_rate = 0.004});
        transports.push_back(std::make_unique<probe::SimTransport>(*internet));
        core::CensusPlan plan;
        plan.vantages = {transports.back().get()};
        plan.campaign.window = 32;
        return std::make_unique<core::CensusRunner>(std::move(plan));
    };

    // Batch reference: materialise, then build the database and classify.
    std::unique_ptr<sim::Topology> topo_a;
    std::unique_ptr<sim::Internet> net_a;
    std::vector<std::unique_ptr<probe::SimTransport>> transports_a;
    auto runner_a = fresh_runner(transports_a, topo_a, net_a);
    const auto targets = world_targets(*topo_a, 600);
    auto batch = runner_a->measure_passes("sink-chain", targets, {}, 1);
    const auto database =
        core::LfpPipeline::build_database({&batch, 1}, {.min_occurrences = 3});
    core::LfpPipeline::classify_measurement(batch, database);

    // Streaming: absorb signatures and classify per record as the census
    // runs, collecting the classified measurement at the chain's tail.
    std::unique_ptr<sim::Topology> topo_b;
    std::unique_ptr<sim::Internet> net_b;
    std::vector<std::unique_ptr<probe::SimTransport>> transports_b;
    auto runner_b = fresh_runner(transports_b, topo_b, net_b);
    core::SignatureDatabase streamed_db({.min_occurrences = 3});
    core::CollectingSink collect("sink-chain");
    core::ClassifySink classify(database, {}, &collect);
    core::SignatureAbsorbSink absorb(streamed_db, &classify);
    runner_b->stream_passes(targets, {}, 1, absorb);
    streamed_db.finalize();
    auto streamed = collect.take();

    EXPECT_EQ(batch, streamed)
        << "per-record classification must equal the sharded batch stage";
    EXPECT_TRUE(database.signatures() == streamed_db.signatures())
        << "per-record absorption must equal the sharded batch build";
    EXPECT_EQ(database.full_signature_counts().unique,
              streamed_db.full_signature_counts().unique);
}

TEST(Streaming, BackendHintGroupsAliasInterfacesByDefault) {
    // Alias interfaces of one stateful router, probed at 4 vantages with NO
    // explicit assignment: the transports' backend hints must pin aliases
    // to one lane, merging byte-identically with the serial run. (Before
    // backend_hint, this required a caller-built affinity assignment.)
    const sim::TopologyConfig topo_config{
        .seed = 7, .num_ases = 300, .tier1_count = 8, .transit_fraction = 0.18, .scale = 0.8};

    auto run_with = [&](std::size_t vantage_count, std::size_t window) {
        sim::Topology topology = sim::Topology::build(topo_config);
        sim::Internet internet(topology, {.seed = 11, .loss_rate = 0.004});
        std::vector<std::unique_ptr<probe::SimTransport>> transports;
        for (std::size_t v = 0; v < vantage_count; ++v) {
            transports.push_back(std::make_unique<probe::SimTransport>(
                internet, probe::SimTransport::Options{.rtt = std::chrono::microseconds(200),
                                                       .jitter = 0.8}));
        }
        core::CensusPlan plan;
        plan.name = "hint-grouping";
        for (const auto& transport : transports) plan.vantages.push_back(transport.get());
        plan.campaign.window = window;
        plan.campaign.response_timeout = std::chrono::milliseconds(250);
        // Two interfaces per router: the aliases round-robin would split.
        plan.targets = world_targets(topology, 600, 2);
        plan.worker_threads = 4;
        core::CensusRunner runner(std::move(plan));
        const core::CensusPlan& own = runner.plan();
        return runner.measure_passes(own.name, own.targets, own.assignment, 1);
    };

    const auto serial = run_with(1, 1);
    ASSERT_GT(serial.responsive_count(), serial.records.size() / 2);
    const auto four_lanes = run_with(4, 32);
    EXPECT_EQ(serial, four_lanes);
}

TEST(Streaming, SimTransportReportsGroundTruthHints) {
    sim::Topology topology = sim::Topology::build(
        {.seed = 29, .num_ases = 60, .tier1_count = 4, .transit_fraction = 0.2, .scale = 0.5});
    sim::Internet internet(topology, {.seed = 2});
    probe::SimTransport transport(internet);

    ASSERT_GT(topology.router_count(), 1u);
    const auto& interfaces = topology.router(1).interfaces();
    for (net::IPv4Address ip : interfaces) {
        const auto hint = transport.backend_hint(ip);
        ASSERT_TRUE(hint.has_value());
        EXPECT_EQ(hint.value(), 1u) << "alias interfaces share their router's index";
    }
    ASSERT_FALSE(topology.phantom_addresses().empty());
    EXPECT_FALSE(transport.backend_hint(topology.phantom_addresses().front()).has_value());
}

// ---------------------------------------------------------------------------
// SynchronousTransport poll contract
// ---------------------------------------------------------------------------

namespace {
class EchoBytesTransport final : public probe::SynchronousTransport {
  public:
    [[nodiscard]] net::IPv4Address vantage_address() const override {
        return net::IPv4Address::from_octets(192, 0, 2, 7);
    }

  protected:
    std::optional<net::Bytes> exchange(std::span<const std::uint8_t> packet) override {
        return net::Bytes(packet.begin(), packet.end());
    }
};
}  // namespace

TEST(Streaming, SynchronousTransportPollReturnsImmediatelyWhenDrained) {
    // The documented contract: every response materialises at send time, so
    // an empty queue is proof of drained() and poll_responses() may return
    // without consuming its timeout. A long timeout must cost nothing.
    EchoBytesTransport transport;
    EXPECT_TRUE(transport.drained());
    const auto start = std::chrono::steady_clock::now();
    const auto empty = transport.poll_responses(std::chrono::milliseconds(10'000));
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_TRUE(empty.empty());
    EXPECT_LT(elapsed, std::chrono::milliseconds(1'000))
        << "drained poll must not sleep out its timeout";

    const net::Bytes packet{1, 2, 3};
    transport.send_batch({&packet, 1});
    EXPECT_FALSE(transport.drained());
    const auto queued = transport.poll_responses(std::chrono::milliseconds(0));
    ASSERT_EQ(queued.size(), 1u);
    EXPECT_EQ(queued.front(), packet);
    EXPECT_TRUE(transport.drained());
}

}  // namespace
}  // namespace lfp

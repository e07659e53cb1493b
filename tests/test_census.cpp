// Tests for the vantage-aware CensusPlan/CensusRunner API: plan validation,
// affinity-grouped lane assignment, multi-vantage determinism (V ∈ {1,2,4}
// merged byte-identical under loss and jitter), the RIPE-5 four-vantage vs
// serial equivalence, and the sharded build_database / classify stages.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/census.hpp"
#include "core/pipeline.hpp"
#include "probe/sim_transport.hpp"
#include "sim/datasets.hpp"
#include "sim/internet.hpp"

namespace lfp::core {
namespace {

/// Never answers; probes vanish. Enough for ID-lane and validation tests.
class SilentTransport final : public probe::SynchronousTransport {
  public:
    [[nodiscard]] net::IPv4Address vantage_address() const override {
        return net::IPv4Address::from_octets(192, 0, 2, 7);
    }

  protected:
    std::optional<net::Bytes> exchange(std::span<const std::uint8_t>) override {
        return std::nullopt;
    }
};

/// Up to `per_router` interface IPs of every router (so alias interfaces of
/// one stateful router appear as distinct targets), padded with phantom
/// (dead) addresses — the worst case for lane partitioning.
std::vector<net::IPv4Address> world_targets(const sim::Topology& topology, std::size_t limit,
                                            std::size_t per_router = 2) {
    std::vector<net::IPv4Address> targets;
    for (std::size_t i = 0; i < topology.router_count() && targets.size() < limit; ++i) {
        const auto& interfaces = topology.router(i).interfaces();
        for (std::size_t k = 0; k < std::min(per_router, interfaces.size()) &&
                                targets.size() < limit;
             ++k) {
            targets.push_back(interfaces[k]);
        }
    }
    for (std::size_t i = 0; i < topology.phantom_addresses().size() && targets.size() < limit;
         ++i) {
        targets.push_back(topology.phantom_addresses()[i]);
    }
    return targets;
}

/// One pass over the plan's own name, target list and lane assignment.
Measurement run_plan(CensusRunner& runner) {
    const CensusPlan& plan = runner.plan();
    return runner.measure_passes(plan.name, plan.targets, plan.assignment, 1);
}

/// Router-affinity keys: alias interfaces share their router's key; unknown
/// addresses are independent singletons.
std::vector<std::uint64_t> affinity_keys(const sim::Topology& topology,
                                         const std::vector<net::IPv4Address>& targets) {
    std::vector<std::uint64_t> keys;
    keys.reserve(targets.size());
    for (net::IPv4Address ip : targets) {
        const std::size_t router = topology.find_by_interface(ip);
        keys.push_back(router != sim::Topology::npos ? static_cast<std::uint64_t>(router)
                                                     : 0x8000000000000000ULL | ip.value());
    }
    return keys;
}

TEST(CensusPlan, ValidationRejectsBadPlans) {
    CensusPlan plan;
    EXPECT_THROW(plan.validate(), std::invalid_argument);  // no vantages

    SilentTransport transport;
    plan.vantages = {&transport};
    plan.validate();  // minimal valid plan

    plan.vantages.push_back(nullptr);
    EXPECT_THROW(plan.validate(), std::invalid_argument);  // null transport
    plan.vantages.pop_back();

    plan.campaign.window = 0;
    EXPECT_THROW(plan.validate(), std::invalid_argument);  // serial is window=1, not 0
    plan.campaign.window = CensusPlan::kMaxWindow + 1;
    EXPECT_THROW(plan.validate(), std::invalid_argument);
    plan.campaign.window = 32;

    plan.worker_threads = CensusPlan::kMaxWorkers + 1;
    EXPECT_THROW(plan.validate(), std::invalid_argument);
    plan.worker_threads = 0;

    plan.shard_grain = 0;
    EXPECT_THROW(plan.validate(), std::invalid_argument);
    plan.shard_grain = 64;

    plan.targets = {net::IPv4Address::from_octets(10, 0, 0, 1),
                    net::IPv4Address::from_octets(10, 0, 0, 2)};
    plan.assignment = {0};
    EXPECT_THROW(plan.validate(), std::invalid_argument);  // size mismatch
    plan.assignment = {0, 7};
    EXPECT_THROW(plan.validate(), std::invalid_argument);  // lane out of range
    plan.assignment = {0, 0};
    plan.validate();
}

TEST(CensusPlan, ValidationErrorsNameTheKnob) {
    CensusPlan plan;
    try {
        plan.validate();
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find("vantage"), std::string::npos) << error.what();
    }
}

TEST(CensusPlan, AssignmentByAffinityGroupsEqualKeys) {
    const std::vector<std::uint64_t> keys{7, 3, 7, 9, 3, 7, 11};
    const auto assignment = CensusPlan::assignment_by_affinity(keys, 2);
    ASSERT_EQ(assignment.size(), keys.size());
    // Equal keys share a lane...
    EXPECT_EQ(assignment[0], assignment[2]);
    EXPECT_EQ(assignment[0], assignment[5]);
    EXPECT_EQ(assignment[1], assignment[4]);
    // ...and distinct groups are spread round-robin in first-appearance
    // order: 7 -> lane 0, 3 -> lane 1, 9 -> lane 0, 11 -> lane 1.
    EXPECT_EQ(assignment[0], 0u);
    EXPECT_EQ(assignment[1], 1u);
    EXPECT_EQ(assignment[3], 0u);
    EXPECT_EQ(assignment[6], 1u);
    // Every lane is within range.
    for (std::uint32_t lane : assignment) EXPECT_LT(lane, 2u);
}

TEST(CensusRunner, IdLanesDeriveFromGlobalIndex) {
    SilentTransport transport;
    CensusPlan plan;
    plan.vantages = {&transport};
    plan.campaign.ipid_base = 0x9000;
    CensusRunner runner(std::move(plan));

    const std::vector<net::IPv4Address> first{net::IPv4Address::from_octets(10, 0, 0, 1),
                                              net::IPv4Address::from_octets(10, 0, 0, 2)};
    const std::vector<net::IPv4Address> second{net::IPv4Address::from_octets(10, 0, 0, 3)};
    auto a = runner.measure_passes("first", first, {}, 1);
    auto b = runner.measure_passes("second", second, {}, 1);

    // Target i of the run carries ipid_base + (global index) * 10, and a
    // later measure_passes() continues the lane where the previous one stopped —
    // exactly like one long serial campaign.
    EXPECT_EQ(a.records[0].probes.probes[0][0].request_ipid, 0x9000);
    EXPECT_EQ(a.records[1].probes.probes[0][0].request_ipid, 0x9000 + 10);
    EXPECT_EQ(b.records[0].probes.probes[0][0].request_ipid, 0x9000 + 20);
}

TEST(CensusRunner, SingleVantageMatchesLfpPipeline) {
    const sim::TopologyConfig topo_config{
        .seed = 19, .num_ases = 80, .tier1_count = 5, .transit_fraction = 0.2, .scale = 0.5};

    auto census = [&] {
        sim::Topology topology = sim::Topology::build(topo_config);
        sim::Internet internet(topology, {.seed = 3, .loss_rate = 0.005});
        probe::SimTransport transport(internet);
        CensusPlan plan;
        plan.name = "equivalence";
        plan.vantages = {&transport};
        plan.campaign.window = 16;
        plan.targets = world_targets(topology, 150);
        CensusRunner runner(std::move(plan));
        return run_plan(runner);
    }();

    auto pipeline = [&] {
        sim::Topology topology = sim::Topology::build(topo_config);
        sim::Internet internet(topology, {.seed = 3, .loss_rate = 0.005});
        probe::SimTransport transport(internet);
        PipelineConfig config;
        config.campaign.window = 16;
        LfpPipeline pipe(transport, config);
        const auto targets = world_targets(topology, 150);
        return pipe.measure("equivalence", targets);
    }();

    EXPECT_EQ(census, pipeline);
}

TEST(CensusRunner, MultiVantageMergeIsByteIdenticalUnderLossAndJitter) {
    const sim::TopologyConfig topo_config{
        .seed = 7, .num_ases = 500, .tier1_count = 10, .transit_fraction = 0.18, .scale = 1.0};

    auto run_with = [&](std::size_t vantage_count, std::size_t window) {
        sim::Topology topology = sim::Topology::build(topo_config);
        sim::Internet internet(topology, {.seed = 11, .loss_rate = 0.004});
        std::vector<std::unique_ptr<probe::SimTransport>> transports;
        for (std::size_t v = 0; v < vantage_count; ++v) {
            transports.push_back(std::make_unique<probe::SimTransport>(
                internet, probe::SimTransport::Options{.rtt = std::chrono::microseconds(200),
                                                       .jitter = 0.8}));
        }
        CensusPlan plan;
        plan.name = "multi-vantage";
        for (const auto& transport : transports) plan.vantages.push_back(transport.get());
        plan.campaign.window = window;
        plan.campaign.response_timeout = std::chrono::milliseconds(250);
        plan.targets = world_targets(topology, 1000);
        plan.assignment =
            CensusPlan::assignment_by_affinity(affinity_keys(topology, plan.targets),
                                               vantage_count);
        plan.worker_threads = 4;
        CensusRunner runner(std::move(plan));
        return run_plan(runner);
    };

    const auto serial = run_with(1, 1);
    ASSERT_EQ(serial.records.size(), 1000u);
    // The equivalence only means something if the world talked back.
    EXPECT_GT(serial.responsive_count(), serial.records.size() / 2);

    const auto two_lanes = run_with(2, 16);
    const auto four_lanes = run_with(4, 32);
    EXPECT_EQ(serial, two_lanes);
    EXPECT_EQ(serial, four_lanes);
}

TEST(CensusRunner, DefaultAssignmentPinsDuplicateAddressesToOneLane) {
    // Duplicate targets share a backend router whose counters must see them
    // in serial order; the default (assignment-free) partition must group
    // them even though round-robin would split them across lanes.
    const sim::TopologyConfig topo_config{
        .seed = 29, .num_ases = 60, .tier1_count = 4, .transit_fraction = 0.2, .scale = 0.5};

    auto run_with = [&](std::size_t vantage_count, std::size_t window) {
        sim::Topology topology = sim::Topology::build(topo_config);
        sim::Internet internet(topology, {.seed = 2, .loss_rate = 0.0});
        std::vector<std::unique_ptr<probe::SimTransport>> transports;
        for (std::size_t v = 0; v < vantage_count; ++v) {
            transports.push_back(std::make_unique<probe::SimTransport>(internet));
        }
        CensusPlan plan;
        plan.name = "duplicates";
        for (const auto& transport : transports) plan.vantages.push_back(transport.get());
        plan.campaign.window = window;
        plan.targets = world_targets(topology, 8, 1);
        // The same address three times, at positions round-robin would
        // scatter over three different lanes.
        plan.targets.insert(plan.targets.begin() + 1, plan.targets.front());
        plan.targets.push_back(plan.targets.front());
        CensusRunner runner(std::move(plan));
        return run_plan(runner);
    };

    const auto serial = run_with(1, 1);
    const auto four_lanes = run_with(4, 8);
    ASSERT_GT(serial.responsive_count(), 0u);
    EXPECT_EQ(serial, four_lanes);
    // The copies observed the router's counters advance between visits.
    EXPECT_EQ(serial.records[0].probes.target, serial.records[1].probes.target);
    EXPECT_NE(serial.records[0].probes.probes[0][0].request_ipid,
              serial.records[1].probes.probes[0][0].request_ipid);
}

TEST(CensusRunner, Ripe5FourVantagesMatchSerialRun) {
    // The acceptance scenario: the RIPE-5 snapshot's router IPs (interface
    // aliases included), probed by a 4-vantage census, must merge to the
    // byte-identical Measurement of a single-vantage serial run.
    const sim::TopologyConfig topo_config{
        .seed = 23, .num_ases = 300, .tier1_count = 8, .transit_fraction = 0.18, .scale = 0.5};
    const sim::Topology reference = sim::Topology::build(topo_config);
    sim::DatasetConfig dataset_config;
    dataset_config.seed = 0xDA7A;
    dataset_config.traces_per_snapshot = 4000;
    const auto snapshots = sim::DatasetBuilder(reference, dataset_config).ripe_snapshots();
    const auto targets = snapshots.back().router_ips();
    ASSERT_EQ(snapshots.back().name, "RIPE-5");
    ASSERT_GT(targets.size(), 500u);

    auto run_with = [&](std::size_t vantage_count, std::size_t window) {
        sim::Topology topology = sim::Topology::build(topo_config);
        sim::Internet internet(topology, {.seed = 31, .loss_rate = 0.004});
        std::vector<std::unique_ptr<probe::SimTransport>> transports;
        for (std::size_t v = 0; v < vantage_count; ++v) {
            transports.push_back(std::make_unique<probe::SimTransport>(internet));
        }
        CensusPlan plan;
        plan.name = "RIPE-5";
        for (const auto& transport : transports) plan.vantages.push_back(transport.get());
        plan.campaign.window = window;
        plan.targets = targets;
        plan.assignment =
            CensusPlan::assignment_by_affinity(affinity_keys(topology, targets), vantage_count);
        CensusRunner runner(std::move(plan));
        return run_plan(runner);
    };

    const auto serial = run_with(1, 1);
    const auto four_lanes = run_with(4, 32);
    EXPECT_GT(serial.responsive_count(), serial.records.size() / 2);
    EXPECT_EQ(serial, four_lanes);
}

/// Fixture with one labeled measurement for the sharded-stage tests.
class ShardedStages : public ::testing::Test {
  protected:
    static const Measurement& measurement() {
        static const Measurement instance = [] {
            sim::Topology topology = sim::Topology::build({.seed = 13,
                                                           .num_ases = 200,
                                                           .tier1_count = 6,
                                                           .transit_fraction = 0.2,
                                                           .scale = 0.8});
            sim::Internet internet(topology, {.seed = 5, .loss_rate = 0.004});
            probe::SimTransport transport(internet);
            CensusPlan plan;
            plan.vantages = {&transport};
            plan.campaign.window = 32;
            plan.targets = world_targets(topology, 600, 1);
            CensusRunner runner(std::move(plan));
            return run_plan(runner);
        }();
        return instance;
    }
};

TEST_F(ShardedStages, BuildDatabaseIdenticalAtAnyWorkerCount) {
    const auto& m = measurement();
    const std::vector<Measurement> measurements{m, m, m};  // three "datasets"
    const SignatureDbConfig config{.min_occurrences = 3};

    const auto serial = LfpPipeline::build_database(measurements, config, 1);
    const auto four = LfpPipeline::build_database(measurements, config, 4);
    const auto hardware = LfpPipeline::build_database(measurements, config, 0);

    ASSERT_GT(serial.signatures().size(), 0u);
    EXPECT_TRUE(serial.signatures() == four.signatures());
    EXPECT_TRUE(serial.signatures() == hardware.signatures());
    EXPECT_EQ(serial.full_signature_counts().unique, four.full_signature_counts().unique);
    EXPECT_EQ(serial.full_signature_counts().non_unique,
              hardware.full_signature_counts().non_unique);
}

TEST_F(ShardedStages, ClassifyIdenticalAtAnyWorkerCount) {
    const auto& base = measurement();
    const std::vector<Measurement> corpus{base, base, base};
    const auto database = LfpPipeline::build_database(corpus, {.min_occurrences = 3});

    Measurement serial = base;
    LfpPipeline::classify_measurement(serial, database, {}, 1);
    std::size_t identified = 0;
    for (const auto& record : serial.records) {
        if (record.lfp.identified()) ++identified;
    }
    ASSERT_GT(identified, 0u) << "classification must label something for the test to bite";

    Measurement four = base;
    LfpPipeline::classify_measurement(four, database, {}, 4, 16);
    Measurement hardware = base;
    LfpPipeline::classify_measurement(hardware, database, {}, 0, 16);

    EXPECT_EQ(serial, four);
    EXPECT_EQ(serial, hardware);
}

}  // namespace
}  // namespace lfp::core

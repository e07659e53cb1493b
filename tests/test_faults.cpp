// Fault-injection harness tests: the FaultPlan knob surface, per-class
// decorator semantics over a scripted inner transport, seed-determinism of
// faulted runs, fuzz-style demux/parser survival under heavy corruption,
// census completion under send loss, and the CensusRunner watchdog — a
// wedged lane is torn down and its targets requeued onto the surviving
// lane with byte-identical merged output.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/experiment_world.hpp"
#include "core/census.hpp"
#include "io/csv_export.hpp"
#include "net/packet_builder.hpp"
#include "probe/sim_transport.hpp"
#include "sim/faults.hpp"
#include "sim/internet.hpp"
#include "sim/topology.hpp"

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

/// Scripted inner transport: records what reaches the wire, hands back
/// whatever the test queued. Satisfies the one-sender/one-receiver contract
/// trivially (tests drive it single-threaded).
class ScriptedTransport final : public probe::ProbeTransport {
  public:
    void send_batch(std::span<const net::Bytes> packets) override {
        sent.insert(sent.end(), packets.begin(), packets.end());
    }
    std::vector<net::Bytes> poll_responses(std::chrono::milliseconds) override {
        std::vector<net::Bytes> out = std::move(queued);
        queued.clear();
        return out;
    }
    [[nodiscard]] bool drained() const override { return queued.empty(); }
    [[nodiscard]] net::IPv4Address vantage_address() const override {
        return net::IPv4Address::from_octets(192, 0, 2, 7);
    }
    [[nodiscard]] std::chrono::milliseconds transact_timeout() const override { return 5ms; }

    std::vector<net::Bytes> sent;
    std::vector<net::Bytes> queued;
};

net::Bytes probe_packet(std::uint16_t id) {
    net::IpSendOptions ip;
    ip.source = net::IPv4Address::from_octets(192, 0, 2, 7);
    ip.destination = net::IPv4Address::from_octets(198, 51, 100, 2);
    ip.identification = id;
    return net::make_icmp_echo_request(ip, id, 1, net::Bytes(24, 0x55));
}

std::vector<net::Bytes> corpus(std::size_t count) {
    std::vector<net::Bytes> packets;
    for (std::size_t i = 0; i < count; ++i) {
        packets.push_back(probe_packet(static_cast<std::uint16_t>(1000 + i)));
    }
    return packets;
}

std::vector<net::IPv4Address> world_targets(const sim::Topology& topology, std::size_t limit) {
    std::vector<net::IPv4Address> targets;
    for (std::size_t i = 0; i < topology.router_count() && targets.size() < limit; ++i) {
        targets.push_back(topology.router(i).interfaces().front());
    }
    return targets;
}

/// A lossless deterministic world rebuilt from fixed seeds, so faulted and
/// clean runs differ only by the injected faults.
struct FaultWorld {
    FaultWorld()
        : topology(sim::Topology::build({.seed = 77,
                                         .num_ases = 120,
                                         .tier1_count = 4,
                                         .transit_fraction = 0.2,
                                         .scale = 0.5})),
          internet(topology, {.seed = 13, .loss_rate = 0.0}) {}

    sim::Topology topology;
    sim::Internet internet;
};

// ----------------------------------------------------------------- FaultPlan

TEST(FaultPlan, DefaultsInjectNothingAndValidate) {
    const sim::FaultPlan plan;
    EXPECT_FALSE(plan.any());
    plan.validate();

    sim::FaultPlan wedged;
    wedged.wedge_after = 0;
    EXPECT_TRUE(wedged.any());

    sim::FaultPlan corrupting;
    corrupting.corrupt_rate = 0.01;
    EXPECT_TRUE(corrupting.any());
}

TEST(FaultPlan, ValidateRejectsRatesOutsideUnitInterval) {
    sim::FaultPlan plan;
    plan.truncate_rate = 1.5;
    EXPECT_THROW(plan.validate(), std::invalid_argument);
    plan.truncate_rate = 0.0;
    plan.send_fail_rate = -0.1;
    EXPECT_THROW(plan.validate(), std::invalid_argument);
    plan.send_fail_rate = 1.0;  // inclusive bounds are legal
    plan.validate();

    // The decorator constructor enforces the same contract.
    ScriptedTransport inner;
    sim::FaultPlan bad;
    bad.duplicate_rate = 2.0;
    EXPECT_THROW(sim::FaultInjectingTransport(inner, bad), std::invalid_argument);
}

TEST(FaultPlan, FromEnvReadsEveryKnob) {
    ScopedEnv seed("LFP_FAULT_SEED", "99");
    ScopedEnv send("LFP_FAULT_SEND", "0.25");
    ScopedEnv truncate("LFP_FAULT_TRUNCATE", "0.1");
    ScopedEnv corrupt("LFP_FAULT_CORRUPT", "0.2");
    ScopedEnv duplicate("LFP_FAULT_DUPLICATE", "0.3");
    ScopedEnv reorder("LFP_FAULT_REORDER", "0.4");
    ScopedEnv stall("LFP_FAULT_STALL", "0.5");
    ScopedEnv wedge("LFP_FAULT_WEDGE_AFTER", "1234");
    const sim::FaultPlan plan = sim::FaultPlan::from_env();
    EXPECT_EQ(plan.seed, 99u);
    EXPECT_DOUBLE_EQ(plan.send_fail_rate, 0.25);
    EXPECT_DOUBLE_EQ(plan.truncate_rate, 0.1);
    EXPECT_DOUBLE_EQ(plan.corrupt_rate, 0.2);
    EXPECT_DOUBLE_EQ(plan.duplicate_rate, 0.3);
    EXPECT_DOUBLE_EQ(plan.reorder_rate, 0.4);
    EXPECT_DOUBLE_EQ(plan.stall_rate, 0.5);
    EXPECT_EQ(plan.wedge_after, 1234u);
    EXPECT_TRUE(plan.any());
}

TEST(FaultPlan, FromEnvRejectsGarbageNamingTheVariable) {
    {
        ScopedEnv send("LFP_FAULT_SEND", "often");
        try {
            (void)sim::FaultPlan::from_env();
            FAIL() << "expected std::invalid_argument";
        } catch (const std::invalid_argument& error) {
            EXPECT_NE(std::string(error.what()).find("LFP_FAULT_SEND"), std::string::npos)
                << error.what();
        }
    }
    {
        ScopedEnv wedge("LFP_FAULT_WEDGE_AFTER", "-3");
        EXPECT_THROW((void)sim::FaultPlan::from_env(), std::invalid_argument);
    }
    {
        ScopedEnv send("LFP_FAULT_SEND", "1.5");  // parses, fails validate()
        EXPECT_THROW((void)sim::FaultPlan::from_env(), std::invalid_argument);
    }
    // Defaults with a clean environment: inject nothing.
    EXPECT_FALSE(sim::FaultPlan::from_env().any());
}

// --------------------------------------------------- decorator fault classes

TEST(FaultInjection, CleanPlanIsATransparentPipe) {
    ScriptedTransport inner;
    sim::FaultInjectingTransport faulty(inner, {});
    const auto packets = corpus(16);
    faulty.send_batch(packets);
    EXPECT_EQ(inner.sent, packets);

    inner.queued = corpus(4);
    EXPECT_FALSE(faulty.drained());
    EXPECT_EQ(faulty.poll_responses(0ms), corpus(4));
    EXPECT_TRUE(faulty.drained());
    EXPECT_EQ(faulty.injected_total(), 0u);
    EXPECT_EQ(faulty.vantage_address(), inner.vantage_address());
    EXPECT_EQ(faulty.transact_timeout(), inner.transact_timeout());
}

TEST(FaultInjection, SendFailuresDropPacketsBeforeTheWire) {
    ScriptedTransport inner;
    sim::FaultPlan plan;
    plan.send_fail_rate = 1.0;
    sim::FaultInjectingTransport faulty(inner, plan);
    faulty.send_batch(corpus(20));
    EXPECT_TRUE(inner.sent.empty());
    EXPECT_EQ(faulty.send_faults(), 20u);
    EXPECT_EQ(faulty.injected_total(), 20u);

    // A partial rate drops a deterministic subset, in order.
    ScriptedTransport inner_half;
    plan.send_fail_rate = 0.5;
    sim::FaultInjectingTransport half(inner_half, plan);
    const auto packets = corpus(200);
    half.send_batch(packets);
    EXPECT_GT(half.send_faults(), 50u);
    EXPECT_LT(half.send_faults(), 150u);
    EXPECT_EQ(inner_half.sent.size() + half.send_faults(), packets.size());

    // Same plan, same packets => the identical subset survives.
    ScriptedTransport inner_again;
    sim::FaultInjectingTransport again(inner_again, plan);
    again.send_batch(packets);
    EXPECT_EQ(inner_again.sent, inner_half.sent);
}

TEST(FaultInjection, WedgeSwallowsSendsAndNeverDrains) {
    ScriptedTransport inner;
    sim::FaultPlan plan;
    plan.wedge_after = 0;  // wedged from birth
    sim::FaultInjectingTransport faulty(inner, plan);
    EXPECT_TRUE(faulty.wedged());
    faulty.send_batch(corpus(8));
    EXPECT_TRUE(inner.sent.empty()) << "a wedged lane must not touch the inner transport";
    EXPECT_EQ(faulty.swallowed_by_wedge(), 8u);

    inner.queued = corpus(2);  // even queued responses never surface
    EXPECT_TRUE(faulty.poll_responses(0ms).empty());
    EXPECT_FALSE(faulty.drained()) << "a wedged lane can never prove silence";
}

TEST(FaultInjection, WedgeAfterThresholdPassesTheEarlyPackets) {
    ScriptedTransport inner;
    sim::FaultPlan plan;
    plan.wedge_after = 5;
    sim::FaultInjectingTransport faulty(inner, plan);
    EXPECT_FALSE(faulty.wedged());
    faulty.send_batch(corpus(3));
    EXPECT_EQ(inner.sent.size(), 3u);
    EXPECT_FALSE(faulty.wedged());
    faulty.send_batch(corpus(4));  // packets 3,4 pass; 5,6 swallowed
    EXPECT_EQ(inner.sent.size(), 5u);
    EXPECT_TRUE(faulty.wedged());
    EXPECT_EQ(faulty.swallowed_by_wedge(), 2u);
}

TEST(FaultInjection, TruncationShortensDeterministically) {
    ScriptedTransport inner;
    sim::FaultPlan plan;
    plan.truncate_rate = 1.0;
    sim::FaultInjectingTransport faulty(inner, plan);
    const auto originals = corpus(12);
    inner.queued = originals;
    const auto delivered = faulty.poll_responses(0ms);
    ASSERT_EQ(delivered.size(), originals.size());
    EXPECT_EQ(faulty.truncated(), originals.size());
    for (std::size_t i = 0; i < delivered.size(); ++i) {
        EXPECT_LT(delivered[i].size(), originals[i].size()) << "packet " << i;
        // A truncation is a prefix cut, never a rewrite.
        EXPECT_TRUE(std::equal(delivered[i].begin(), delivered[i].end(),
                               originals[i].begin()))
            << "packet " << i;
    }
}

TEST(FaultInjection, CorruptionFlipsExactlyOneBit) {
    ScriptedTransport inner;
    sim::FaultPlan plan;
    plan.corrupt_rate = 1.0;
    sim::FaultInjectingTransport faulty(inner, plan);
    const auto originals = corpus(12);
    inner.queued = originals;
    const auto delivered = faulty.poll_responses(0ms);
    ASSERT_EQ(delivered.size(), originals.size());
    EXPECT_EQ(faulty.corrupted(), originals.size());
    for (std::size_t i = 0; i < delivered.size(); ++i) {
        ASSERT_EQ(delivered[i].size(), originals[i].size());
        int flipped_bits = 0;
        for (std::size_t b = 0; b < delivered[i].size(); ++b) {
            flipped_bits += __builtin_popcount(delivered[i][b] ^ originals[i][b]);
        }
        EXPECT_EQ(flipped_bits, 1) << "packet " << i;
    }
}

TEST(FaultInjection, DuplicationDeliversTheResponseTwice) {
    ScriptedTransport inner;
    sim::FaultPlan plan;
    plan.duplicate_rate = 1.0;
    sim::FaultInjectingTransport faulty(inner, plan);
    const auto originals = corpus(6);
    inner.queued = originals;
    const auto delivered = faulty.poll_responses(0ms);
    ASSERT_EQ(delivered.size(), originals.size() * 2);
    EXPECT_EQ(faulty.duplicated(), originals.size());
    for (std::size_t i = 0; i < originals.size(); ++i) {
        EXPECT_EQ(delivered[2 * i], originals[i]);
        EXPECT_EQ(delivered[2 * i + 1], originals[i]);
    }
}

TEST(FaultInjection, StallHoldsResponsesExactlyOnePollCycle) {
    ScriptedTransport inner;
    sim::FaultPlan plan;
    plan.stall_rate = 1.0;
    sim::FaultInjectingTransport faulty(inner, plan);
    const auto originals = corpus(5);
    inner.queued = originals;
    EXPECT_TRUE(faulty.poll_responses(0ms).empty());  // everything held back
    EXPECT_EQ(faulty.stalled(), originals.size());
    EXPECT_FALSE(faulty.drained()) << "held packets keep the pipe non-drained";
    EXPECT_EQ(faulty.poll_responses(0ms), originals);  // released next cycle
    EXPECT_TRUE(faulty.drained());
}

TEST(FaultInjection, ReorderingPermutesButNeverLosesResponses) {
    ScriptedTransport inner;
    sim::FaultPlan plan;
    plan.reorder_rate = 0.5;
    sim::FaultInjectingTransport faulty(inner, plan);
    const auto originals = corpus(64);
    inner.queued = originals;
    auto delivered = faulty.poll_responses(0ms);
    ASSERT_EQ(delivered.size(), originals.size());
    EXPECT_GT(faulty.reordered(), 10u);
    EXPECT_LT(faulty.reordered(), 54u);
    EXPECT_NE(delivered, originals) << "at rate 0.5 some packet must have moved";
    // Same multiset: reordering moves packets, it never drops or invents.
    auto sorted_delivered = delivered;
    auto sorted_originals = originals;
    std::sort(sorted_delivered.begin(), sorted_delivered.end());
    std::sort(sorted_originals.begin(), sorted_originals.end());
    EXPECT_EQ(sorted_delivered, sorted_originals);
}

// ------------------------------------------- fuzz: the engine under faults

TEST(FaultedCensus, HeavyCorruptionNeverCrashesAndCountsInjections) {
    // The demux/parser acceptance property: a census over a transport that
    // truncates, corrupts, duplicates, reorders, and stalls a third of all
    // traffic completes normally — damaged packets are dropped (parse) or
    // counted as strays (demux), duplicates are idempotent, and nothing
    // ever crashes or hangs.
    FaultWorld world;
    probe::SimTransport inner(world.internet);
    sim::FaultPlan plan;
    plan.truncate_rate = 0.3;
    plan.corrupt_rate = 0.3;
    plan.duplicate_rate = 0.3;
    plan.reorder_rate = 0.3;
    plan.stall_rate = 0.3;
    sim::FaultInjectingTransport faulty(inner, plan);

    core::CensusPlan census;
    census.vantages.push_back(&faulty);
    census.campaign.window = 16;
    core::CensusRunner runner(std::move(census));
    const auto targets = world_targets(world.topology, 200);
    const core::Measurement measurement = runner.measure_passes("faulted", targets, {}, 1);

    ASSERT_EQ(measurement.records.size(), targets.size());
    EXPECT_GT(faulty.truncated(), 0u);
    EXPECT_GT(faulty.corrupted(), 0u);
    EXPECT_GT(faulty.duplicated(), 0u);
    EXPECT_GT(faulty.reordered(), 0u);
    EXPECT_GT(faulty.stalled(), 0u);
    // Corruption breaks checksums, so damaged responses are dropped before
    // the demux: plenty of targets still answer on their surviving slots,
    // but with ~half of all responses damaged, almost no target completes a
    // full signature.
    EXPECT_GT(measurement.responsive_count(), 0u);
    std::size_t full = 0;
    for (const auto& record : measurement.records) {
        if (record.probes.all_protocols_responsive()) ++full;
    }
    EXPECT_LT(full, targets.size() / 2);
}

TEST(FaultedCensus, IdenticallySeededFaultedRunsAreByteIdentical) {
    sim::FaultPlan plan;
    plan.truncate_rate = 0.2;
    plan.corrupt_rate = 0.2;
    plan.duplicate_rate = 0.2;
    plan.send_fail_rate = 0.1;

    auto run_once = [&plan]() {
        FaultWorld world;
        probe::SimTransport inner(world.internet);
        sim::FaultInjectingTransport faulty(inner, plan);
        core::CensusPlan census;
        census.vantages.push_back(&faulty);
        census.campaign.window = 16;
        core::CensusRunner runner(std::move(census));
        return runner.measure_passes("faulted", world_targets(world.topology, 150), {}, 1);
    };
    const core::Measurement first = run_once();
    const core::Measurement second = run_once();
    EXPECT_EQ(first, second)
        << "fault decisions are pure functions of (seed, packet bytes): "
           "two identically seeded runs must agree byte for byte";
}

TEST(FaultedCensus, SendLossLowersCoverageButCompletes) {
    FaultWorld clean_world;
    probe::SimTransport clean_transport(clean_world.internet);
    core::CensusPlan clean_plan;
    clean_plan.vantages.push_back(&clean_transport);
    clean_plan.campaign.window = 16;
    core::CensusRunner clean_runner(std::move(clean_plan));
    const auto clean =
        clean_runner.measure_passes("clean", world_targets(clean_world.topology, 150), {}, 1);

    FaultWorld world;
    probe::SimTransport inner(world.internet);
    sim::FaultPlan plan;
    plan.send_fail_rate = 0.3;
    sim::FaultInjectingTransport faulty(inner, plan);
    core::CensusPlan census;
    census.vantages.push_back(&faulty);
    census.campaign.window = 16;
    core::CensusRunner runner(std::move(census));
    const auto lossy =
        runner.measure_passes("lossy", world_targets(world.topology, 150), {}, 1);

    EXPECT_GT(faulty.send_faults(), 0u);
    ASSERT_EQ(lossy.records.size(), clean.records.size());
    EXPECT_LT(lossy.responsive_count(), clean.responsive_count());
    EXPECT_GT(lossy.responsive_count(), 0u);
}

// ------------------------------------------------ watchdog + lane requeue

TEST(Watchdog, PlanValidationRejectsNegativeDeadline) {
    FaultWorld world;
    probe::SimTransport transport(world.internet);
    core::CensusPlan plan;
    plan.vantages.push_back(&transport);
    plan.watchdog = std::chrono::milliseconds(-5);
    EXPECT_THROW(core::CensusRunner{std::move(plan)}, std::invalid_argument);
}

TEST(Watchdog, WedgedLaneRequeuesOntoSurvivorByteIdentically) {
    const std::size_t target_count = 120;

    // Reference: two healthy lanes over a fresh world.
    FaultWorld reference_world;
    probe::SimTransport ref_lane0(reference_world.internet);
    probe::SimTransport ref_lane1(reference_world.internet);
    core::CensusPlan reference_plan;
    reference_plan.vantages = {&ref_lane0, &ref_lane1};
    reference_plan.campaign.window = 16;
    core::CensusRunner reference_runner(std::move(reference_plan));
    const auto reference = reference_runner.measure_passes(
        "census", world_targets(reference_world.topology, target_count), {}, 1);

    // Faulted: the same plan, lane 1 wedged from birth — it swallows its
    // sends before the (stateful) inner transport, so its targets' routers
    // are untouched and the survivor's re-probe is the first traffic they
    // see, exactly as in the reference run.
    FaultWorld world;
    probe::SimTransport lane0(world.internet);
    probe::SimTransport lane1_inner(world.internet);
    sim::FaultPlan wedge;
    wedge.wedge_after = 0;
    sim::FaultInjectingTransport lane1(lane1_inner, wedge);
    core::CensusPlan plan;
    plan.vantages = {&lane0, &lane1};
    plan.campaign.window = 16;
    plan.watchdog = 400ms;
    core::CensusRunner runner(std::move(plan));
    const auto supervised =
        runner.measure_passes("census", world_targets(world.topology, target_count), {}, 1);

    EXPECT_EQ(runner.lanes_recovered(), 1u);
    EXPECT_GT(lane1.swallowed_by_wedge(), 0u);
    ASSERT_EQ(supervised.records.size(), reference.records.size());
    EXPECT_EQ(supervised, reference)
        << "requeued targets carry their original global indices, so the "
           "merged stream must be byte-identical to the unfaulted run";

    // Belt and braces: the CSV artefact (the census's external contract).
    std::ostringstream reference_csv;
    std::ostringstream supervised_csv;
    io::export_measurement_csv(reference_csv, reference);
    io::export_measurement_csv(supervised_csv, supervised);
    EXPECT_EQ(supervised_csv.str(), reference_csv.str());
}

TEST(Watchdog, LastLaneWedgingThrowsInsteadOfSpinning) {
    FaultWorld world;
    probe::SimTransport inner(world.internet);
    sim::FaultPlan wedge;
    wedge.wedge_after = 0;
    sim::FaultInjectingTransport lane(inner, wedge);
    core::CensusPlan plan;
    plan.vantages.push_back(&lane);
    plan.campaign.window = 8;
    plan.watchdog = 200ms;
    core::CensusRunner runner(std::move(plan));
    try {
        (void)runner.measure_passes("census", world_targets(world.topology, 20), {}, 1);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string(error.what()).find("watchdog"), std::string::npos)
            << error.what();
    }
}

TEST(Watchdog, EnvKnobEnablesSupervisionWhenThePlanLeavesItZero) {
    ScopedEnv watchdog("LFP_WATCHDOG_MS", "400");
    FaultWorld world;
    probe::SimTransport lane0(world.internet);
    probe::SimTransport lane1_inner(world.internet);
    sim::FaultPlan wedge;
    wedge.wedge_after = 0;
    sim::FaultInjectingTransport lane1(lane1_inner, wedge);
    core::CensusPlan plan;
    plan.vantages = {&lane0, &lane1};
    plan.campaign.window = 16;  // plan.watchdog stays 0 — the env supplies it
    core::CensusRunner runner(std::move(plan));
    const auto measurement =
        runner.measure_passes("census", world_targets(world.topology, 60), {}, 1);
    EXPECT_EQ(runner.lanes_recovered(), 1u);
    EXPECT_EQ(measurement.records.size(), 60u);
}

TEST(Watchdog, UnparseableEnvKnobThrows) {
    ScopedEnv watchdog("LFP_WATCHDOG_MS", "soon");
    FaultWorld world;
    probe::SimTransport transport(world.internet);
    core::CensusPlan plan;
    plan.vantages.push_back(&transport);
    core::CensusRunner runner(std::move(plan));
    EXPECT_THROW((void)runner.measure_passes("census", world_targets(world.topology, 5), {}, 1),
                 std::invalid_argument);
}

// --------------------------------------------- world-level fault plumbing

TEST(WorldFaults, EnvKnobsReachTheWorldConfigAndWrapTransports) {
    {
        ScopedEnv corrupt("LFP_FAULT_CORRUPT", "0.15");
        const analysis::WorldConfig config = analysis::WorldConfig::from_env();
        EXPECT_DOUBLE_EQ(config.faults.corrupt_rate, 0.15);
        EXPECT_TRUE(config.faults.any());
    }
    {
        ScopedEnv corrupt("LFP_FAULT_CORRUPT", "7.0");
        EXPECT_THROW((void)analysis::WorldConfig::from_env(), std::invalid_argument);
    }

    // A faulted world wraps every vantage transport in the decorator and
    // still completes its full measurement campaign.
    analysis::WorldConfig config;
    config.seed = 91;
    config.num_ases = 80;
    config.scale = 0.3;
    config.traces_per_snapshot = 500;
    config.signature_min_occurrences = 3;
    config.faults.send_fail_rate = 0.05;
    config.faults.truncate_rate = 0.05;
    const auto world = analysis::ExperimentWorld::create(config);
    ASSERT_FALSE(world->fault_transports().empty());
    std::uint64_t injected = 0;
    for (const auto& transport : world->fault_transports()) {
        injected += transport->injected_total();
    }
    EXPECT_GT(injected, 0u) << "a faulted world that injected nothing is misconfigured";
    EXPECT_EQ(world->measurements().size(), 6u);

    // The healthy path stays undecorated: no wrappers, no overhead.
    analysis::WorldConfig clean = config;
    clean.faults = {};
    clean.num_ases = 40;
    clean.traces_per_snapshot = 200;
    const auto healthy = analysis::ExperimentWorld::create(clean);
    EXPECT_TRUE(healthy->fault_transports().empty());
}

}  // namespace
}  // namespace lfp

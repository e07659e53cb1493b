// Tests for the multi-pass retry scheduler and token-bucket send pacing:
// pass-N ID bases as pure functions of (pass, global index), byte-
// determinism of multi-pass runs, strict full-signature convergence on a
// lossy sim, the RetrySink predicate, pacing byte-neutrality (paced ==
// unpaced at any cap, including effectively-infinite), and the TokenBucket
// arithmetic itself under synthetic time.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/census.hpp"
#include "core/record_sink.hpp"
#include "probe/campaign.hpp"
#include "probe/sim_transport.hpp"
#include "sim/internet.hpp"
#include "sim/topology.hpp"
#include "snmp/snmpv3.hpp"
#include "util/token_bucket.hpp"

namespace lfp {
namespace {

std::vector<net::IPv4Address> world_targets(const sim::Topology& topology, std::size_t limit) {
    std::vector<net::IPv4Address> targets;
    for (std::size_t i = 0; i < topology.router_count() && targets.size() < limit; ++i) {
        targets.push_back(topology.router(i).interfaces().front());
    }
    return targets;
}

std::size_t full_signature_count(const core::Measurement& measurement) {
    std::size_t full = 0;
    for (const auto& record : measurement.records) {
        if (record.probes.all_protocols_responsive()) ++full;
    }
    return full;
}

/// A lossy world rebuilt from fixed seeds: per-packet-hash loss, so the
/// same packet bytes always draw the same fate and a pass under shifted
/// IPIDs draws fresh fates.
struct LossyWorld {
    explicit LossyWorld(double loss_rate)
        : topology(sim::Topology::build({.seed = 77,
                                         .num_ases = 200,
                                         .tier1_count = 6,
                                         .transit_fraction = 0.2,
                                         .scale = 0.6})),
          internet(topology, {.seed = 13, .loss_rate = loss_rate}) {}

    sim::Topology topology;
    sim::Internet internet;
};

/// A multi-pass CensusRunner over a LossyWorld, with its vantage transports
/// owned alongside it.
struct PassHarness {
    PassHarness(LossyWorld& world, std::size_t passes, std::size_t vantages = 1) {
        core::CensusPlan plan;
        for (std::size_t v = 0; v < vantages; ++v) {
            transports.push_back(std::make_unique<probe::SimTransport>(world.internet));
            plan.vantages.push_back(transports.back().get());
        }
        plan.campaign.window = 16;
        plan.passes = passes;
        runner = std::make_unique<core::CensusRunner>(std::move(plan));
    }

    std::vector<std::unique_ptr<probe::SimTransport>> transports;
    std::unique_ptr<core::CensusRunner> runner;
};

core::Measurement run_passes_over(LossyWorld& world, std::size_t passes,
                                  std::size_t vantages = 1) {
    PassHarness harness(world, passes, vantages);
    return harness.runner->measure_passes("multipass", world_targets(world.topology, 250), {},
                                          passes);
}

// ---------------------------------------------------------------------------
// Multi-pass retry scheduling
// ---------------------------------------------------------------------------

TEST(MultiPass, PassIdBasesArePureFunctionsOfPassAndGlobalIndex) {
    // Every record — whatever pass won it — must carry exactly the IPIDs
    // and msgID of (pass, global index): ipid_base + pass*stride + g*10
    // onward in send order. That is the determinism contract that makes a
    // multi-pass census replayable.
    LossyWorld world(0.03);
    auto measurement = run_passes_over(world, 3);

    const probe::Campaign::Config defaults;
    std::size_t retried_records = 0;
    for (std::size_t g = 0; g < measurement.records.size(); ++g) {
        const auto& record = measurement.records[g];
        if (record.pass > 0) ++retried_records;
        const auto expected_base = static_cast<std::uint16_t>(
            defaults.ipid_base + record.pass * core::CensusPlan::kPassIpidStride +
            g * 10);
        std::uint32_t send_index = 0;
        for (std::size_t round = 0; round < probe::kRoundsPerProtocol; ++round) {
            for (std::size_t p = 0; p < probe::kProtocolCount; ++p) {
                const auto& exchange = record.probes.probes[p][round];
                EXPECT_EQ(exchange.request_ipid,
                          static_cast<std::uint16_t>(expected_base + send_index))
                    << "target " << g << " pass " << record.pass << " slot " << send_index;
                ++send_index;
            }
        }
    }
    EXPECT_GT(retried_records, 0u)
        << "at 3% loss some records must have been won by a retry pass";
}

TEST(MultiPass, TwoPassRunIsByteDeterministic) {
    LossyWorld world_a(0.03);
    LossyWorld world_b(0.03);
    const auto first = run_passes_over(world_a, 2);
    const auto second = run_passes_over(world_b, 2);
    EXPECT_EQ(first, second) << "same seeds, same passes => byte-identical measurement";
}

TEST(MultiPass, ConvergesToStrictlyMoreFullSignaturesThanOnePass) {
    // The acceptance property: on a lossy sim, 2 passes complete strictly
    // more signatures than 1 pass over the identical target list.
    LossyWorld world_one(0.03);
    LossyWorld world_two(0.03);
    const auto one_pass = run_passes_over(world_one, 1);
    PassHarness harness_two(world_two, 2);
    const auto two_pass = harness_two.runner->measure_passes(
        "multipass", world_targets(world_two.topology, 250), {}, 2);

    ASSERT_EQ(one_pass.records.size(), two_pass.records.size());
    const std::size_t full_one = full_signature_count(one_pass);
    const std::size_t full_two = full_signature_count(two_pass);
    EXPECT_GT(full_two, full_one)
        << "a retry pass under fresh ID lanes must convert some partial "
           "signatures into full ones";

    const auto& stats = harness_two.runner->last_pass_stats();
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(stats[0].probed, one_pass.records.size());
    EXPECT_GT(stats[0].incomplete, 0u);
    EXPECT_EQ(stats[1].probed, stats[0].incomplete);
    EXPECT_GT(stats[1].upgraded, 0u);
    EXPECT_LT(stats[1].incomplete, stats[0].incomplete);

    // Records that pass 0 completed are untouched by the retry pass.
    for (std::size_t g = 0; g < one_pass.records.size(); ++g) {
        if (two_pass.records[g].pass == 0) {
            EXPECT_EQ(one_pass.records[g], two_pass.records[g]) << "target " << g;
        }
    }

    // The merge is monotone on every evidence axis: relative to the
    // identical-seed single-pass run (= this run's pass 0), a retried
    // record never has fewer answered rounds of *any* protocol and never
    // loses an SNMP answer it already had — sideways trades keep pass 0.
    for (std::size_t g = 0; g < one_pass.records.size(); ++g) {
        for (std::size_t p = 0; p < probe::kProtocolCount; ++p) {
            EXPECT_GE(two_pass.records[g].probes.responses_for(
                          static_cast<probe::ProtoIndex>(p)),
                      one_pass.records[g].probes.responses_for(
                          static_cast<probe::ProtoIndex>(p)))
                << "target " << g << " protocol " << p;
        }
        EXPECT_GE(two_pass.records[g].probes.snmp.has_value(),
                  one_pass.records[g].probes.snmp.has_value())
            << "target " << g;
    }
}

TEST(MultiPass, MeasurePassesDefaultsToPlanPassCount) {
    // Omitting the passes argument must honor the plan's configured count.
    LossyWorld world(0.03);
    PassHarness harness(world, 2);
    const auto measurement =
        harness.runner->measure_passes("plan-default", world_targets(world.topology, 250));
    EXPECT_EQ(measurement.records.size(), 250u);
    EXPECT_EQ(harness.runner->last_pass_stats().size(), 2u)
        << "plan.passes = 2 must drive two passes when the argument is omitted";
}

TEST(MultiPass, MultiVantageMultiPassMatchesSingleVantage) {
    // The pass loop must compose with vantage lanes: 4 lanes x 2 passes is
    // byte-identical to 1 lane x 2 passes (retry subsets re-group by
    // backend hint exactly like the primary pass).
    LossyWorld world_a(0.03);
    LossyWorld world_b(0.03);
    const auto one_lane = run_passes_over(world_a, 2);
    const auto four_lanes = run_passes_over(world_b, 2, 4);
    EXPECT_EQ(one_lane, four_lanes);
}

TEST(MultiPass, RetrySinkPredicate) {
    core::TargetRecord record;  // fully silent
    EXPECT_FALSE(core::RetrySink::incomplete(record));
    EXPECT_TRUE(core::RetrySink::incomplete(record, {.retry_silent = true}));

    // One ICMP answer, everything else silent: missing-protocol — retried
    // by default, opt-out for populations where protocol silence is policy.
    // (A single answered round is also partially_responsive on ICMP, so
    // silence the rest of the ICMP row to isolate the missing-protocol
    // case below.)
    record.probes.probes[0][0].response = net::Bytes{1};
    EXPECT_TRUE(core::RetrySink::incomplete(record));
    record.probes.probes[0][1].response = net::Bytes{1};
    record.probes.probes[0][2].response = net::Bytes{1};  // ICMP now full
    EXPECT_TRUE(core::RetrySink::incomplete(record));
    EXPECT_FALSE(core::RetrySink::incomplete(record, {.retry_missing_protocol = false}));

    // Loss-shaped intra-protocol gap: retried even with the opt-out.
    record.probes.probes[0][2].response.reset();
    EXPECT_TRUE(core::RetrySink::incomplete(record, {.retry_missing_protocol = false}));
    record.probes.probes[0][2].response = net::Bytes{1};
    record.probes.probes[0][1].response.reset();
    record.probes.probes[0][2].response.reset();

    // All nine probes answered: complete, never retried — unless the only
    // gap is the (independent) SNMP answer and the caller opted in to
    // chasing it.
    for (auto& row : record.probes.probes) {
        for (auto& exchange : row) exchange.response = net::Bytes{1};
    }
    EXPECT_FALSE(core::RetrySink::incomplete(record));
    EXPECT_FALSE(core::RetrySink::incomplete(record, {.retry_silent = true}));
    EXPECT_TRUE(core::RetrySink::incomplete(record, {.retry_missing_snmp = true}));
    record.probes.snmp = snmp::DiscoveryResponse{};
    EXPECT_FALSE(core::RetrySink::incomplete(record, {.retry_missing_snmp = true}));
    record.probes.snmp.reset();

    // Loss-shaped: one round of one protocol missing => retry.
    record.probes.probes[2][1].response.reset();
    EXPECT_TRUE(core::RetrySink::incomplete(record));
}

TEST(MultiPass, PlanValidationRejectsBadPassCounts) {
    sim::Topology topology = sim::Topology::build(
        {.seed = 5, .num_ases = 40, .tier1_count = 4, .transit_fraction = 0.2, .scale = 0.4});
    sim::Internet internet(topology, {.seed = 1});
    probe::SimTransport transport(internet);

    core::CensusPlan zero;
    zero.vantages = {&transport};
    zero.passes = 0;
    EXPECT_THROW(core::CensusRunner{std::move(zero)}, std::invalid_argument);

    core::CensusPlan absurd;
    absurd.vantages = {&transport};
    absurd.passes = core::CensusPlan::kMaxPasses + 1;
    EXPECT_THROW(core::CensusRunner{std::move(absurd)}, std::invalid_argument);

    core::CensusPlan negative_pps;
    negative_pps.vantages = {&transport};
    negative_pps.campaign.packets_per_second = -1.0;
    EXPECT_THROW(core::CensusRunner{std::move(negative_pps)}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Token-bucket pacing
// ---------------------------------------------------------------------------

TEST(Pacing, PacedRunIsByteIdenticalToUnpaced) {
    // Pacing only delays admissions; at an effectively infinite cap and at
    // a moderate finite cap the records must match the unpaced run byte
    // for byte.
    auto run_with = [](double pps) {
        LossyWorld world(0.01);
        probe::SimTransport transport(world.internet);
        probe::Campaign campaign(transport, {.window = 16, .packets_per_second = pps});
        return campaign.run(world_targets(world.topology, 120));
    };

    const auto unpaced = run_with(0.0);
    const auto effectively_infinite = run_with(1e12);
    const auto moderate = run_with(50'000.0);
    ASSERT_EQ(unpaced.size(), 120u);
    EXPECT_EQ(unpaced, effectively_infinite);
    EXPECT_EQ(unpaced, moderate);
}

TEST(Pacing, CapBoundsTheSendRate) {
    // 40 targets x 10 packets at 4000 pps with a 10-packet burst cannot
    // finish faster than (400 - 10) / 4000 ≈ 97 ms. Loose lower bound —
    // timing asserts only that pacing really throttled the sender.
    LossyWorld world(0.0);
    probe::SimTransport transport(world.internet);
    probe::Campaign campaign(transport, {.window = 16,
                                         .packets_per_second = 4000.0,
                                         .pacing_burst = 10.0});
    const auto targets = world_targets(world.topology, 40);
    const auto start = std::chrono::steady_clock::now();
    const auto results = campaign.run(targets);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_EQ(results.size(), 40u);
    EXPECT_GE(elapsed, std::chrono::milliseconds(50))
        << "a 4000 pps cap must stretch 400 packets beyond 50 ms";
}

TEST(Pacing, RejectsNegativeOrNanRates) {
    LossyWorld world(0.0);
    const auto targets = world_targets(world.topology, 4);
    {
        probe::SimTransport transport(world.internet);
        probe::Campaign campaign(transport, {.window = 4, .packets_per_second = -5.0});
        EXPECT_THROW(campaign.run(targets), std::invalid_argument);
    }
    {
        // NaN compares false to everything, so a naive `< 0` check would
        // silently run unpaced; the engine must reject it instead — even
        // on an empty run (the config is broken regardless of targets).
        probe::SimTransport transport(world.internet);
        probe::Campaign campaign(
            transport,
            {.window = 4, .packets_per_second = std::numeric_limits<double>::quiet_NaN()});
        EXPECT_THROW(campaign.run(targets), std::invalid_argument);
        EXPECT_THROW(campaign.run({}), std::invalid_argument);
    }
    {
        probe::SimTransport transport(world.internet);
        probe::Campaign campaign(
            transport,
            {.window = 4,
             .packets_per_second = 1000.0,
             .pacing_burst = std::numeric_limits<double>::quiet_NaN()});
        EXPECT_THROW(campaign.run(targets), std::invalid_argument);
    }
}

TEST(TokenBucket, SyntheticTimeArithmetic) {
    using Clock = util::TokenBucket::Clock;
    const Clock::time_point t0{};
    util::TokenBucket bucket(100.0, 10.0, t0);  // 100 tokens/sec, burst 10

    // Starts full: the opening burst passes, the 11th token does not.
    EXPECT_TRUE(bucket.try_acquire(10.0, t0));
    EXPECT_FALSE(bucket.try_acquire(1.0, t0));

    // 50 ms refills 5 tokens; 4 pass, then the bucket holds ~1.
    const auto t1 = t0 + std::chrono::milliseconds(50);
    EXPECT_TRUE(bucket.try_acquire(4.0, t1));
    EXPECT_FALSE(bucket.try_acquire(2.0, t1));
    EXPECT_NEAR(bucket.available(t1), 1.0, 1e-6);

    // Refill caps at the burst no matter how long the idle gap.
    const auto t2 = t1 + std::chrono::hours(1);
    EXPECT_NEAR(bucket.available(t2), 10.0, 1e-6);

    // A request larger than the burst is served from a full bucket rather
    // than deadlocking.
    EXPECT_TRUE(bucket.try_acquire(64.0, t2));
    EXPECT_NEAR(bucket.available(t2), 0.0, 1e-6);

    // Time never runs backwards for the bucket.
    EXPECT_FALSE(bucket.try_acquire(1.0, t0));
}

}  // namespace
}  // namespace lfp

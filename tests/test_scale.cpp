// Scale-engine acceptance tests: the spill-to-disk census path must be
// byte-equivalent to the in-memory path on a real multi-pass run
// (classifications, CSV export, signature database), the template-patched
// probe packets must be field-correct and checksum-valid, the probe hot
// path must run allocation-free in steady state, and a slow record
// consumer must not make the engine's threads burn cores busy-waiting.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sys/resource.h>
#endif

#include "core/census.hpp"
#include "core/record_sink.hpp"
#include "core/signature_db.hpp"
#include "io/csv_export.hpp"
#include "io/signature_store.hpp"
#include "net/packet_builder.hpp"
#include "sim/scale_world.hpp"

// ---- global allocation counter ------------------------------------------
// Binary-wide operator-new override (counting only, behaviour unchanged):
// the steady-state zero-allocation claim for the probe hot path is
// asserted as "the counter does not move between two emission points".
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lfp {
namespace {

std::vector<net::IPv4Address> scale_targets(std::size_t count) {
    std::vector<net::IPv4Address> targets;
    targets.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        targets.push_back(net::IPv4Address(static_cast<std::uint32_t>(0x0B000000 + i)));
    }
    return targets;
}

/// One census shape over the deterministic ScaleTransport world.
struct ScaleShape {
    std::size_t targets = 100'000;
    std::size_t passes = 2;
    std::size_t vantages = 1;
    /// Explicit lane assignment (runs of three targets per lane, cycling)
    /// instead of the default backend-hint grouping.
    bool assigned = false;
};

core::Measurement run_scale_census(const ScaleShape& shape, bool spill,
                                   std::vector<core::PassStats>* stats_out = nullptr) {
    std::vector<std::unique_ptr<sim::ScaleTransport>> transports;
    core::CensusPlan plan;
    for (std::size_t v = 0; v < shape.vantages; ++v) {
        transports.push_back(std::make_unique<sim::ScaleTransport>(
            sim::ScaleWorldConfig{.seed = 42, .responsive_fraction = 0.6, .loss_rate = 0.03}));
        plan.vantages.push_back(transports.back().get());
    }
    plan.campaign.window = 128;
    plan.passes = shape.passes;
    plan.spill = spill;
    plan.spill_config.segment_records = 1 << 12;  // force many segments
    std::vector<std::uint32_t> assignment;
    if (shape.assigned) {
        for (std::size_t i = 0; i < shape.targets; ++i) {
            assignment.push_back(static_cast<std::uint32_t>((i / 3) % shape.vantages));
        }
    }
    core::CensusRunner runner(std::move(plan));

    core::CollectingSink sink("scale");
    runner.stream_passes(scale_targets(shape.targets), assignment, shape.passes, sink);
    if (stats_out != nullptr) *stats_out = runner.last_pass_stats();
    return sink.take();
}

core::SignatureDatabase absorb_database(const core::Measurement& measurement) {
    core::SignatureDatabase database({.min_occurrences = 1});
    for (const auto& record : measurement.records) {
        if (record.snmp_vendor && !record.features.empty()) {
            database.add_labeled(record.signature, *record.snmp_vendor);
        }
    }
    database.finalize();
    return database;
}

TEST(ScaleCensus, SpillPathMatchesInMemoryPathOnMultiPassWorld) {
    // The acceptance property: a multi-pass census over the
    // deterministic ScaleTransport world produces byte-identical derived
    // artifacts whether the record set lives in RAM or spills to disk —
    // for a single-lane 2-pass census, and for a 3-pass census over two
    // vantage lanes with an explicit lane assignment.
    // (The raw packet bytes are the one permitted difference — the spill
    // path drops them by design — so equality is asserted on the compact
    // projection, which carries everything downstream consumers read.)
    const ScaleShape lanes{.targets = 50'000, .passes = 3, .vantages = 2, .assigned = true};
    for (const ScaleShape& shape : {ScaleShape{}, lanes}) {
        SCOPED_TRACE(std::to_string(shape.passes) + " passes, " +
                     std::to_string(shape.vantages) + " vantages");
        const std::size_t kTargets = shape.targets;
        std::vector<core::PassStats> memory_stats;
        std::vector<core::PassStats> spill_stats;
        const auto in_memory = run_scale_census(shape, false, &memory_stats);
        const auto spilled = run_scale_census(shape, true, &spill_stats);

        ASSERT_EQ(in_memory.records.size(), kTargets);
        ASSERT_EQ(spilled.records.size(), kTargets);
        EXPECT_EQ(memory_stats, spill_stats);
        EXPECT_EQ(memory_stats.size(), shape.passes);

        std::size_t retried = 0;
        for (std::size_t g = 0; g < kTargets; ++g) {
            ASSERT_EQ(core::CompactRecord::from_record(in_memory.records[g]),
                      core::CompactRecord::from_record(spilled.records[g]))
                << "target " << g;
            if (spilled.records[g].pass > 0) ++retried;
        }
        EXPECT_GT(retried, 0u) << "at 3% loss the retry pass must have upgraded records, "
                                  "or the multi-pass half of the equivalence is untested";

        // Classification CSVs are byte-identical (pass provenance included).
        std::ostringstream memory_csv;
        std::ostringstream spill_csv;
        io::export_measurement_csv(memory_csv, in_memory);
        io::export_measurement_csv(spill_csv, spilled);
        EXPECT_EQ(memory_csv.str(), spill_csv.str());

        // Signature databases serialize byte-identically too.
        const auto memory_db = absorb_database(in_memory);
        const auto spill_db = absorb_database(spilled);
        std::ostringstream memory_store;
        std::ostringstream spill_store;
        io::save_signatures(memory_store, memory_db, memory_stats);
        io::save_signatures(spill_store, spill_db, spill_stats);
        EXPECT_GT(memory_db.signatures().size(), 0u);
        EXPECT_EQ(memory_store.str(), spill_store.str());
    }
}

// ---------------------------------------------------------------------------
// Template-patched probe packets
// ---------------------------------------------------------------------------

/// Captures every sent packet, answering nothing.
class CaptureTransport final : public probe::SynchronousTransport {
  public:
    [[nodiscard]] net::IPv4Address vantage_address() const override {
        return net::IPv4Address(0x0A000001);
    }
    std::vector<net::Bytes> sent;

  protected:
    std::optional<net::Bytes> exchange(std::span<const std::uint8_t> packet) override {
        sent.emplace_back(packet.begin(), packet.end());
        return std::nullopt;
    }
};

TEST(ScaleCensus, PatchedProbePacketsAreFieldCorrect) {
    // The hot path rewrites cached template packets (destination, IPID,
    // ICMP identifier, checksums) instead of rebuilding each probe.
    // parse_packet validates every checksum, so a parse success plus
    // field assertions pins the patching byte-for-byte.
    CaptureTransport transport;
    probe::Campaign campaign(transport, {.send_snmp = false, .window = 8});
    const auto targets = scale_targets(7);
    const auto results = campaign.run(targets);
    ASSERT_EQ(results.size(), targets.size());
    ASSERT_EQ(transport.sent.size(), targets.size() * 9);

    const probe::Campaign::Config defaults;
    for (std::size_t i = 0; i < targets.size(); ++i) {
        const auto& result = results[i];
        for (std::size_t round = 0; round < probe::kRoundsPerProtocol; ++round) {
            for (std::size_t p = 0; p < probe::kProtocolCount; ++p) {
                const std::size_t slot = core::probe_slot(p, round);
                const auto& request = result.probes[p][round].request;
                ASSERT_FALSE(request.empty());

                const auto parsed = net::parse_packet(request);
                ASSERT_TRUE(parsed.has_value())
                    << "target " << i << " slot " << slot << ": " << parsed.error().message;
                EXPECT_EQ(parsed.value().ip.destination, targets[i]);
                EXPECT_EQ(parsed.value().ip.source, transport.vantage_address());
                EXPECT_EQ(parsed.value().ip.ttl, defaults.probe_ttl);
                EXPECT_EQ(parsed.value().ip.identification,
                          static_cast<std::uint16_t>(defaults.ipid_base + i * 9 + slot));

                switch (static_cast<probe::ProtoIndex>(p)) {
                    case probe::ProtoIndex::icmp: {
                        const auto* icmp = parsed.value().icmp();
                        ASSERT_NE(icmp, nullptr);
                        const auto* echo = std::get_if<net::IcmpEcho>(icmp);
                        ASSERT_NE(echo, nullptr);
                        const std::uint32_t ip = targets[i].value();
                        EXPECT_EQ(echo->identifier,
                                  static_cast<std::uint16_t>(ip ^ (ip >> 16)));
                        EXPECT_EQ(echo->payload.size(), defaults.icmp_payload_bytes);
                        break;
                    }
                    case probe::ProtoIndex::tcp: {
                        const auto* tcp = parsed.value().tcp();
                        ASSERT_NE(tcp, nullptr);
                        // Each round probes from its own local port so the
                        // demux flow keys stay distinct.
                        EXPECT_EQ(tcp->source_port,
                                  static_cast<std::uint16_t>(defaults.source_port + round));
                        break;
                    }
                    case probe::ProtoIndex::udp: {
                        const auto* udp = parsed.value().udp();
                        ASSERT_NE(udp, nullptr);
                        EXPECT_EQ(udp->source_port,
                                  static_cast<std::uint16_t>(defaults.source_port + round));
                        EXPECT_EQ(udp->payload.size(), defaults.udp_payload_bytes);
                        break;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Zero-allocation steady state
// ---------------------------------------------------------------------------

/// Silent and allocation-free: every probe is swallowed without a response
/// and without touching the heap.
class SilentNoAllocTransport final : public probe::SynchronousTransport {
  public:
    [[nodiscard]] net::IPv4Address vantage_address() const override {
        return net::IPv4Address(0x0A000001);
    }

  protected:
    std::optional<net::Bytes> exchange(std::span<const std::uint8_t> /*packet*/) override {
        return std::nullopt;
    }
};

TEST(ScaleCensus, ProbeHotPathIsAllocationFreeInSteadyState) {
    // With SNMP off (BER serialization is the one documented per-target
    // allocation) and request retention off, the streaming probe loop must
    // reuse its pools outright: between emission #500 and #1500 of a
    // 2000-target run, the process-wide allocation counter may not move.
    SilentNoAllocTransport transport;
    probe::Campaign campaign(transport, {.send_snmp = false,
                                         .keep_request_bytes = false,
                                         .window = 64});
    const auto targets = scale_targets(2000);

    std::uint64_t allocs_at_500 = 0;
    std::uint64_t allocs_at_1500 = 0;
    std::size_t emitted = 0;
    campaign.run_streaming(targets, {},
                           [&](std::size_t, probe::TargetProbeResult&&) {
                               ++emitted;
                               if (emitted == 500) {
                                   allocs_at_500 =
                                       g_alloc_count.load(std::memory_order_relaxed);
                               } else if (emitted == 1500) {
                                   allocs_at_1500 =
                                       g_alloc_count.load(std::memory_order_relaxed);
                               }
                               return true;
                           });
    ASSERT_EQ(emitted, targets.size());
    EXPECT_EQ(allocs_at_1500 - allocs_at_500, 0u)
        << "steady-state probing of 1000 targets must not allocate";
}

// ---------------------------------------------------------------------------
// Slow consumer
// ---------------------------------------------------------------------------

class SleepySink final : public core::RecordSink {
  public:
    void accept(std::uint64_t, core::TargetRecord&&) override {
        ++accepted;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::size_t accepted = 0;
};

#ifdef __linux__
double process_cpu_seconds() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

TEST(ScaleCensus, SlowConsumerDoesNotBusySpinTheEngine) {
    // A sink that sleeps per record stretches the census to ~400 ms of
    // wall time during which the sender/receiver threads are starved of
    // work. With the bounded-spin backoff on the ring and the idle loops
    // they must sleep too: total process CPU stays well under wall time
    // (two busy-spinning threads would show CPU ≈ 2x wall).
    sim::ScaleTransport transport({.seed = 3, .responsive_fraction = 1.0});
    core::CensusPlan plan;
    plan.vantages = {&transport};
    plan.campaign.window = 32;
    core::CensusRunner runner(std::move(plan));

    SleepySink sink;
    const double cpu_before = process_cpu_seconds();
    const auto wall_before = std::chrono::steady_clock::now();
    runner.stream_passes(scale_targets(400), {}, 1, sink);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_before)
            .count();
    const double cpu = process_cpu_seconds() - cpu_before;

    EXPECT_EQ(sink.accepted, 400u);
    ASSERT_GE(wall, 0.3) << "the sleeping sink should dominate the run";
    EXPECT_LT(cpu, 0.75 * wall)
        << "idle engine threads must yield/sleep, not busy-spin (cpu " << cpu << "s over "
        << wall << "s wall)";
}
#endif  // __linux__

}  // namespace
}  // namespace lfp

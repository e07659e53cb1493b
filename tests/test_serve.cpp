// Tests for the census-as-a-service layer: RCU-style snapshot publication
// (lock-free readers vs concurrent publishes, version retention), the
// pass-aware absorb-with-retraction sink, byte-identity of served answers
// against the batch pipeline over an identically-seeded world, the
// recurring-pass scheduler, the wire protocol (framing + the full command
// surface, no socket required), and the serving event loop over a real
// unix socket (hostile clients, censuses held mid-flight).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include "analysis/path_census.hpp"
#include "core/census.hpp"
#include "io/csv_export.hpp"
#include "probe/sim_transport.hpp"
#include "serve/query.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "serve/wire.hpp"
#include "sim/internet.hpp"
#include "sim/topology.hpp"

namespace lfp {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------- fixtures

/// A small deterministic sim world, rebuilt from fixed seeds — two
/// instances probe to byte-identical records (stateful routers mean one
/// instance cannot be probed twice identically, so byte-identity tests
/// build two).
struct ServeWorld {
    ServeWorld()
        : topology(sim::Topology::build({.seed = 77,
                                         .num_ases = 60,
                                         .tier1_count = 4,
                                         .transit_fraction = 0.2,
                                         .scale = 0.4})),
          internet(topology, {.seed = 13, .loss_rate = 0.02}),
          transport(std::make_unique<probe::SimTransport>(internet)) {}

    [[nodiscard]] core::CensusPlan plan(std::size_t limit = 120) const {
        core::CensusPlan plan;
        plan.name = "serve";
        for (std::size_t i = 0; i < topology.router_count() && plan.targets.size() < limit;
             ++i) {
            plan.targets.push_back(topology.router(i).interfaces().front());
        }
        plan.vantages.push_back(transport.get());
        plan.campaign.window = 16;
        plan.passes = 2;
        plan.worker_threads = 2;
        return plan;
    }

    [[nodiscard]] serve::AsnResolver resolver() {
        sim::Topology* topo = &topology;
        return [topo](net::IPv4Address address) -> std::optional<std::uint32_t> {
            const std::size_t index = topo->find_by_interface(address);
            if (index == sim::Topology::npos) return std::nullopt;
            return topo->asn_of(index);
        };
    }

    sim::Topology topology;
    sim::Internet internet;
    std::unique_ptr<probe::SimTransport> transport;
};

serve::ServiceConfig on_demand_config(ServeWorld& world) {
    serve::ServiceConfig config;
    config.name = "serve";
    config.run_immediately = false;
    config.asn = world.resolver();
    return config;
}

std::shared_ptr<const serve::Snapshot> empty_snapshot(std::uint64_t version) {
    serve::SnapshotBuilder builder;
    return builder.build(version, {});
}

core::TargetRecord labeled(const std::string& key, std::optional<stack::Vendor> vendor) {
    core::TargetRecord record;
    record.features.protocol_mask = 0b111;  // non-empty feature row
    record.signature = core::Signature::from_parts(key, 0b111);
    record.snmp_vendor = vendor;
    return record;
}

// ----------------------------------------------------------- SnapshotStore

TEST(SnapshotStore, PublishCurrentAndRetention) {
    serve::SnapshotStore store(3);
    EXPECT_EQ(store.current(), nullptr);
    EXPECT_EQ(store.version(1), nullptr);

    for (std::uint64_t v = 1; v <= 6; ++v) {
        EXPECT_EQ(store.publish(empty_snapshot(v)), v);
    }
    ASSERT_NE(store.current(), nullptr);
    EXPECT_EQ(store.current()->version(), 6u);

    // Ring of 3: versions 4..6 retained, 1..3 aged out.
    EXPECT_EQ(store.version(3), nullptr);
    for (std::uint64_t v = 4; v <= 6; ++v) {
        ASSERT_NE(store.version(v), nullptr);
        EXPECT_EQ(store.version(v)->version(), v);
    }
    const auto retained = store.retained();
    ASSERT_EQ(retained.size(), 3u);
    EXPECT_EQ(retained.front()->version(), 4u);
    EXPECT_EQ(retained.back()->version(), 6u);

    // A zero retain limit clamps to one — the current snapshot is always
    // reachable by version.
    serve::SnapshotStore tight(0);
    EXPECT_EQ(tight.retain_limit(), 1u);
}

TEST(SnapshotStore, ReadersNeverObserveTornOrBackwardVersions) {
    serve::SnapshotStore store(4);
    constexpr std::uint64_t kVersions = 200;
    std::vector<std::shared_ptr<const serve::Snapshot>> prebuilt;
    prebuilt.reserve(kVersions);
    for (std::uint64_t v = 1; v <= kVersions; ++v) prebuilt.push_back(empty_snapshot(v));

    std::atomic<bool> done{false};
    std::atomic<bool> failed{false};
    std::vector<std::thread> readers;
    for (int r = 0; r < 4; ++r) {
        readers.emplace_back([&store, &done, &failed] {
            std::uint64_t last_seen = 0;
            while (!done.load(std::memory_order_acquire)) {
                const auto snapshot = store.current();
                if (snapshot == nullptr) continue;  // before the first publish
                const std::uint64_t version = snapshot->version();
                // The RCU contract: a held snapshot stays valid, and the
                // published version never goes backward.
                if (version < last_seen || version == 0 || version > kVersions) {
                    failed.store(true, std::memory_order_release);
                    return;
                }
                last_seen = version;
            }
        });
    }
    for (auto& snapshot : prebuilt) store.publish(std::move(snapshot));
    done.store(true, std::memory_order_release);
    for (auto& reader : readers) reader.join();
    EXPECT_FALSE(failed.load());
    EXPECT_EQ(store.current()->version(), kVersions);
}

// ------------------------------------------- pass-aware absorb/retraction

TEST(SignatureAbsorbSink, RetractionMakesIncrementalFeedMatchFinalOnly) {
    // Incremental per-pass feed: repeated global indices supersede earlier
    // records — the sink retracts the superseded contribution before
    // absorbing the upgrade.
    const core::SignatureDbConfig config{.min_occurrences = 1};
    core::SignatureDatabase incremental(config);
    core::SignatureAbsorbSink sink(incremental, nullptr, {.retract_superseded = true});
    sink.accept(0, labeled("sigA", stack::Vendor::cisco));
    sink.accept(1, labeled("sigB", stack::Vendor::juniper));
    sink.accept(2, labeled("sigC", std::nullopt));            // unlabeled pass-0 record
    sink.accept(0, labeled("sigA2", stack::Vendor::cisco));   // signature upgraded on retry
    sink.accept(1, labeled("sigB", stack::Vendor::nokia));    // label changed on retry
    sink.accept(2, labeled("sigC", stack::Vendor::huawei));   // label gained on retry
    sink.finish();
    incremental.finalize();

    // Final-records-only absorption of the same census.
    core::SignatureDatabase final_only(config);
    for (const auto& record :
         {labeled("sigA2", stack::Vendor::cisco), labeled("sigB", stack::Vendor::nokia),
          labeled("sigC", stack::Vendor::huawei)}) {
        final_only.add_labeled(record.signature, *record.snmp_vendor);
    }
    final_only.finalize();

    ASSERT_EQ(incremental.signatures().size(), final_only.signatures().size());
    for (const auto& [signature, stats] : final_only.signatures()) {
        const core::SignatureStats* incremental_stats = incremental.lookup(signature);
        ASSERT_NE(incremental_stats, nullptr) << signature.key();
        EXPECT_EQ(incremental_stats->total, stats.total) << signature.key();
        EXPECT_EQ(incremental_stats->vendor_counts, stats.vendor_counts) << signature.key();
    }
    // The fully-retracted signature is gone, not present-with-zero.
    EXPECT_EQ(incremental.lookup(core::Signature::from_parts("sigA", 0b111)), nullptr);

    // Without retraction the superseded contributions linger — the flag is
    // doing the work.
    core::SignatureDatabase additive(config);
    core::SignatureAbsorbSink plain(additive, nullptr);
    plain.accept(0, labeled("sigA", stack::Vendor::cisco));
    plain.accept(0, labeled("sigA2", stack::Vendor::cisco));
    additive.finalize();
    EXPECT_NE(additive.lookup(core::Signature::from_parts("sigA", 0b111)), nullptr);
}

// ------------------------------------------------ served == batch pipeline

TEST(ServeByteIdentity, SnapshotAnswersMatchBatchClassifications) {
    // Serving side: one census through the SnapshotBuilder path.
    ServeWorld serving_world;
    serve::CensusService service(serving_world.plan(), on_demand_config(serving_world));
    EXPECT_EQ(service.run_census_now(), 1u);
    const auto snapshot = service.store().current();
    ASSERT_NE(snapshot, nullptr);

    // Reference side: the classic batch pipeline over a *fresh* world
    // rebuilt from the same seeds (simulated routers are stateful, so the
    // serving world cannot simply be probed again).
    ServeWorld batch_world;
    core::CensusRunner runner(batch_world.plan());
    core::Measurement measurement =
        runner.measure_passes(runner.plan().name, runner.plan().targets);
    const core::SignatureDatabase database =
        runner.build_database(std::span<const core::Measurement>(&measurement, 1));
    runner.classify(measurement, database);

    // Byte-identical CSV export — same records, same classifications, same
    // pass provenance, same order.
    std::ostringstream served;
    std::ostringstream batch;
    io::export_measurement_csv(served, snapshot->expand());
    io::export_measurement_csv(batch, measurement);
    EXPECT_EQ(served.str(), batch.str());

    // Same pass trajectory.
    ASSERT_EQ(snapshot->pass_stats().size(), runner.last_pass_stats().size());
    for (std::size_t p = 0; p < snapshot->pass_stats().size(); ++p) {
        EXPECT_EQ(snapshot->pass_stats()[p], runner.last_pass_stats()[p]) << "pass " << p;
    }

    // Point lookups agree with the batch records field by field.
    const serve::QueryEngine engine(service.store());
    std::size_t responsive = 0;
    for (const auto& record : measurement.records) {
        const serve::VendorAnswer answer = engine.vendor_of(record.probes.target);
        ASSERT_TRUE(answer.known) << record.probes.target.to_string();
        EXPECT_EQ(answer.version, 1u);
        EXPECT_EQ(answer.snmp_vendor, record.snmp_vendor);
        EXPECT_EQ(answer.lfp_vendor, record.lfp.vendor);
        EXPECT_EQ(answer.kind, record.lfp.kind);
        EXPECT_EQ(answer.confidence, record.lfp.confidence);
        EXPECT_EQ(answer.pass, record.pass);
        if (answer.responsive) ++responsive;
    }
    EXPECT_EQ(responsive, snapshot->counts().responsive);
    EXPECT_GT(responsive, 0u);

    // The AS aggregates cover exactly the targets the resolver places.
    std::size_t routers_in_mixes = 0;
    for (const auto& [asn, mix] : snapshot->as_mixes()) {
        EXPECT_EQ(mix.asn, asn);
        routers_in_mixes += mix.routers_total;
    }
    EXPECT_EQ(routers_in_mixes, measurement.records.size());
}

// ---------------------------------------------------------- PassScheduler

TEST(PassScheduler, OnDemandTriggersRunExactlyWhenAsked) {
    std::atomic<int> passes{0};
    serve::PassScheduler scheduler([&passes] { ++passes; },
                                   {.interval = 0ms, .run_immediately = false});
    scheduler.start();
    std::this_thread::sleep_for(20ms);
    EXPECT_EQ(passes.load(), 0);  // nothing fires without a trigger

    scheduler.trigger();
    ASSERT_TRUE(scheduler.wait_for_passes(1, 5000ms));
    scheduler.trigger();
    ASSERT_TRUE(scheduler.wait_for_passes(2, 5000ms));
    EXPECT_EQ(passes.load(), 2);
    EXPECT_EQ(scheduler.passes_completed(), 2u);

    scheduler.stop();
    scheduler.stop();  // idempotent
    EXPECT_FALSE(scheduler.wait_for_passes(3, 10ms));
}

TEST(PassScheduler, IntervalModeFiresRepeatedly) {
    std::atomic<int> passes{0};
    serve::PassScheduler scheduler([&passes] { ++passes; },
                                   {.interval = 5ms, .run_immediately = true});
    scheduler.start();
    EXPECT_TRUE(scheduler.wait_for_passes(3, 5000ms));
    scheduler.stop();
    EXPECT_GE(passes.load(), 3);
}

TEST(PassScheduler, TriggerAloneStartsTheThread) {
    std::atomic<int> passes{0};
    serve::PassScheduler scheduler([&passes] { ++passes; },
                                   {.interval = 0ms, .run_immediately = false});
    scheduler.trigger();  // no explicit start()
    EXPECT_TRUE(scheduler.wait_for_passes(1, 5000ms));
}

TEST(CensusService, TriggeredCensusesPublishSuccessiveVersions) {
    ServeWorld world;
    serve::CensusService service(world.plan(40), on_demand_config(world));
    service.start();
    EXPECT_EQ(service.store().current(), nullptr);  // run_immediately = false

    service.trigger();
    ASSERT_TRUE(service.wait_for_census(1, 30000ms));
    ASSERT_NE(service.store().current(), nullptr);
    EXPECT_EQ(service.store().current()->version(), 1u);

    service.trigger();
    ASSERT_TRUE(service.wait_for_census(2, 30000ms));
    EXPECT_EQ(service.store().current()->version(), 2u);
    EXPECT_EQ(service.censuses_completed(), 2u);
    service.stop();

    // Both versions retained: the diff path has something to compare.
    EXPECT_NE(service.store().version(1), nullptr);
    EXPECT_NE(service.store().version(2), nullptr);
}

// ------------------------------------------------------------ wire framing

TEST(WireFraming, RoundTripsFramesFedInArbitraryChunks) {
    const std::string big(100'000, 'x');
    std::vector<std::uint8_t> stream;
    for (const std::string& payload : {std::string("hello"), std::string("y"), big}) {
        const auto frame = serve::encode_frame(payload);
        stream.insert(stream.end(), frame.begin(), frame.end());
    }

    serve::FrameDecoder decoder;
    std::vector<std::string> decoded;
    for (std::size_t i = 0; i < stream.size(); i += 7) {
        decoder.feed(stream.data() + i, std::min<std::size_t>(7, stream.size() - i));
        while (auto payload = decoder.next()) decoded.push_back(*payload);
    }
    ASSERT_EQ(decoded.size(), 3u);
    EXPECT_EQ(decoded[0], "hello");
    EXPECT_EQ(decoded[1], "y");
    EXPECT_EQ(decoded[2], big);
    EXPECT_FALSE(decoder.error());
}

TEST(WireFraming, OversizedFrameIsAProtocolError) {
    const std::uint32_t absurd = serve::kMaxFramePayload + 1;
    const std::uint8_t header[4] = {
        static_cast<std::uint8_t>(absurd & 0xFF),
        static_cast<std::uint8_t>((absurd >> 8) & 0xFF),
        static_cast<std::uint8_t>((absurd >> 16) & 0xFF),
        static_cast<std::uint8_t>((absurd >> 24) & 0xFF),
    };
    serve::FrameDecoder decoder;
    decoder.feed(header, sizeof(header));
    EXPECT_EQ(decoder.next(), std::nullopt);
    EXPECT_TRUE(decoder.error());
    EXPECT_NE(decoder.error_reason().find("exceeds the cap"), std::string::npos)
        << decoder.error_reason();
}

TEST(WireFraming, ZeroLengthFrameIsAProtocolError) {
    // An all-zero length prefix is what a desynchronized or garbage stream
    // most often looks like; no real command or response is ever empty.
    const std::uint8_t header[4] = {0, 0, 0, 0};
    serve::FrameDecoder decoder;
    decoder.feed(header, sizeof(header));
    EXPECT_EQ(decoder.next(), std::nullopt);
    EXPECT_TRUE(decoder.error());
    EXPECT_EQ(decoder.error_reason(), "zero-length frame");

    // The decoder stays latched: later valid bytes are not reinterpreted.
    const auto good = serve::encode_frame("PING");
    decoder.feed(good.data(), good.size());
    EXPECT_EQ(decoder.next(), std::nullopt);
    EXPECT_TRUE(decoder.error());
}

TEST(WireFraming, DecodesTenThousandPipelinedFramesFedAsOneChunk) {
    std::vector<std::uint8_t> stream;
    for (int i = 0; i < 10'000; ++i) {
        const auto frame = serve::encode_frame("VENDOR 10.0." + std::to_string(i / 256) + '.' +
                                               std::to_string(i % 256));
        stream.insert(stream.end(), frame.begin(), frame.end());
    }
    serve::FrameDecoder decoder(serve::kMaxRequestPayload);
    decoder.feed(stream.data(), stream.size());
    int decoded = 0;
    while (auto payload = decoder.next()) {
        ASSERT_EQ(*payload, "VENDOR 10.0." + std::to_string(decoded / 256) + '.' +
                                std::to_string(decoded % 256));
        ++decoded;
    }
    EXPECT_EQ(decoded, 10'000);
    EXPECT_FALSE(decoder.error());
}

TEST(WireFraming, RequestCapRejectsOnTheHeaderAlone) {
    // A request decoder refuses a frame over kMaxRequestPayload as soon as
    // its header arrives; a response decoder accepts the same header and
    // waits for the body.
    const std::uint32_t length = serve::kMaxRequestPayload + 1;
    const std::uint8_t header[4] = {
        static_cast<std::uint8_t>(length & 0xFF),
        static_cast<std::uint8_t>((length >> 8) & 0xFF),
        static_cast<std::uint8_t>((length >> 16) & 0xFF),
        static_cast<std::uint8_t>((length >> 24) & 0xFF),
    };
    serve::FrameDecoder requests(serve::kMaxRequestPayload);
    requests.feed(header, sizeof(header));
    EXPECT_EQ(requests.next(), std::nullopt);
    EXPECT_TRUE(requests.error());
    EXPECT_NE(requests.error_reason().find("exceeds the cap of 65536"), std::string::npos)
        << requests.error_reason();

    serve::FrameDecoder responses;
    responses.feed(header, sizeof(header));
    EXPECT_EQ(responses.next(), std::nullopt);
    EXPECT_FALSE(responses.error());
}

// --------------------------------------------------------- request handling

TEST(WireRequests, FullCommandSurface) {
    ServeWorld world;
    serve::CensusService service(world.plan(60), on_demand_config(world));
    const serve::QueryEngine engine(service.store());

    // Before any census: queries answer version 0, EXPORT refuses.
    EXPECT_EQ(serve::handle_request("PING", service, engine).response, "OK pong");
    EXPECT_TRUE(serve::handle_request("STATS", service, engine)
                    .response.find("version=0") != std::string::npos);
    EXPECT_TRUE(serve::handle_request("EXPORT", service, engine).response.rfind("ERR", 0) == 0);
    EXPECT_TRUE(serve::handle_request("DIFF 1 2", service, engine).response.rfind("ERR", 0) ==
                0);

    // TRIGGER is synchronous on the wire: it returns the published version.
    EXPECT_EQ(serve::handle_request("TRIGGER", service, engine).response, "OK version=1");
    EXPECT_EQ(serve::handle_request("TRIGGER", service, engine).response, "OK version=2");

    const auto snapshot = service.store().current();
    ASSERT_NE(snapshot, nullptr);
    const std::string first_ip =
        net::IPv4Address(snapshot->records().front().target).to_string();

    const std::string vendor = serve::handle_request("VENDOR " + first_ip, service, engine)
                                   .response;
    EXPECT_TRUE(vendor.rfind("OK version=2 ip=" + first_ip, 0) == 0) << vendor;
    EXPECT_NE(vendor.find("known=1"), std::string::npos) << vendor;
    EXPECT_NE(vendor.find("asn="), std::string::npos) << vendor;

    // Unknown address answers known=0; garbage answers ERR.
    EXPECT_NE(serve::handle_request("VENDOR 203.0.113.99", service, engine)
                  .response.find("known=0"),
              std::string::npos);
    EXPECT_TRUE(serve::handle_request("VENDOR not-an-ip", service, engine)
                    .response.rfind("ERR", 0) == 0);

    // ASMIX of the first target's AS covers at least that router.
    const auto asn = snapshot->asn_of(net::IPv4Address(snapshot->records().front().target));
    ASSERT_TRUE(asn.has_value());
    const std::string asmix =
        serve::handle_request("ASMIX " + std::to_string(*asn), service, engine).response;
    EXPECT_NE(asmix.find("routers="), std::string::npos) << asmix;
    EXPECT_NE(serve::handle_request("ASMIX 4294967000", service, engine)
                  .response.find("unknown"),
              std::string::npos);
    EXPECT_TRUE(serve::handle_request("ASMIX x", service, engine).response.rfind("ERR", 0) ==
                0);

    // PATH over three census targets: every hop known.
    std::string path_request = "PATH";
    for (std::size_t i = 0; i < 3 && i < snapshot->records().size(); ++i) {
        path_request += ' ' + net::IPv4Address(snapshot->records()[i].target).to_string();
    }
    const std::string path = serve::handle_request(path_request, service, engine).response;
    EXPECT_NE(path.find("hops=3 known=3"), std::string::npos) << path;

    // DIFF of the two published versions.
    const std::string diff = serve::handle_request("DIFF 1 2", service, engine).response;
    EXPECT_TRUE(diff.rfind("OK from=1 to=2", 0) == 0) << diff;
    EXPECT_NE(diff.find("from_passes=2 to_passes=2"), std::string::npos) << diff;
    EXPECT_TRUE(serve::handle_request("DIFF 1 99", service, engine).response.rfind("ERR", 0) ==
                0);

    // EXPORT returns the raw CSV (header first, no OK prefix).
    const std::string csv = serve::handle_request("EXPORT", service, engine).response;
    EXPECT_TRUE(csv.rfind("ip,responsive_protocols,", 0) == 0);

    // Operand and verb errors.
    EXPECT_TRUE(serve::handle_request("", service, engine).response.rfind("ERR", 0) == 0);
    EXPECT_TRUE(serve::handle_request("PING extra", service, engine).response.rfind("ERR", 0) ==
                0);
    EXPECT_TRUE(serve::handle_request("VENDOR", service, engine).response.rfind("ERR", 0) == 0);
    EXPECT_TRUE(serve::handle_request("DIFF 1", service, engine).response.rfind("ERR", 0) == 0);
    EXPECT_TRUE(serve::handle_request("NONSENSE", service, engine).response.rfind("ERR", 0) ==
                0);

    // SHUTDOWN answers and raises the flag.
    const serve::RequestOutcome shutdown = serve::handle_request("SHUTDOWN", service, engine);
    EXPECT_EQ(shutdown.response, "OK bye");
    EXPECT_TRUE(shutdown.shutdown);
    EXPECT_FALSE(serve::handle_request("PING", service, engine).shutdown);
}

// ------------------------------------------------------------- QueryEngine

TEST(QueryEngine, AnswersBeforeFirstPublishAreVersionZero) {
    serve::SnapshotStore store;
    const serve::QueryEngine engine(store);
    const serve::VendorAnswer vendor = engine.vendor_of(net::IPv4Address(0x01020304));
    EXPECT_EQ(vendor.version, 0u);
    EXPECT_FALSE(vendor.known);

    const serve::AsMixAnswer mix = engine.as_mix(42);
    EXPECT_EQ(mix.version, 0u);
    EXPECT_FALSE(mix.mix.has_value());

    const std::vector<net::IPv4Address> hops = {net::IPv4Address(0x01020304)};
    const serve::PathProfile profile = engine.path_profile(hops);
    EXPECT_EQ(profile.version, 0u);
    ASSERT_EQ(profile.hops.size(), 1u);
    EXPECT_FALSE(profile.hops.front().known);
    EXPECT_TRUE(profile.combination.empty());

    EXPECT_FALSE(engine.diff(1, 2).has_value());
}

// ------------------------------------------------------- durability (disk)

/// A fresh scratch directory under the system temp dir, removed on scope
/// exit.
class ScratchDir {
  public:
    explicit ScratchDir(const std::string& tag)
        : path_(std::filesystem::temp_directory_path() /
                ("lfp-test-" + tag + "-" + std::to_string(::getpid()))) {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~ScratchDir() {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }

  private:
    std::filesystem::path path_;
};

TEST(SnapshotPersistence, SaveLoadRoundTripsEveryServedAnswer) {
    ScratchDir dir("snap-roundtrip");
    ServeWorld world;
    serve::CensusService service(world.plan(), on_demand_config(world));
    ASSERT_EQ(service.run_census_now(), 1u);
    const auto original = service.store().current();
    ASSERT_NE(original, nullptr);

    const std::filesystem::path file = dir.path() / "one.snap";
    ASSERT_TRUE(serve::save_snapshot_file(file, *original));

    serve::ServiceConfig config = on_demand_config(world);
    const auto loaded =
        serve::load_snapshot_file(file, {.database = config.database, .asn = config.asn});
    ASSERT_NE(loaded, nullptr);
    EXPECT_TRUE(loaded->restored());
    EXPECT_FALSE(original->restored());
    EXPECT_EQ(loaded->version(), original->version());
    EXPECT_EQ(loaded->name(), original->name());
    EXPECT_EQ(loaded->created_unix_ms(), original->created_unix_ms());
    ASSERT_EQ(loaded->pass_stats().size(), original->pass_stats().size());

    // The reloaded snapshot serves byte-identical answers: same records,
    // same rebuilt signature database, same CSV export.
    std::ostringstream before;
    std::ostringstream after;
    io::export_measurement_csv(before, original->expand());
    io::export_measurement_csv(after, loaded->expand());
    EXPECT_EQ(before.str(), after.str());
    EXPECT_EQ(loaded->counts(), original->counts());
    EXPECT_EQ(loaded->as_mixes().size(), original->as_mixes().size());
}

TEST(SnapshotPersistence, LoadRejectsTruncationAndGarbage) {
    ScratchDir dir("snap-garbage");
    ServeWorld world;
    serve::CensusService service(world.plan(40), on_demand_config(world));
    ASSERT_EQ(service.run_census_now(), 1u);
    const std::filesystem::path file = dir.path() / "one.snap";
    ASSERT_TRUE(serve::save_snapshot_file(file, *service.store().current()));

    // Every prefix of a valid file is rejected, never crashes, never loads.
    std::ifstream in(file, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 64u);
    for (std::size_t length : {std::size_t{0}, std::size_t{4}, std::size_t{7}, std::size_t{20},
                               bytes.size() / 2, bytes.size() - 1}) {
        const std::filesystem::path cut = dir.path() / "cut.snap";
        std::ofstream out(cut, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(length));
        out.close();
        EXPECT_EQ(serve::load_snapshot_file(cut), nullptr) << "prefix of " << length;
    }

    // Wrong magic is rejected outright.
    bytes[0] ^= 0x40;
    const std::filesystem::path bad = dir.path() / "bad.snap";
    std::ofstream out(bad, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    EXPECT_EQ(serve::load_snapshot_file(bad), nullptr);
    EXPECT_EQ(serve::load_snapshot_file(dir.path() / "missing.snap"), nullptr);
}

TEST(SnapshotPersistence, StorePersistsPublishesAndPrunesToRetention) {
    ScratchDir dir("snap-store");
    serve::SnapshotStore store(2, dir.path().string());
    for (std::uint64_t v = 1; v <= 5; ++v) store.publish(empty_snapshot(v));
    EXPECT_EQ(store.persist_failures(), 0u);

    std::vector<std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
        files.push_back(entry.path().filename().string());
    }
    std::sort(files.begin(), files.end());
    // Retention applies on disk as in memory: only the newest two survive.
    ASSERT_EQ(files.size(), 2u) << files.size() << " files on disk";
    EXPECT_EQ(files[0], "snapshot-v4.snap");
    EXPECT_EQ(files[1], "snapshot-v5.snap");

    const auto latest = serve::load_latest_snapshot(dir.path());
    ASSERT_NE(latest, nullptr);
    EXPECT_EQ(latest->version(), 5u);
}

TEST(CensusService, RestoreLatestServesDegradedUntilFreshCensus) {
    ScratchDir dir("snap-restore");

    // First life: run two censuses with persistence on.
    std::string reference_csv;
    {
        ServeWorld world;
        serve::ServiceConfig config = on_demand_config(world);
        config.state_dir = dir.path().string();
        serve::CensusService service(world.plan(), config);
        ASSERT_EQ(service.run_census_now(), 1u);
        ASSERT_EQ(service.run_census_now(), 2u);
        std::ostringstream csv;
        io::export_measurement_csv(csv, service.store().current()->expand());
        reference_csv = csv.str();
    }

    // Second life: a fresh service over a fresh world restores v2 from disk
    // and answers degraded until the next census publishes v3.
    ServeWorld world;
    serve::ServiceConfig config = on_demand_config(world);
    config.state_dir = dir.path().string();
    serve::CensusService service(world.plan(), config);
    ASSERT_TRUE(service.restore_latest());
    EXPECT_EQ(service.censuses_completed(), 0u);  // a restore is not a census

    const auto restored = service.store().current();
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->version(), 2u);
    EXPECT_TRUE(restored->restored());
    std::ostringstream csv;
    io::export_measurement_csv(csv, restored->expand());
    EXPECT_EQ(csv.str(), reference_csv);

    // STATS stamps the degraded state and the snapshot's age.
    const serve::QueryEngine engine(service.store());
    const std::string degraded = serve::handle_request("STATS", service, engine).response;
    EXPECT_NE(degraded.find(" degraded=1 age_ms="), std::string::npos) << degraded;
    EXPECT_NE(degraded.find(" version=2 "), std::string::npos) << degraded;

    // The next census publishes v3 (numbering continues) and clears the
    // degraded stamp. A restored snapshot is never re-persisted, so disk
    // now holds exactly the original v1/v2 files plus the fresh v3.
    EXPECT_EQ(service.run_census_now(), 3u);
    const std::string fresh = serve::handle_request("STATS", service, engine).response;
    EXPECT_EQ(fresh.find("degraded"), std::string::npos) << fresh;
    EXPECT_NE(fresh.find(" version=3 "), std::string::npos) << fresh;
    std::size_t files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
        (void)entry;
        ++files;
    }
    EXPECT_EQ(files, 3u);

    // An empty or missing state dir restores nothing.
    serve::ServiceConfig no_state = on_demand_config(world);
    serve::CensusService cold(world.plan(40), no_state);
    EXPECT_FALSE(cold.restore_latest());
}

#ifdef __linux__

// ------------------------------------------------------------- ServeServer

/// Blocks the next send_batch() after arm() until release(): a census held
/// mid-flight, without any timing.
class GateTransport final : public probe::ProbeTransport {
  public:
    explicit GateTransport(probe::ProbeTransport& inner) : inner_(&inner) {}

    void arm() {
        std::lock_guard<std::mutex> guard(mutex_);
        armed_ = true;
    }
    void wait_until_held() {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return held_; });
    }
    void release() {
        {
            std::lock_guard<std::mutex> guard(mutex_);
            armed_ = false;
        }
        cv_.notify_all();
    }

    void send_batch(std::span<const net::Bytes> packets) override {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            if (armed_) {
                held_ = true;
                cv_.notify_all();
                cv_.wait(lock, [this] { return !armed_; });
            }
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

  private:
    probe::ProbeTransport* inner_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool armed_ = false;
    bool held_ = false;
};

/// A client socket, closed on scope exit. Reads give up after 10 s so a
/// broken server fails the test instead of hanging it.
struct Client {
    explicit Client(const std::string& path)
        : fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0)) {
        sockaddr_un address{};
        address.sun_family = AF_UNIX;
        std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
        const timeval limit{.tv_sec = 10, .tv_usec = 0};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof(limit));
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
            ADD_FAILURE() << "connect " << path << ": " << std::strerror(errno);
        }
    }
    ~Client() { ::close(fd); }
    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    /// Sends bytes without SIGPIPE; false once the server has hung up.
    bool send_bytes(const std::uint8_t* data, std::size_t size) const {
        return ::send(fd, data, size, MSG_NOSIGNAL) == static_cast<ssize_t>(size);
    }
    bool send(std::string_view payload) const {
        const auto frame = serve::encode_frame(payload);
        return send_bytes(frame.data(), frame.size());
    }
    /// The next answer; answers to pipelined requests may share a read.
    [[nodiscard]] std::optional<std::string> receive() {
        std::uint8_t chunk[4096];
        while (true) {
            if (auto payload = decoder.next()) return payload;
            if (decoder.error()) return std::nullopt;
            const ssize_t n = ::read(fd, chunk, sizeof(chunk));
            if (n <= 0) return std::nullopt;
            decoder.feed(chunk, static_cast<std::size_t>(n));
        }
    }
    [[nodiscard]] std::optional<std::string> ask(std::string_view payload) {
        if (!send(payload)) return std::nullopt;
        return receive();
    }

    int fd;
    serve::FrameDecoder decoder;
};

/// A Server on a socket in a scratch directory, running on its own thread;
/// stopped and joined on scope exit.
class RunningServer {
  public:
    RunningServer(serve::CensusService& service, const serve::QueryEngine& engine)
        : dir_("server"),
          path_((dir_.path() / "s.sock").string()),
          server_(path_, service, engine),
          thread_([this] { server_.run(); }) {}
    ~RunningServer() {
        server_.request_stop();
        if (thread_.joinable()) thread_.join();
    }
    RunningServer(const RunningServer&) = delete;
    RunningServer& operator=(const RunningServer&) = delete;

    [[nodiscard]] const std::string& path() const noexcept { return path_; }
    /// Waits for run() to return on its own (SHUTDOWN).
    void join() { thread_.join(); }

  private:
    ScratchDir dir_;
    std::string path_;
    serve::Server server_;
    std::thread thread_;
};

/// A header announcing `length` payload bytes, none of which follow.
std::array<std::uint8_t, 4> bare_header(std::uint32_t length) {
    return {static_cast<std::uint8_t>(length & 0xFF),
            static_cast<std::uint8_t>((length >> 8) & 0xFF),
            static_cast<std::uint8_t>((length >> 16) & 0xFF),
            static_cast<std::uint8_t>((length >> 24) & 0xFF)};
}

TEST(ServeServer, MidFrameDisconnectLeavesTheServerServing) {
    ServeWorld world;
    serve::CensusService service(world.plan(40), on_demand_config(world));
    const serve::QueryEngine engine(service.store());
    RunningServer server(service, engine);

    {
        // One full PING, then half a frame, then vanish.
        Client client(server.path());
        EXPECT_EQ(client.ask("PING"), "OK pong");
        const auto torn = serve::encode_frame("STATS");
        // Length prefix plus two payload bytes — the frame never completes.
        ASSERT_GT(torn.size(), 6u);
        EXPECT_TRUE(client.send_bytes(torn.data(), 6));
    }
    // The torn frame was abandoned, not treated as a request, and the loop
    // neither spun nor stopped.
    Client next(server.path());
    EXPECT_EQ(next.ask("PING"), "OK pong");
}

TEST(ServeServer, ProtocolViolationAnswersStructuredErrorThenCloses) {
    ServeWorld world;
    serve::CensusService service(world.plan(40), on_demand_config(world));
    const serve::QueryEngine engine(service.store());
    RunningServer server(service, engine);

    Client client(server.path());
    const auto zero_header = bare_header(0);
    ASSERT_TRUE(client.send_bytes(zero_header.data(), zero_header.size()));
    EXPECT_EQ(client.receive(), "ERR protocol: zero-length frame");
    // And then the connection is gone.
    EXPECT_EQ(client.receive(), std::nullopt);
}

TEST(ServeServer, OversizedRequestHeaderIsRejectedBeforeItsBody) {
    ServeWorld world;
    serve::CensusService service(world.plan(40), on_demand_config(world));
    const serve::QueryEngine engine(service.store());
    RunningServer server(service, engine);

    // 1 MiB announced, no body sent: the header alone earns the error.
    Client client(server.path());
    const auto header = bare_header(1u << 20);
    ASSERT_TRUE(client.send_bytes(header.data(), header.size()));
    EXPECT_EQ(client.receive(), "ERR protocol: frame of 1048576 bytes exceeds the cap of " +
                                    std::to_string(serve::kMaxRequestPayload));
    EXPECT_EQ(client.receive(), std::nullopt);
}

TEST(ServeServer, ShutdownAnswersThenDrainsAndReturns) {
    ServeWorld world;
    serve::CensusService service(world.plan(40), on_demand_config(world));
    const serve::QueryEngine engine(service.store());
    RunningServer server(service, engine);

    Client idle(server.path());
    Client client(server.path());
    EXPECT_EQ(client.ask("PING"), "OK pong");
    EXPECT_EQ(client.ask("SHUTDOWN"), "OK bye");
    EXPECT_EQ(client.receive(), std::nullopt);
    server.join();  // run() returns without a stop request
    std::uint8_t byte = 0;
    EXPECT_EQ(::read(idle.fd, &byte, 1), 0);  // the drain closed the idle one too
}

TEST(ServeServer, ReadsAnswerFromTheOldVersionWhileACensusIsHeld) {
    ServeWorld world;
    GateTransport gate(*world.transport);
    core::CensusPlan plan = world.plan(40);
    plan.vantages = {&gate};
    serve::CensusService service(std::move(plan), on_demand_config(world));
    ASSERT_EQ(service.run_census_now(), 1u);
    const serve::QueryEngine engine(service.store());
    const std::string first_ip =
        net::IPv4Address(service.store().current()->records().front().target).to_string();
    RunningServer server(service, engine);

    gate.arm();
    Client writer(server.path());
    ASSERT_TRUE(writer.send("TRIGGER"));
    gate.wait_until_held();  // the census is mid-flight on the scheduler thread

    Client reader(server.path());
    const auto vendor = reader.ask("VENDOR " + first_ip);
    ASSERT_TRUE(vendor.has_value());
    EXPECT_EQ(vendor->rfind("OK version=1 ip=" + first_ip, 0), 0u) << *vendor;
    const auto stats = reader.ask("STATS");
    ASSERT_TRUE(stats.has_value());
    EXPECT_NE(stats->find(" version=1 "), std::string::npos) << *stats;

    gate.release();
    EXPECT_EQ(writer.receive(), "OK version=2");

    // Pipelined behind a census, a connection's answers keep request
    // order, and every TRIGGER runs its own census.
    ASSERT_TRUE(writer.send("TRIGGER"));
    ASSERT_TRUE(writer.send("PING"));
    ASSERT_TRUE(writer.send("TRIGGER"));
    EXPECT_EQ(writer.receive(), "OK version=3");
    EXPECT_EQ(writer.receive(), "OK pong");
    EXPECT_EQ(writer.receive(), "OK version=4");
    EXPECT_EQ(service.censuses_completed(), 4u);
}

TEST(ServeServer, HostileClientsDoNotStallOthers) {
    ServeWorld world;
    serve::CensusService service(world.plan(40), on_demand_config(world));
    ASSERT_EQ(service.run_census_now(), 1u);
    const serve::QueryEngine engine(service.store());
    RunningServer server(service, engine);

    Client idle(server.path());
    Client oversized(server.path());
    const auto header = bare_header(serve::kMaxRequestPayload + 1);
    ASSERT_TRUE(oversized.send_bytes(header.data(), header.size()));
    std::thread drip([&server] {
        Client slow(server.path());
        const auto frame = serve::encode_frame("STATS");
        for (const std::uint8_t byte : frame) {
            if (!slow.send_bytes(&byte, 1)) return;  // cut off: also fine
            std::this_thread::sleep_for(50ms);
        }
        const auto answer = slow.receive();
        if (answer) {
            EXPECT_EQ(answer->rfind("OK censuses=1", 0), 0u) << *answer;
        }
    });

    Client good(server.path());
    int answered = 0;
    for (int i = 0; i < 100; ++i) {
        if (good.ask("PING") == "OK pong") ++answered;
        std::this_thread::sleep_for(2ms);
    }
    EXPECT_EQ(answered, 100);
    EXPECT_EQ(oversized.receive().value_or("").rfind("ERR protocol: frame of", 0), 0u);
    drip.join();
}

TEST(ServeServer, IdleConnectionIsClosedAfterTheReadDeadline) {
    ServeWorld world;
    serve::CensusService service(world.plan(40), on_demand_config(world));
    const serve::QueryEngine engine(service.store());
    RunningServer server(service, engine);

    Client idle(server.path());
    const auto start = std::chrono::steady_clock::now();
    std::uint8_t byte = 0;
    EXPECT_EQ(::read(idle.fd, &byte, 1), 0);  // EOF: the server hung up
    const auto waited = std::chrono::steady_clock::now() - start;
    EXPECT_GE(waited, serve::kPeerDeadline - 50ms);
    EXPECT_LT(waited, serve::kPeerDeadline + 1000ms);

    // A connection that asks in time is answered, and its deadline starts
    // over from the answer.
    Client prompt(server.path());
    EXPECT_EQ(prompt.ask("PING"), "OK pong");
}

TEST(ServeServer, ConcurrentTriggerAndPathCensusCarryTheirOwnCounters) {
    ServeWorld world;
    serve::ServiceConfig config = on_demand_config(world);
    // Successive sweeps differ in size, so counters read from the wrong
    // census would show.
    auto sweeps = std::make_shared<std::atomic<int>>(0);
    config.paths = [topology = &world.topology, sweeps] {
        analysis::PathCensusConfig sweep;
        sweep.sources = 3;
        sweep.destinations = sweeps->fetch_add(1) % 2 == 0 ? 12 : 6;
        const analysis::PathCensus census(*topology, sweep);
        analysis::PathDiscovery discovery = census.discover();
        serve::PathSweep out;
        out.paths = discovery.hop_lists();
        out.path_lane = std::move(discovery.trace_source);
        return out;
    };
    serve::CensusService service(world.plan(40), config);
    const serve::QueryEngine engine(service.store());
    RunningServer server(service, engine);

    Client trigger(server.path());
    Client path_a(server.path());
    Client path_b(server.path());
    ASSERT_TRUE(trigger.send("TRIGGER"));
    ASSERT_TRUE(path_a.send("PATHCENSUS"));
    ASSERT_TRUE(path_b.send("PATHCENSUS"));
    const auto trigger_answer = trigger.receive();
    const auto answer_a = path_a.receive();
    const auto answer_b = path_b.receive();
    ASSERT_TRUE(trigger_answer && answer_a && answer_b);

    auto version_of = [](const std::string& answer) -> std::uint64_t {
        const std::size_t at = answer.find("version=");
        return at == std::string::npos ? 0 : std::stoull(answer.substr(at + 8));
    };
    std::vector<std::uint64_t> versions = {version_of(*trigger_answer), version_of(*answer_a),
                                           version_of(*answer_b)};
    std::sort(versions.begin(), versions.end());
    EXPECT_EQ(versions, (std::vector<std::uint64_t>{1, 2, 3}));

    std::vector<std::size_t> path_counts;
    for (const std::string& answer : {*answer_a, *answer_b}) {
        const auto snapshot = service.store().version(version_of(answer));
        ASSERT_NE(snapshot, nullptr) << answer;
        const core::PathTargets targets = core::PathTargets::from_paths(snapshot->paths());
        std::ostringstream expected;
        expected << "OK version=" << snapshot->version() << " paths=" << snapshot->paths().size()
                 << " hops=" << targets.hops_listed << " targets=" << snapshot->records().size()
                 << " duplicates=" << targets.duplicates_collapsed
                 << " unroutable=" << targets.unroutable_dropped;
        EXPECT_EQ(answer, expected.str());
        path_counts.push_back(snapshot->paths().size());
    }
    EXPECT_NE(path_counts[0], path_counts[1]);
}

#endif  // __linux__

}  // namespace
}  // namespace lfp

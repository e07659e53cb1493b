// lfp_serve: the census-as-a-service daemon over the simulated Internet.
//
// Builds a deterministic sim world (fixed seeds), runs an initial census,
// and serves VENDOR/ASMIX/PATH/DIFF/STATS/EXPORT/TRIGGER/PATHCENSUS
// queries over a unix-domain socket using the length-prefixed frame
// protocol in serve/wire.hpp. One epoll event loop (serve::Server) answers
// every connection; TRIGGER and PATHCENSUS censuses, the boot census and
// the --interval-ms timer passes all run on the census service's scheduler
// thread, so queries keep answering from the current snapshot while a
// census runs. PATHCENSUS runs a traceroute-discovery path census
// (LFP_PATH_* knobs) and stores the measured paths for PATH @<index>
// answers.
//
// --batch-csv PATH additionally runs the classic batch pipeline (probe →
// build database → classify → export CSV) over a *second* world rebuilt
// from the same seeds and writes its CSV there — the byte-identity
// reference the serve-smoke CI step diffs `lfp_query export` against.
#include <atomic>
#include <csignal>
#include <cstdint>
#include <exception>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/path_census.hpp"
#include "core/census.hpp"
#include "io/csv_export.hpp"
#include "probe/sim_transport.hpp"
#include "serve/query.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sim/internet.hpp"
#include "sim/topology.hpp"
#include "util/strings.hpp"

namespace {

using namespace lfp;

struct ServeArgs {
    std::string socket_path = serve::default_socket_path();
    std::string batch_csv;
    std::string state_dir;
    std::uint64_t interval_ms = 0;
    std::size_t passes = 3;
    std::size_t retain = 4;
    std::size_t target_limit = 0;  // 0 = every router
    double loss_rate = 0.02;
    double scale = 0.6;
};

void usage(std::ostream& out) {
    out << "usage: lfp_serve [--socket PATH] [--interval-ms N] [--passes N] [--retain N]\n"
           "                 [--targets N] [--loss RATE] [--scale S] [--batch-csv PATH]\n"
           "                 [--state-dir PATH]\n"
           "Serves census queries over a unix socket (protocol: serve/wire.hpp).\n"
           "Queries keep answering while a census runs; TRIGGER and PATHCENSUS answer\n"
           "their own client once their census publishes. Requests over 64 KiB, and\n"
           "connections silent for 2 s, are cut off.\n"
           "--state-dir persists snapshots and restores the newest on boot (degraded\n"
           "mode until the first fresh census publishes). SHUTDOWN, SIGTERM and SIGINT\n"
           "drain: every request already received is answered, then the socket is\n"
           "unlinked and the daemon exits.\n"
           "Environment: LFP_SERVE_SOCKET, LFP_SERVE_INTERVAL_MS, LFP_SERVE_RETAIN,\n"
           "             LFP_SERVE_STATE.\n";
}

/// SIGTERM/SIGINT raise the flag and, once the server exists, ask it to
/// drain (Server::request_stop is async-signal-safe).
std::atomic<bool> g_stop_requested{false};
std::atomic<serve::Server*> g_server{nullptr};

void handle_stop_signal(int) {
    g_stop_requested.store(true, std::memory_order_relaxed);
    if (serve::Server* server = g_server.load()) server->request_stop();
}

void install_stop_handlers() {
    struct sigaction action{};
    action.sa_handler = handle_stop_signal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESTART;  // the census threads' syscalls carry on
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);
}

/// The deterministic serving world: fixed topology/internet seeds so a
/// second process (or the --batch-csv reference pipeline) can rebuild an
/// identical Internet and probe it to identical records.
struct World {
    explicit World(const ServeArgs& args)
        : topology(sim::Topology::build({.seed = 77,
                                         .num_ases = 200,
                                         .tier1_count = 6,
                                         .transit_fraction = 0.2,
                                         .scale = args.scale})),
          internet(topology, {.seed = 13, .loss_rate = args.loss_rate}),
          transport(std::make_unique<probe::SimTransport>(internet)) {}

    [[nodiscard]] core::CensusPlan plan(const ServeArgs& args) const {
        core::CensusPlan plan;
        plan.name = "serve";
        for (std::size_t i = 0; i < topology.router_count(); ++i) {
            if (args.target_limit != 0 && plan.targets.size() >= args.target_limit) break;
            plan.targets.push_back(topology.router(i).interfaces().front());
        }
        plan.vantages.push_back(transport.get());
        plan.campaign.window = 32;
        plan.passes = args.passes;
        plan.worker_threads = 0;  // one worker per hardware thread
        return plan;
    }

    sim::Topology topology;
    sim::Internet internet;
    std::unique_ptr<probe::SimTransport> transport;
};

/// The batch reference: same seeds, same plan, classic measure → database →
/// classify → CSV pipeline. A fresh world is mandatory — simulated routers
/// are stateful, so re-probing the serving world would not reproduce the
/// first census.
bool write_batch_csv(const ServeArgs& args, const std::string& path) {
    World world(args);
    core::CensusRunner runner(world.plan(args));
    core::Measurement measurement = runner.measure_passes(runner.plan().name, runner.plan().targets);
    const core::SignatureDatabase database =
        runner.build_database(std::span<const core::Measurement>(&measurement, 1));
    runner.classify(measurement, database);
    std::ofstream out(path);
    if (!out) {
        std::cerr << "lfp_serve: cannot write " << path << '\n';
        return false;
    }
    io::export_measurement_csv(out, measurement);
    return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
    ServeArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto next = [&]() -> std::optional<std::string> {
            if (i + 1 >= argc) return std::nullopt;
            return std::string(argv[++i]);
        };
        if (flag == "--help" || flag == "-h") {
            usage(std::cout);
            return 0;
        }
        std::optional<std::string> value;
        bool parsed = true;
        if (flag == "--socket" && (value = next())) {
            args.socket_path = *value;
        } else if (flag == "--batch-csv" && (value = next())) {
            args.batch_csv = *value;
        } else if (flag == "--state-dir" && (value = next())) {
            args.state_dir = *value;
        } else if (flag == "--interval-ms" && (value = next())) {
            parsed = util::parse_number(*value, args.interval_ms);
        } else if (flag == "--passes" && (value = next())) {
            parsed = util::parse_number(*value, args.passes);
        } else if (flag == "--retain" && (value = next())) {
            parsed = util::parse_number(*value, args.retain);
        } else if (flag == "--targets" && (value = next())) {
            parsed = util::parse_number(*value, args.target_limit);
        } else if (flag == "--loss" && (value = next())) {
            parsed = util::parse_number(*value, args.loss_rate);
        } else if (flag == "--scale" && (value = next())) {
            parsed = util::parse_number(*value, args.scale);
        } else {
            parsed = false;
        }
        if (!parsed) {
            std::cerr << "lfp_serve: bad argument '" << flag
                      << (value ? " " + *value : std::string()) << "'\n";
            usage(std::cerr);
            return 2;
        }
    }

    if (!args.batch_csv.empty() && !write_batch_csv(args, args.batch_csv)) return 1;

    World world(args);
    serve::ServiceConfig config = serve::ServiceConfig::from_env();
    config.name = "serve";
    config.interval = std::chrono::milliseconds(
        args.interval_ms != 0 ? args.interval_ms
                              : static_cast<std::uint64_t>(config.interval.count()));
    config.retain = args.retain;
    config.run_immediately = false;  // the boot census is posted below
    if (!args.state_dir.empty()) config.state_dir = args.state_dir;
    sim::Topology& topology = world.topology;
    config.asn = [&topology](net::IPv4Address address) -> std::optional<std::uint32_t> {
        const std::size_t index = topology.find_by_interface(address);
        if (index == sim::Topology::npos) return std::nullopt;
        return topology.asn_of(index);
    };
    // Path discovery for the PATHCENSUS verb: a deterministic traceroute
    // sweep over the serving world (LFP_PATH_* knobs apply). The discovery
    // is a pure function of topology + config, so every PATHCENSUS probes
    // the same hop set — versions differ only by router state advancing.
    config.paths = [&topology]() {
        const analysis::PathCensus census(topology, analysis::PathCensusConfig::from_env());
        analysis::PathDiscovery discovery = census.discover();
        serve::PathSweep sweep;
        sweep.paths = discovery.hop_lists();
        sweep.path_lane = std::move(discovery.trace_source);
        return sweep;
    };

    install_stop_handlers();

    serve::CensusService service(world.plan(args), config);
    if (service.restore_latest()) {
        // Degraded boot: answer from the reloaded snapshot immediately and
        // refresh in the background — availability over freshness.
        const auto snapshot = service.store().current();
        std::cout << "lfp_serve: restored snapshot v" << snapshot->version() << " ("
                  << snapshot->records().size()
                  << " targets) from " << config.state_dir
                  << "; serving degraded until a fresh census publishes" << std::endl;
        service.trigger();
    } else {
        // The boot census runs on the scheduler thread like every later
        // census, so census allocations stay on one thread.
        std::promise<std::uint64_t> booted;
        service.post([&] { booted.set_value(service.run_census_now()); });
        const std::uint64_t version = booted.get_future().get();
        std::cout << "lfp_serve: published snapshot v" << version << " ("
                  << service.store().current()->records().size() << " targets, "
                  << service.store().current()->pass_stats().size() << " passes)"
                  << std::endl;
    }
    if (config.interval.count() > 0) service.start();

    const serve::QueryEngine engine(service.store());
    try {
        serve::Server server(args.socket_path, service, engine);
        struct Unpublish {
            ~Unpublish() { g_server.store(nullptr); }
        } unpublish;  // destroyed before `server`
        g_server.store(&server);
        if (g_stop_requested.load()) server.request_stop();
        std::cout << "lfp_serve: listening on " << args.socket_path << std::endl;
        server.run();
    } catch (const std::exception& error) {
        std::cerr << "lfp_serve: " << error.what() << '\n';
        return 1;
    }
    if (g_stop_requested.load()) {
        std::cout << "lfp_serve: stop signal received, drained and exiting" << std::endl;
    }
    return 0;
}

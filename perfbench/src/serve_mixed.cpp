// serve-mixed: the real lfp_serve daemon as a child process on a unix socket
// in a private temp dir, driven by one open-loop generator thread that
// connects per request (as lfp_query does) with at most nproc exchanges in
// flight. Reads are mostly VENDOR over census targets plus a share of
// unknown addresses, some ASMIX and PATH <hops>; the write is a TRIGGER at a
// fixed period, followed by one EXPORT of the version it published.
//   1. reads only, every in-flight slot kept busy: query_max_qps;
//   2. reads beside writes at a fixed rate: the latency metrics and
//      publish_ms.
// Every answer is checked against the EXPORT of the version it cites.
#include <algorithm>
#include <deque>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <thread>
#include <unordered_map>

#include <sched.h>
#include <sys/prctl.h>

#include "common.hpp"
#include "probe/sim_transport.hpp"
#include "serve/query.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "census_common.hpp"
#include "serve_client.hpp"
#include "sim/internet.hpp"
#include "sim/topology.hpp"
#include "stack/vendor.hpp"

namespace lfpbench {
namespace {

using namespace lfp;

// The daemon's world. lfp_serve builds it from fixed seeds (77/13) and
// these flags; the benchmark rebuilds the same topology for ground truth
// and for the in-process replay.
constexpr double kScale = 0.6;
constexpr std::size_t kPasses = 3;
constexpr double kLoss = 0.02;
sim::TopologyConfig daemon_topology() {
    return {.seed = 77, .num_ases = 200, .tier1_count = 6, .transit_fraction = 0.2,
            .scale = kScale};
}

constexpr int kBoots = 5;
constexpr int kMinRounds = 3;
// Reads only: nproc exchanges always in flight for one window per round.
constexpr double kWindowSeconds = 0.25;
// Reads beside writes: a fixed 5000 req/s, with the round's TRIGGER due
// kTriggerDelayS in and kCycleSeconds of reads after it. A TRIGGER stall
// (~100-300 ms) and the backlog it leaves cover well under half of a
// cycle's reads: the median stays a read's cost, the p99 a stalled one. The
// p99 is taken per cycle (3750 reads, 37 beyond it) and the mean over
// cycles reported, so it stands for a typical stall, not the run's longest.
// Not the median: TRIGGERs, and so the per-cycle p99s, fall in two groups
// (~85 ms and ~125 ms here), and a median of ~20 cycles jumps between them.
// At this rate a read arrives every 200 us, so the daemon's CPU does not
// halt between reads; at 1200 req/s it did, and the median read measured
// how long the hypervisor took to wake it.
constexpr double kMixedRate = 5000.0;
constexpr double kTriggerDelayS = 0.1;
constexpr double kCycleSeconds = 0.75;
constexpr double kRequestTimeoutS = 10.0;

enum class Verb : std::uint8_t { vendor, asmix, path, export_, trigger };
constexpr const char* kVerbNames[] = {"vendor", "asmix", "path", "export", "trigger"};

struct Row {
    bool responsive = false;
    std::string snmp, lfp, kind, pass;
    [[nodiscard]] std::string combined() const {
        if (!snmp.empty()) return snmp;
        return lfp.empty() ? std::string("-") : lfp;
    }
};
using Export = std::unordered_map<std::string, Row>;

Export parse_export(const std::string& csv) {
    Export out;
    std::istringstream in(csv);
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
        std::string fields[6];
        std::size_t at = 0;
        for (int f = 0; f < 6; ++f) {
            const std::size_t comma = line.find(',', at);
            fields[f] = line.substr(at, comma == std::string::npos ? comma : comma - at);
            at = comma == std::string::npos ? line.size() : comma + 1;
        }
        out[fields[0]] = {fields[1] != "0", fields[2], fields[3], fields[4], fields[5]};
    }
    return out;
}

/// "key=value" tokens of an "OK ..." answer.
std::map<std::string, std::string> fields_of(const std::string& answer) {
    std::map<std::string, std::string> out;
    std::istringstream in(answer);
    std::string token;
    while (in >> token) {
        const auto eq = token.find('=');
        if (eq != std::string::npos) out[token.substr(0, eq)] = token.substr(eq + 1);
    }
    return out;
}

struct Request {
    Verb verb = Verb::vendor;
    std::string payload;
};

/// The read mix, generated from the seed: 75% VENDOR (a tenth of them for
/// addresses outside the census), 10% ASMIX, 15% PATH over 2-6 hops. These
/// proportions are assumed, not measured: no recorded lfp_serve or
/// lfp_query traffic exists to take them from. They stand for an operator
/// workload dominated by point lookups of census addresses (with some
/// misses), plus occasional per-AS summaries and short-path verdicts.
class Mix {
  public:
    Mix(std::uint64_t seed, std::vector<std::string> addresses, std::vector<std::uint32_t> asns)
        : rng_(seed), addresses_(std::move(addresses)), asns_(std::move(asns)) {}

    Request next() {
        const std::uint64_t pick = rng_() % 100;
        if (pick < 75) return {Verb::vendor, "VENDOR " + address()};
        if (pick < 85) {
            return {Verb::asmix, "ASMIX " + std::to_string(asns_[rng_() % asns_.size()])};
        }
        std::string payload = "PATH";
        const std::uint64_t hops = 2 + rng_() % 5;
        for (std::uint64_t h = 0; h < hops; ++h) payload += " " + address();
        return {Verb::path, payload};
    }

  private:
    std::string address() {
        if (rng_() % 10 == 0) return "203.0.113." + std::to_string(rng_() % 256);
        return addresses_[rng_() % addresses_.size()];
    }

    std::mt19937_64 rng_;
    std::vector<std::string> addresses_;
    std::vector<std::uint32_t> asns_;
};

struct Exchange {
    Request request;
    std::int64_t due_ns = 0;
    std::int64_t launched_ns = 0;
    std::int64_t connected_ns = 0;
    std::int64_t finished_ns = 0;
    bool ok = false;
    std::string response;
    [[nodiscard]] double latency_us() const {
        return static_cast<double>(finished_ns - due_ns) / 1e3;
    }
    [[nodiscard]] double rtt_us() const {
        return static_cast<double>(finished_ns - launched_ns) / 1e3;
    }
    [[nodiscard]] bool read() const {
        return request.verb != Verb::export_ && request.verb != Verb::trigger;
    }
};

Exchange due_at(Request request, std::int64_t due_ns) {
    Exchange out;
    out.request = std::move(request);
    out.due_ns = due_ns;
    return out;
}

/// Checks answers against the EXPORT of the version they cite and tallies
/// the served PATH verdicts against the world's ground truth.
class Checker {
  public:
    Checker(Report& report, const sim::Topology& truth) : report_(report), truth_(truth) {}

    void add_export(std::uint64_t version, const std::string& csv) {
        exports_[version] = parse_export(csv);
    }
    [[nodiscard]] const Export* export_of(std::uint64_t version) const {
        const auto it = exports_.find(version);
        return it == exports_.end() ? nullptr : &it->second;
    }

    /// Checks one read; defers it when its version's EXPORT is not in yet.
    void check(const Exchange& exchange) {
        const auto fields = fields_of(exchange.response);
        const auto cited = fields.find("version");
        const std::uint64_t version =
            cited == fields.end() ? 0 : std::strtoull(cited->second.c_str(), nullptr, 10);
        if (exchange.response.rfind("OK ", 0) != 0 || version == 0) {
            return wrong(exchange, "not an OK answer");
        }
        const Export* rows = export_of(version);
        if (rows == nullptr) {
            deferred_.push_back(exchange);
            return;
        }
        switch (exchange.request.verb) {
            case Verb::vendor: return check_vendor(exchange, fields, *rows);
            case Verb::asmix: return check_asmix(exchange, fields);
            case Verb::path: return check_path(exchange, *rows);
            default: return;
        }
    }
    /// Re-checks deferred answers; any still without an EXPORT fails.
    void finish() {
        std::vector<Exchange> pending;
        pending.swap(deferred_);
        for (const Exchange& exchange : pending) check(exchange);
        for (const Exchange& exchange : deferred_) {
            wrong(exchange, "cites a version never exported");
        }
        deferred_.clear();
    }

    std::uint64_t truth_known = 0, measured_known = 0, both_known = 0, matches = 0;

  private:
    void wrong(const Exchange& exchange, const std::string& why) {
        report_.fail("serve-mixed: '" + exchange.request.payload + "' -> '" +
                     exchange.response.substr(0, 160) + "': " + why);
    }

    void check_vendor(const Exchange& exchange, const std::map<std::string, std::string>& fields,
                      const Export& rows) {
        const std::string ip = exchange.request.payload.substr(7);
        const auto row = rows.find(ip);
        const bool known = fields.count("known") && fields.at("known") == "1";
        if (row == rows.end()) {
            if (known) wrong(exchange, "known address missing from the EXPORT");
            return;
        }
        const Row& r = row->second;
        auto field = [&](const char* key) {
            return fields.count(key) ? fields.at(key) : std::string("?");
        };
        const bool same = known && field("ip") == ip &&
                          field("snmp") == (r.snmp.empty() ? "-" : r.snmp) &&
                          field("lfp") == (r.lfp.empty() ? "-" : r.lfp) &&
                          field("kind") == r.kind && field("pass") == r.pass &&
                          (!r.responsive || field("responsive") == "1");
        if (!same) wrong(exchange, "differs from the EXPORT row");
    }

    void check_asmix(const Exchange& exchange, const std::map<std::string, std::string>& fields) {
        if (!fields.count("asn") || "ASMIX " + fields.at("asn") != exchange.request.payload) {
            wrong(exchange, "answers another AS");
        }
    }

    void check_path(const Exchange& exchange, const Export& rows) {
        const auto bar = exchange.response.find(" |");
        if (bar == std::string::npos) return wrong(exchange, "no hop list");
        std::istringstream hops(exchange.response.substr(bar + 2));
        std::istringstream asked(exchange.request.payload.substr(5));
        std::string hop, ip;
        while (asked >> ip) {
            if (!(hops >> hop)) return wrong(exchange, "fewer hops than asked");
            const auto eq = hop.find('=');
            if (eq == std::string::npos || hop.substr(0, eq) != ip) {
                return wrong(exchange, "hop order");
            }
            const std::string verdict = hop.substr(eq + 1);
            const auto row = rows.find(ip);
            const std::string expected = row == rows.end() ? "?" : row->second.combined();
            if (verdict != expected) {
                return wrong(exchange, "hop " + ip + " differs from the EXPORT");
            }
            tally_truth(ip, verdict);
        }
    }

    void tally_truth(const std::string& ip, const std::string& verdict) {
        const auto address = net::IPv4Address::parse(ip);
        if (!address) return;
        const std::size_t index = truth_.find_by_interface(address.value());
        const bool truth = index != sim::Topology::npos;
        const bool measured = verdict != "?" && verdict != "-";
        truth_known += truth;
        measured_known += measured;
        if (truth && measured) {
            ++both_known;
            matches += verdict == stack::to_string(truth_.router(index).vendor());
        }
    }

    Report& report_;
    const sim::Topology& truth_;
    std::map<std::uint64_t, Export> exports_;
    std::vector<Exchange> deferred_;
};

/// One phase: reads at `rate` from `start_ns` until `end_ns` (open loop),
/// or with every in-flight slot kept busy when `rate` is 0 (saturation);
/// plus, when `trigger_delay_s` > 0, one TRIGGER due that long after the
/// start, followed by an EXPORT. Every read that fell due is served before
/// it returns.
struct PhaseResult {
    std::vector<Exchange> done;
    std::vector<double> lateness_us;
};

PhaseResult run_phase(Generator& generator, Mix& mix, double rate, std::int64_t start_ns,
                      std::int64_t end_ns, double trigger_delay_s = 0.0) {
    PhaseResult result;
    std::deque<Exchange> pending;
    std::unordered_map<std::uint64_t, Exchange> in_flight;
    std::uint64_t next_id = 0;
    std::uint64_t reads_scheduled = 0;
    const double interval_ns = rate > 0 ? 1e9 / rate : 0.0;
    std::int64_t next_read = start_ns;
    std::int64_t next_trigger =
        trigger_delay_s > 0 ? start_ns + static_cast<std::int64_t>(trigger_delay_s * 1e9)
                            : INT64_MAX;
    bool write_outstanding = false;
    const std::int64_t drain_deadline = end_ns + static_cast<std::int64_t>(kRequestTimeoutS * 2e9);
    std::vector<Generator::Done> finished;

    while (true) {
        const std::int64_t now = now_ns();
        if (rate > 0) {
            while (next_read <= now && next_read < end_ns) {
                pending.push_back(due_at(mix.next(), next_read));
                ++reads_scheduled;
                next_read = start_ns + static_cast<std::int64_t>(
                                           static_cast<double>(reads_scheduled) * interval_ns);
            }
        } else if (now >= start_ns && now < end_ns && pending.empty() && generator.can_launch()) {
            pending.push_back(due_at(mix.next(), now));
        }
        if (!write_outstanding && next_trigger <= now && next_trigger < end_ns) {
            pending.push_front(due_at({Verb::trigger, "TRIGGER"}, next_trigger));
            write_outstanding = true;
            next_trigger = INT64_MAX;
        }
        bool backlog_full = false;
        while (!pending.empty() && generator.can_launch()) {
            Exchange& next = pending.front();
            if (!generator.launch(next_id, next.request.payload, finished)) {
                backlog_full = true;
                break;
            }
            result.lateness_us.push_back(static_cast<double>(now_ns() - next.due_ns) / 1e3);
            in_flight.emplace(next_id++, std::move(next));
            pending.pop_front();
        }
        const bool past_end = now >= end_ns;
        if (past_end && pending.empty() && in_flight.empty() && !write_outstanding) break;
        if (now > drain_deadline) {
            // A hung daemon: whatever is still waiting fails, the run goes on.
            for (Exchange& e : pending) {
                e.response = "never sent: daemon not accepting";
                result.done.push_back(std::move(e));
            }
            for (auto& [id, e] : in_flight) {
                e.response = "no answer before the drain deadline";
                result.done.push_back(std::move(e));
            }
            break;
        }

        std::int64_t until = std::min(rate > 0 && next_read < end_ns ? next_read : end_ns,
                                      next_trigger);
        if (rate <= 0 && !past_end) {
            until = now < start_ns ? start_ns : (generator.can_launch() ? now : until);
        }
        if (backlog_full) until = std::min(until, now + 50'000);
        if (past_end) until = now + 1'000'000;
        generator.poll(until, finished);
        for (Generator::Done& d : finished) {
            auto it = in_flight.find(d.id);
            if (it == in_flight.end()) continue;
            Exchange e = std::move(it->second);
            in_flight.erase(it);
            e.launched_ns = d.launched_ns;
            e.connected_ns = d.connected_ns;
            e.finished_ns = d.finished_ns;
            e.ok = d.ok && d.response.rfind("ERR", 0) != 0;
            e.response = std::move(d.response);
            if (e.request.verb == Verb::trigger) {
                if (e.ok) {
                    pending.push_front(due_at({Verb::export_, "EXPORT"}, now_ns()));
                } else {
                    write_outstanding = false;
                }
            } else if (e.request.verb == Verb::export_) {
                write_outstanding = false;
            }
            result.done.push_back(std::move(e));
        }
        finished.clear();
    }
    return result;
}

/// A copy of the daemon's census service, built in-process from the same
/// world, with its vantage behind the benchmark's decorator.
struct Replica {
    explicit Replica(bool timed)
        : topology(sim::Topology::build(daemon_topology())),
          internet(topology, {.seed = 13, .loss_rate = kLoss}),
          transport(internet),
          lanes(std::span<probe::ProbeTransport* const>(&inner, 1), timed) {
        core::CensusPlan plan;
        plan.name = "serve";
        for (std::size_t i = 0; i < topology.router_count(); ++i) {
            plan.targets.push_back(topology.router(i).interfaces().front());
        }
        plan.vantages = lanes.vantages();
        plan.campaign.window = 32;
        plan.passes = kPasses;
        plan.worker_threads = 0;
        serve::ServiceConfig config;
        config.name = "serve";
        config.run_immediately = false;
        config.asn = [this](net::IPv4Address address) -> std::optional<std::uint32_t> {
            const std::size_t index = topology.find_by_interface(address);
            if (index == sim::Topology::npos) return std::nullopt;
            return topology.asn_of(index);
        };
        service = std::make_unique<serve::CensusService>(std::move(plan), config);
    }
    Replica(const Replica&) = delete;
    Replica& operator=(const Replica&) = delete;

    sim::Topology topology;
    sim::Internet internet;
    probe::SimTransport transport;
    probe::ProbeTransport* inner = &transport;
    Lanes lanes;
    std::unique_ptr<serve::CensusService> service;
};

/// One TRIGGER census on a fresh replica, read like a census workload's.
Iteration replica_census(Replica& replica, bool timed, Tracer& tracer) {
    Iteration it;
    set_alloc_counting(timed);
    const AllocCounts allocs_before = alloc_counts();
    const IoCounters io_before = io_counters();
    const double cpu_before = process_cpu_s();
    const auto start = Clock::now();
    {
        ScopedSpan span(tracer, "serve.run_census_now");
        replica.service->run_census_now();
    }
    it.wall_s = seconds_since(start);
    it.cpu_s = process_cpu_s() - cpu_before;
    const IoCounters io_after = io_counters();
    const AllocCounts allocs_after = alloc_counts();
    set_alloc_counting(false);
    it.targets = replica.topology.router_count();
    it.io = {io_after.read_bytes - io_before.read_bytes,
             io_after.write_bytes - io_before.write_bytes};
    for (std::size_t s = 0; s < it.allocs.size(); ++s) {
        it.allocs[s] = allocs_after[s] - allocs_before[s];
    }
    read_census(it, replica.lanes, replica.service->runner());
    return it;
}

/// The serve workload's layers, in-process: the daemon's TRIGGER census on
/// a replica (untraced, then traced, for the census layer metrics), then
/// the same read mix replayed through serve::handle_request on the traced
/// replica: per-verb handler time and the frame encode/decode cost.
void replay_in_process(Report& report, Tracer& tracer, Mix mix, std::size_t reads) {
    const Iteration untraced = [&] {
        Replica replica(false);
        return replica_census(replica, false, tracer);
    }();
    Replica replica(true);
    const Iteration traced = replica_census(replica, true, tracer);
    report_census_layers(report, {traced}, untraced.targets_per_s());
    serve::CensusService& service = *replica.service;
    const serve::QueryEngine engine(service.store());

    std::vector<double> handler_ns[4];
    double frame_ns = 0.0;
    auto run = [&](const Request& request) {
        const std::int64_t frame_start = now_ns();
        serve::FrameDecoder decoder;
        const std::vector<std::uint8_t> in = serve::encode_frame(request.payload);
        decoder.feed(in.data(), in.size());
        const std::optional<std::string> decoded = decoder.next();
        const std::int64_t handler_start = now_ns();
        const serve::RequestOutcome outcome = serve::handle_request(*decoded, service, engine);
        const std::int64_t handler_end = now_ns();
        const std::vector<std::uint8_t> out = serve::encode_frame(outcome.response);
        frame_ns += static_cast<double>((handler_start - frame_start) + (now_ns() - handler_end));
        handler_ns[static_cast<int>(request.verb)].push_back(
            static_cast<double>(handler_end - handler_start));
    };
    for (std::size_t i = 0; i < reads; ++i) run(mix.next());
    for (int i = 0; i < 5; ++i) run({Verb::export_, "EXPORT"});
    for (int v = 0; v < 4; ++v) {
        report.metric(std::string("serve.handle_request_ns.") + kVerbNames[v],
                      median(handler_ns[v]), "ns");
    }
    report.metric("serve.frame_ns", frame_ns / static_cast<double>(reads + 5), "ns");
}

/// Splits the CPUs this process may use: the last one for the daemon, the
/// rest for the benchmark, which it pins itself to (threads started later
/// inherit that). Returns the daemon's CPU, or -1 with fewer than two CPUs.
int split_cpus() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0 || CPU_COUNT(&allowed) < 2) {
        return -1;
    }
    int daemon_cpu = -1;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) daemon_cpu = cpu;
    }
    CPU_CLR(daemon_cpu, &allowed);
    if (::sched_setaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
    return daemon_cpu;
}

}  // namespace

int run_serve_mixed(const Args& args, Report& report, Tracer& tracer) {
    const std::size_t max_in_flight = std::max(1u, std::thread::hardware_concurrency());
    const std::string dir = make_private_dir(args.work_dir, "serve-");
    struct Cleanup {
        std::string dir;
        ~Cleanup() { remove_tree(dir); }
    } cleanup{dir};
    const std::vector<std::string> flags = {"--passes", std::to_string(kPasses),
                                            "--scale",  std::to_string(kScale),
                                            "--loss",   std::to_string(kLoss)};
    // The daemon gets one CPU of its own and the generator the others, so
    // neither runs on the other's CPU. On one CPU, the daemon's census hands
    // work between its threads without waking an idle CPU: on a shared VM
    // such a wake waits for the hypervisor, and a TRIGGER spread over every
    // CPU read up to 1.7x slower whenever the host was busy.
    const int daemon_cpu = split_cpus();
    const auto run_start = Clock::now();

    // Set-up: spawn until the first PING is answered (the daemon builds its
    // world and publishes its first census before listening), several
    // times; the last daemon serves the run.
    std::vector<double> boot_s;
    std::unique_ptr<Daemon> daemon;
    for (int boot = 0; boot < kBoots; ++boot) {
        if (daemon) {
            report.check(daemon->stop(), "serve-mixed: daemon left on SHUTDOWN");
        }
        const auto start = Clock::now();
        daemon = std::make_unique<Daemon>(args.serve_binary, make_private_dir(dir, "d"), flags,
                                          daemon_cpu);
        report.attempt();
        if (!daemon->wait_ready(60.0)) {
            report.fail("serve-mixed: daemon did not answer PING within 60 s");
            return 0;
        }
        boot_s.push_back(seconds_since(start));
    }
    const std::string& socket = daemon->socket_path();

    // Inputs: the census addresses of version 1; ASNs and ground truth from
    // the same topology the daemon built.
    const sim::Topology truth = sim::Topology::build(daemon_topology());
    Checker checker(report, truth);
    const auto first_export = request_once(socket, "EXPORT", kRequestTimeoutS);
    report.attempt();
    if (!first_export) {
        report.fail("serve-mixed: no EXPORT of version 1");
        return 0;
    }
    checker.add_export(1, *first_export);
    std::vector<std::string> addresses;
    for (const auto& [ip, row] : *checker.export_of(1)) addresses.push_back(ip);
    std::sort(addresses.begin(), addresses.end());
    std::vector<std::uint32_t> asns;
    for (std::size_t r = 0; r < truth.router_count(); ++r) asns.push_back(truth.asn_of(r));
    std::sort(asns.begin(), asns.end());
    asns.erase(std::unique(asns.begin(), asns.end()), asns.end());
    const std::uint64_t snapshot_targets = addresses.size();
    Mix mix(args.seed, addresses, asns);
    const Mix replay_mix = mix;

    // The generator sleeps in epoll until the next read falls due; without
    // this the kernel may wake it up to 50 us (the default timer slack) late.
    // Set after the daemons are spawned, so they keep the default.
    ::prctl(PR_SET_TIMERSLACK, 1UL);
    Generator generator(socket, max_in_flight, kRequestTimeoutS);
    std::uint64_t next_version = 2;
    std::vector<double> publish_ms, export_mb_per_s;
    std::vector<Exchange> all;
    auto account = [&](std::vector<Exchange>& done, bool measured) {
        for (Exchange& e : done) {
            report.attempt();
            if (!e.ok) {
                report.fail("serve-mixed: " + e.request.payload.substr(0, 40) + ": " +
                            e.response.substr(0, 120));
            } else if (e.read()) {
                checker.check(e);
            } else if (e.request.verb == Verb::trigger) {
                const std::uint64_t version =
                    std::strtoull(fields_of(e.response)["version"].c_str(), nullptr, 10);
                report.check(version == next_version, "serve-mixed: TRIGGER returned version " +
                                                          std::to_string(version) + ", expected " +
                                                          std::to_string(next_version));
                next_version = version + 1;
                if (measured) publish_ms.push_back(e.rtt_us() / 1e3);
            } else if (e.request.verb == Verb::export_) {
                checker.add_export(next_version - 1, e.response);
                if (measured) {
                    export_mb_per_s.push_back(static_cast<double>(e.response.size()) / e.rtt_us());
                }
            }
            if (tracer.enabled()) {
                tracer.record(kVerbNames[static_cast<int>(e.request.verb)], e.launched_ns,
                              e.finished_ns, all.size());
            }
            all.push_back(std::move(e));
        }
    };

    // The run alternates rounds of three parts, so a stretch of host noise
    // lands on a minority of every metric's samples: (1) a reads-only window
    // with every in-flight slot busy; (2) a TRIGGER cycle of reads beside
    // writes; (3) a TRIGGER alone, for the daemon's CPU per census, and the
    // EXPORT of the version it published. Both TRIGGERs of a round are
    // publish_ms samples: in the cycle, the reads wait in the listen backlog
    // while the census runs, so the daemon does the same work either way.
    std::vector<double> window_qps, cycle_p99, mixed_latency, lateness;
    // The daemon's CPU clock ticks in 10 ms steps, coarse beside one
    // TRIGGER's ~100 ms: sum every round's TRIGGER alone before dividing.
    double daemon_cpu_saturated = 0.0, daemon_cpu_triggers = 0.0;
    std::uint64_t trigger_targets = 0;
    std::uint64_t saturated_reads = 0, cycle_reads = 0, stalled = 0, cycles = 0;
    const auto window_ns = static_cast<std::int64_t>(kWindowSeconds * 1e9);
    const auto cycle_ns = static_cast<std::int64_t>((kTriggerDelayS + kCycleSeconds) * 1e9);

    auto saturate = [&](bool measured, std::uint64_t round) {
        ScopedSpan span(tracer, "serve.saturate", round);
        const double cpu_before = proc_cpu_s(daemon->pid());
        const std::int64_t start = now_ns() + 1'000'000;
        PhaseResult window = run_phase(generator, mix, 0.0, start, start + window_ns);
        if (measured) {
            daemon_cpu_saturated += proc_cpu_s(daemon->pid()) - cpu_before;
            std::uint64_t answered = 0;
            for (const Exchange& e : window.done) {
                answered += e.ok && e.finished_ns < start + window_ns;
            }
            window_qps.push_back(static_cast<double>(answered) / kWindowSeconds);
            saturated_reads += window.done.size();
        }
        account(window.done, measured);
    };
    auto trigger_alone = [&](bool measured, std::uint64_t round) {
        ScopedSpan span(tracer, "serve.trigger_alone", round);
        const double cpu_before = proc_cpu_s(daemon->pid());
        const auto start = Clock::now();
        const auto answer = request_once(socket, "TRIGGER", kRequestTimeoutS);
        const double rtt_ms = seconds_since(start) * 1e3;
        const double cpu = proc_cpu_s(daemon->pid()) - cpu_before;
        const auto csv = request_once(socket, "EXPORT", kRequestTimeoutS);
        report.attempt(2);
        if (!answer || answer->rfind("OK version=", 0) != 0 || !csv) {
            report.fail("serve-mixed: TRIGGER alone or its EXPORT failed");
            return;
        }
        const std::uint64_t version = std::strtoull(answer->c_str() + 11, nullptr, 10);
        report.check(version == next_version,
                     "serve-mixed: TRIGGER alone returned version " + std::to_string(version));
        next_version = version + 1;
        checker.add_export(version, *csv);
        if (measured) {
            publish_ms.push_back(rtt_ms);
            daemon_cpu_triggers += cpu;
            trigger_targets += snapshot_targets;
        }
    };

    // Warm-up, checked but not timed: the daemon's first reads and its
    // first TRIGGER after boot.
    saturate(false, 0);
    trigger_alone(false, 0);

    double round_s = 0.0;
    for (int round = 0; round < kMinRounds || seconds_since(run_start) + round_s <= args.seconds;
         ++round) {
        const auto round_start = Clock::now();
        saturate(true, static_cast<std::uint64_t>(round));
        {
            ScopedSpan span(tracer, "serve.cycle", static_cast<std::uint64_t>(round));
            const std::int64_t start = now_ns() + 1'000'000;
            PhaseResult cycle =
                run_phase(generator, mix, kMixedRate, start, start + cycle_ns, kTriggerDelayS);
            const auto trigger = std::find_if(cycle.done.begin(), cycle.done.end(),
                                              [](const Exchange& e) {
                                                  return e.request.verb == Verb::trigger && e.ok;
                                              });
            std::vector<double> after_trigger;
            for (const Exchange& r : cycle.done) {
                if (!r.read() || !r.ok) continue;
                ++cycle_reads;
                mixed_latency.push_back(r.latency_us());
                if (trigger == cycle.done.end()) continue;
                stalled += r.due_ns < trigger->finished_ns && r.finished_ns > trigger->launched_ns;
                if (r.due_ns >= trigger->due_ns) after_trigger.push_back(r.latency_us());
            }
            if (after_trigger.size() >= 1000) {
                cycle_p99.push_back(percentile(std::move(after_trigger), 0.99));
            }
            cycles += trigger != cycle.done.end();
            lateness.insert(lateness.end(), cycle.lateness_us.begin(), cycle.lateness_us.end());
            account(cycle.done, true);
        }
        trigger_alone(true, static_cast<std::uint64_t>(round));
        round_s = seconds_since(round_start);
    }
    checker.finish();

    const double daemon_rss_mb = static_cast<double>(peak_rss_bytes(daemon->pid())) / 1e6;
    report.check(daemon->stop(), "serve-mixed: daemon left on SHUTDOWN");
    std::cout << "serve-mixed: " << all.size() << " requests: " << saturated_reads
              << " at saturation, " << cycle_reads << " reads beside " << cycles
              << " TRIGGERs (" << stalled << " stalled), " << cycle_p99.size()
              << " cycles with a p99\n";
    auto samples = [](const char* name, const std::vector<double>& values) {
        std::cout << "serve-mixed: " << name << ":";
        for (double v : values) std::cout << ' ' << std::setprecision(4) << v;
        std::cout << '\n';
    };
    samples("TRIGGER round trips (ms)", publish_ms);
    samples("per-cycle read p99 (us)", cycle_p99);
    samples("saturated windows (req/s)", window_qps);

    if (!args.trace) {
        report.metric("setup_s", median(boot_s), "s");
        // The mean, not the median: TRIGGERs fall in two groups (~85 ms and
        // ~125 ms here), and a median of ~40 jumps between them.
        const double publish = mean(publish_ms);
        report.metric("targets_per_s", static_cast<double>(snapshot_targets) / (publish / 1e3),
                      "1/s");
        report.metric("cpu_ms_per_ktarget",
                      daemon_cpu_triggers * 1e6 /
                          static_cast<double>(std::max<std::uint64_t>(1, trigger_targets)),
                      "ms");
        report.metric("peak_rss_mb", daemon_rss_mb, "MB");
        report.metric("query_p50_us", percentile(mixed_latency, 0.50), "us");
        report.metric("query_p99_us", mean(cycle_p99), "us");
        report.metric("query_max_qps", median(window_qps), "1/s");
        report.metric("publish_ms", publish, "ms");
        report.metric("path_accuracy",
                      checker.both_known == 0 ? 0.0
                                              : static_cast<double>(checker.matches) /
                                                    static_cast<double>(checker.both_known),
                      "ratio");
        report.metric("path_coverage",
                      checker.truth_known == 0 ? 0.0
                                               : static_cast<double>(checker.measured_known) /
                                                     static_cast<double>(checker.truth_known),
                      "ratio");
        return 0;
    }

    std::vector<double> connect_us;
    std::vector<double> rtt[4];
    for (const Exchange& e : all) {
        if (!e.ok) continue;
        connect_us.push_back(static_cast<double>(e.connected_ns - e.launched_ns) / 1e3);
        const int verb = static_cast<int>(e.request.verb);
        if (verb < 4) rtt[verb].push_back(e.rtt_us());
    }
    report.metric("serve.connect_us", median(connect_us), "us");
    for (int v = 0; v < 4; ++v) {
        const std::string name = std::string("serve.rtt_us.") + kVerbNames[v];
        report.metric(name + ".p50", percentile(rtt[v], 0.50), "us");
        report.metric(name + ".p99", percentile(rtt[v], 0.99), "us");
    }
    report.metric("serve.gen_late_us.p99", percentile(lateness, 0.99), "us");
    report.metric("serve.stalled_ratio",
                  static_cast<double>(stalled) / static_cast<double>(std::max<std::uint64_t>(
                                                     1, cycle_reads)),
                  "ratio");
    report.metric("serve.daemon_cpu_ms_per_kquery",
                  daemon_cpu_saturated * 1e3 / (static_cast<double>(saturated_reads) / 1e3), "ms");
    report.metric("io.export_mb_per_s", median(export_mb_per_s), "MB/s");
    {
        ScopedSpan span(tracer, "serve.replay");
        replay_in_process(report, tracer, replay_mix, 20000);
    }
    return 0;
}

}  // namespace lfpbench

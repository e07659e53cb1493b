// Live probe: run the genuine LFP campaign against real targets over raw
// sockets (Linux, CAP_NET_RAW). The identical pipeline that runs in
// simulation — same packets, same features, same signatures.
//
// Without privileges (or without --yes-i-am-authorized) it stays in dry-run
// mode: packets are built and the pipeline exercised, nothing leaves the
// host. Probing networks you do not own or lack authorization for may be
// illegal; the paper's §5 ethics discussion applies to you too.
//
// Usage: live_probe [--yes-i-am-authorized] <ip> [<ip> ...]

#include <iostream>
#include <string>
#include <vector>

#include "core/census.hpp"
#include "probe/raw_socket_transport.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
    using namespace lfp;

    bool authorized = false;
    std::vector<net::IPv4Address> targets;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--yes-i-am-authorized") {
            authorized = true;
            continue;
        }
        auto parsed = net::IPv4Address::parse(arg);
        if (!parsed) {
            std::cerr << "not an IPv4 address: " << arg << "\n";
            return 1;
        }
        targets.push_back(parsed.value());
    }
    if (targets.empty()) {
        targets.push_back(net::IPv4Address::from_octets(127, 0, 0, 1));
        std::cout << "no targets given; dry-running against 127.0.0.1\n";
    }

    probe::RawSocketTransport::Options options;
    options.timeout = std::chrono::milliseconds(800);
    options.dry_run = !authorized;
    probe::RawSocketTransport transport(options);
    std::cout << "transport: " << transport.status() << "\n";
    if (!authorized) {
        std::cout << "(dry run: pass --yes-i-am-authorized to actually send packets;\n"
                     " only probe infrastructure you are authorized to measure)\n";
    }

    // Declarative census plan: one vantage lane over this transport, up to
    // 32 targets in flight (sends stay in the fixed global order; responses
    // are demultiplexed by flow key as they arrive; window = 1 would
    // reproduce serial pacing). A real multi-origin deployment would list
    // one transport per vantage here and the runner would partition the
    // target list across them.
    core::CensusPlan plan;
    plan.vantages = {&transport};
    plan.campaign.window = 32;
    plan.campaign.response_timeout = options.timeout;
    plan.worker_threads = 0;  // one feature-extraction shard per core
    core::CensusRunner runner(std::move(plan));
    auto measurement = runner.measure_passes("live", targets, {}, 1);

    util::TablePrinter table("LFP live probe results");
    table.header({"target", "protocols", "SNMPv3 vendor", "signature"});
    for (const auto& record : measurement.records) {
        table.row({record.probes.target.to_string(),
                   std::to_string(record.probes.responsive_protocol_count()) + "/3",
                   record.snmp_vendor ? std::string(stack::to_string(*record.snmp_vendor))
                                      : std::string("-"),
                   record.features.empty() ? std::string("(no responses)")
                                           : record.signature.key()});
    }
    table.print(std::cout);

    std::cout << "\nPackets sent: " << runner.packets_sent() << " (10 per target).\n"
              << "To classify live signatures, load a signature database built from a\n"
              << "labeled corpus (see CensusRunner::build_database) and call\n"
              << "CensusRunner::classify on the measurement.\n";
    return 0;
}

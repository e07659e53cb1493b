#include "io/csv_export.hpp"

#include <ostream>

namespace lfp::io {

std::string csv_escape(std::string_view field) {
    const bool needs_quoting = field.find_first_of(",\"\n") != std::string_view::npos;
    if (!needs_quoting) return std::string(field);
    std::string out;
    out.reserve(field.size() + 2);
    out.push_back('"');
    for (char c : field) {
        if (c == '"') out.push_back('"');
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

void export_measurement_csv(std::ostream& out, const core::Measurement& measurement) {
    write_measurement_csv_header(out);
    for (const auto& record : measurement.records) write_measurement_csv_row(out, record);
}

void write_measurement_csv_header(std::ostream& out) {
    out << "ip,responsive_protocols,snmp_vendor,lfp_vendor,match_kind,pass,signature\n";
}

void write_measurement_csv_row(std::ostream& out, const core::TargetRecord& record) {
    out << record.probes.target.to_string() << ','
        << record.probes.responsive_protocol_count() << ','
        << (record.snmp_vendor ? stack::to_string(*record.snmp_vendor) : "") << ','
        << (record.lfp.vendor ? stack::to_string(*record.lfp.vendor) : "") << ','
        << core::to_string(record.lfp.kind) << ','
        << record.pass << ','
        << csv_escape(record.signature.key()) << '\n';
}

void export_pass_stats_csv(std::ostream& out, std::span<const core::PassStats> stats) {
    out << "pass,probed,upgraded,incomplete\n";
    for (std::size_t pass = 0; pass < stats.size(); ++pass) {
        out << pass << ',' << stats[pass].probed << ',' << stats[pass].upgraded << ','
            << stats[pass].incomplete << '\n';
    }
}

void export_traceroutes_csv(std::ostream& out, const sim::TracerouteDataset& dataset) {
    out << "src_asn,dst_asn,src,dst,hops\n";
    for (const auto& trace : dataset.traces) {
        out << trace.source_asn << ',' << trace.destination_asn << ','
            << trace.source.to_string() << ',' << trace.destination.to_string() << ',';
        for (std::size_t i = 0; i < trace.hops.size(); ++i) {
            if (i != 0) out << ';';
            out << trace.hops[i].to_string();
        }
        out << '\n';
    }
}

void export_alias_sets_csv(std::ostream& out, const sim::ItdkDataset& dataset) {
    out << "router_id,addresses\n";
    for (const auto& set : dataset.alias_sets) {
        out << set.router_index << ',';
        for (std::size_t i = 0; i < set.addresses.size(); ++i) {
            if (i != 0) out << ';';
            out << set.addresses[i].to_string();
        }
        out << '\n';
    }
}

void export_as_coverage_csv(std::ostream& out,
                            const std::vector<analysis::AsCoverage>& coverage) {
    out << "asn,routers,identified,vendors,dominant,dominant_share\n";
    for (const auto& entry : coverage) {
        out << entry.asn << ',' << entry.routers_total << ',' << entry.routers_identified << ','
            << entry.vendor_count() << ',';
        if (auto vendor = entry.dominant(0.0); vendor && entry.routers_identified > 0) {
            out << stack::to_string(*vendor) << ','
                << static_cast<double>(entry.vendor_counts.at(*vendor)) /
                       static_cast<double>(entry.routers_identified);
        } else {
            out << ',';
        }
        out << '\n';
    }
}

}  // namespace lfp::io

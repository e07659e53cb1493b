// CSV/JSONL exporters for measurement results and traceroute datasets, so
// downstream tooling (pandas, the authors' own analysis notebooks) can
// consume this library's output directly.
#pragma once

#include <iosfwd>
#include <span>

#include "analysis/as_analysis.hpp"
#include "core/pipeline.hpp"
#include "sim/datasets.hpp"

namespace lfp::io {

/// One row per probed target:
/// ip,responsive_protocols,snmp_vendor,lfp_vendor,match_kind,pass,signature
/// `pass` is the retry pass that produced the record's evidence (0 for
/// first-pass answers and single-pass censuses).
void export_measurement_csv(std::ostream& out, const core::Measurement& measurement);

/// The header line and one record's row of export_measurement_csv, for
/// writers that produce records one at a time.
void write_measurement_csv_header(std::ostream& out);
void write_measurement_csv_row(std::ostream& out, const core::TargetRecord& record);

/// One row per census pass: pass,probed,upgraded,incomplete — the retry
/// trajectory of a multi-pass run (CensusRunner::last_pass_stats()).
void export_pass_stats_csv(std::ostream& out, std::span<const core::PassStats> stats);

/// One row per traceroute: src_asn,dst_asn,src,dst,hop1;hop2;...
void export_traceroutes_csv(std::ostream& out, const sim::TracerouteDataset& dataset);

/// One row per alias set: router_id,addr1;addr2;...
void export_alias_sets_csv(std::ostream& out, const sim::ItdkDataset& dataset);

/// One row per AS: asn,routers,identified,vendors,dominant,dominant_share
void export_as_coverage_csv(std::ostream& out,
                            const std::vector<analysis::AsCoverage>& coverage);

/// Escapes a CSV field (quotes when needed).
std::string csv_escape(std::string_view field);

}  // namespace lfp::io

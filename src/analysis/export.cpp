#include "analysis/export.h"

#include <ostream>

#include "cellular/carrier_profile.h"
#include "cdn/domains.h"
#include "util/contract.h"
#include "util/csv.h"

namespace curtain::analysis {
namespace {

const std::string& carrier_name(int carrier_index) {
  return cellular::study_carriers()[static_cast<size_t>(carrier_index)].name;
}

const char* target_kind_name(measure::ProbeTargetKind kind) {
  switch (kind) {
    case measure::ProbeTargetKind::kReplica: return "replica";
    case measure::ProbeTargetKind::kClientResolver: return "client_resolver";
    case measure::ProbeTargetKind::kExternalResolver: return "external_resolver";
    case measure::ProbeTargetKind::kPublicVip: return "public_vip";
    case measure::ProbeTargetKind::kBootstrap: return "bootstrap";
  }
  return "?";
}

void write_experiments_header(std::ostream& out) {
  util::CsvWriter(out).row({"experiment_id", "device_id", "carrier",
                            "started_hours", "radio", "lat", "lon", "gateway",
                            "public_ip", "configured_resolver"});
}

void write_experiment_row(util::CsvWriter& csv,
                          const measure::ExperimentContext& context,
                          const std::string& carrier) {
  csv.typed_row(context.experiment_id, context.device_id, carrier,
                context.started.hours(),
                std::string(cellular::radio_tech_name(context.radio)),
                context.location.lat_deg, context.location.lon_deg,
                context.gateway_index, context.public_ip.to_string(),
                context.configured_resolver.to_string());
}

void write_resolutions_header(std::ostream& out) {
  util::CsvWriter(out).row({"experiment_id", "carrier", "resolver", "domain",
                            "second_lookup", "responded", "resolution_ms",
                            "addresses"});
}

void write_resolution_row(util::CsvWriter& csv,
                          const measure::ResolutionRow& r,
                          const std::string& carrier) {
  std::string addresses;
  for (const auto address : r.addresses) {
    if (!addresses.empty()) addresses += ' ';
    addresses += address.to_string();
  }
  csv.typed_row(r.experiment_id, carrier,
                std::string(measure::resolver_kind_name(r.resolver)),
                cdn::study_domains()[r.domain_index].host, int(r.second_lookup),
                int(r.responded), r.resolution_ms, addresses);
}

void write_probes_header(std::ostream& out) {
  util::CsvWriter(out).row({"experiment_id", "carrier", "target_kind",
                            "resolver", "domain", "target_ip", "probe",
                            "responded", "rtt_ms"});
}

void write_probe_row(util::CsvWriter& csv, const measure::ProbeRow& p,
                     const std::string& carrier) {
  csv.typed_row(p.experiment_id, carrier,
                std::string(target_kind_name(p.target_kind)),
                std::string(measure::resolver_kind_name(p.resolver)),
                p.target_kind == measure::ProbeTargetKind::kReplica
                    ? cdn::study_domains()[p.domain_index].host
                    : std::string(),
                p.target_ip.to_string(),
                std::string(p.is_http ? "http" : "ping"), int(p.responded),
                p.rtt_ms);
}

void write_traceroutes_header(std::ostream& out) {
  util::CsvWriter(out).row({"experiment_id", "carrier", "target_ip",
                            "target_kind", "reached", "hops"});
}

void write_traceroute_row(util::CsvWriter& csv,
                          const measure::TracerouteRow& t,
                          const std::string& carrier) {
  std::string hops;
  for (size_t i = 0; i < t.hop_count; ++i) {
    if (!hops.empty()) hops += '|';
    hops += t.hop(i);
  }
  csv.typed_row(t.experiment_id, carrier, t.target_ip.to_string(),
                std::string(target_kind_name(t.target_kind)), int(t.reached),
                hops);
}

void write_observations_header(std::ostream& out) {
  util::CsvWriter(out).row({"experiment_id", "carrier", "resolver",
                            "responded", "external_ip", "external_slash24",
                            "resolution_ms"});
}

void write_observation_row(util::CsvWriter& csv,
                           const measure::ResolverObservation& o,
                           const std::string& carrier) {
  csv.typed_row(o.experiment_id, carrier,
                std::string(measure::resolver_kind_name(o.resolver)),
                int(o.responded), o.external_ip.to_string(),
                net::Prefix(o.external_ip.slash24(), 24).to_string(),
                o.resolution_ms);
}

void write_vantage_header(std::ostream& out) {
  util::CsvWriter(out).row(
      {"carrier", "target_ip", "ping_responded", "traceroute_reached"});
}

void write_vantage_row(util::CsvWriter& csv, const measure::VantageProbe& v) {
  csv.typed_row(carrier_name(v.carrier_index), v.target_ip.to_string(),
                int(v.ping_responded), int(v.traceroute_reached));
}

void write_manifest(std::ostream& out, size_t experiments, size_t resolutions,
                    size_t probes, size_t traceroutes, size_t observations,
                    size_t vantage) {
  out << "curtain dataset export\n"
      << "experiments: " << experiments << "\n"
      << "resolutions: " << resolutions << "\n"
      << "probes: " << probes << "\n"
      << "traceroutes: " << traceroutes << "\n"
      << "resolver_observations: " << observations << "\n"
      << "vantage_probes: " << vantage << "\n";
}

}  // namespace

int export_records(const measure::RecordStore& records,
                   const std::string& directory) {
  StreamingCsvExporter exporter(directory);
  for (const measure::RecordBlock& block : records.blocks()) {
    exporter.write(block);
  }
  exporter.finish();
  return exporter.files_written();
}

StreamingCsvExporter::StreamingCsvExporter(const std::string& directory)
    : directory_(directory),
      experiments_(directory + "/experiments.csv"),
      resolutions_(directory + "/resolutions.csv"),
      probes_(directory + "/probes.csv"),
      traceroutes_(directory + "/traceroutes.csv"),
      observations_(directory + "/resolver_observations.csv"),
      vantage_(directory + "/vantage_probes.csv") {
  write_experiments_header(experiments_);
  write_resolutions_header(resolutions_);
  write_probes_header(probes_);
  write_traceroutes_header(traceroutes_);
  write_observations_header(observations_);
  write_vantage_header(vantage_);
}

void StreamingCsvExporter::write(const measure::RecordBlock& block) {
  // The referential invariants of the record stream; violating any of them
  // means the campaign merge (exec/engine.cpp, measure/record_store.h) is
  // broken, and a loud abort beats shipping silently inconsistent files.
  // Rows bound for a stream that failed to open are formatted and dropped;
  // finish() leaves that file uncounted.
  {
    util::CsvWriter csv(experiments_);
    for (const auto& context : block.experiments) {
      CURTAIN_CHECK(context.experiment_id == experiment_carrier_.size())
          << "experiment ids must arrive dense: got "
          << context.experiment_id << " at ordinal "
          << experiment_carrier_.size();
      experiment_carrier_.push_back(context.carrier_index);
      write_experiment_row(csv, context, carrier_name(context.carrier_index));
    }
  }
  // A block carries its resolutions' traces (RecordStore::add_trace runs
  // before add_resolution), so the current block's traces count as seen.
  trace_count_ += block.traces.size();

  const auto carrier_of_id =
      [&](uint32_t experiment_id) -> const std::string& {
    CURTAIN_CHECK(experiment_id < experiment_carrier_.size())
        << "record references unseen experiment " << experiment_id;
    return carrier_name(experiment_carrier_[experiment_id]);
  };
  {
    util::CsvWriter csv(resolutions_);
    for (size_t i = 0; i < block.resolutions.size(); ++i) {
      const measure::ResolutionRow r = block.resolution_row(i);
      CURTAIN_CHECK(r.trace_index >= -1 &&
                    (r.trace_index < 0 ||
                     static_cast<size_t>(r.trace_index) < trace_count_))
          << "resolution trace_index " << r.trace_index << " out of range ("
          << trace_count_ << " traces seen)";
      write_resolution_row(csv, r, carrier_of_id(r.experiment_id));
    }
  }
  {
    util::CsvWriter csv(probes_);
    for (size_t i = 0; i < block.probes.size(); ++i) {
      const measure::ProbeRow p = block.probe_row(i);
      write_probe_row(csv, p, carrier_of_id(p.experiment_id));
    }
  }
  {
    util::CsvWriter csv(traceroutes_);
    for (size_t i = 0; i < block.traceroutes.size(); ++i) {
      const measure::TracerouteRow t = block.traceroute_row(i);
      write_traceroute_row(csv, t, carrier_of_id(t.experiment_id));
    }
  }
  {
    util::CsvWriter csv(observations_);
    for (const auto& o : block.observations) {
      write_observation_row(csv, o, carrier_of_id(o.experiment_id));
    }
  }
  {
    util::CsvWriter csv(vantage_);
    for (const auto& v : block.vantage_probes) write_vantage_row(csv, v);
  }
  resolution_count_ += block.resolutions.size();
  probe_count_ += block.probes.size();
  traceroute_count_ += block.traceroutes.size();
  observation_count_ += block.observations.size();
  vantage_count_ += block.vantage_probes.size();
}

void StreamingCsvExporter::finish() {
  files_written_ = 0;
  const auto close_counted = [this](std::ofstream& stream) {
    if (stream.is_open() && stream.good()) ++files_written_;
    stream.close();
  };
  close_counted(experiments_);
  close_counted(resolutions_);
  close_counted(probes_);
  close_counted(traceroutes_);
  close_counted(observations_);
  close_counted(vantage_);
  std::ofstream manifest(directory_ + "/MANIFEST.txt");
  if (manifest.good()) {
    write_manifest(manifest, experiment_carrier_.size(), resolution_count_,
                   probe_count_, traceroute_count_, observation_count_,
                   vantage_count_);
    if (manifest.good()) ++files_written_;
  }
}

}  // namespace curtain::analysis

// perfbench_workload: one measured iteration of a repo-benchmark workload.
//
// Everything is measured from outside, through the public entry points:
//   * core::Study construction (setup), timed kSetups times;
//   * Study::run() (campaign plus vantage sweep) and its shard_stats();
//   * analysis::write_report and/or analysis::export_records;
//   * with --trace, a replay of inputs taken from the run's own records
//     through dns::StubResolver::query, dns::encode / dns::decode,
//     net::Topology::transport_rtt_ms / ping / traceroute and
//     cdn::CdnProvider::cluster_for_resolver, one timed span per call.
//
// It prints one JSON object on the last line of stdout: raw timings,
// record totals, the run's deterministic counter deltas and (traced) the
// per-call replay statistics. perfbench/run.py turns these into metrics,
// digests the written report/CSV files and checks them for correctness.
//
//   perfbench_workload --seed 20141105 --scale 0.1 --analysis report
//                      --out .bench_out/it0
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "analysis/export.h"
#include "analysis/report.h"
#include "cdn/domains.h"
#include "cellular/carrier_profile.h"
#include "core/study.h"
#include "dns/message.h"
#include "dns/stub.h"
#include "net/rng.h"
#include "obs/memory.h"
#include "obs/metrics.h"

namespace {

using namespace curtain;
using Clock = std::chrono::steady_clock;

/// Campaign workers: on a shared 4-core host 2 workers repeat within a
/// few percent, 4 spread several times wider.
constexpr int kWorkers = 2;
/// Study constructions per iteration; the last one runs.
constexpr int kSetups = 11;
/// Calls replayed per layer (stub queries: 1.5x, probes: 2x).
constexpr size_t kReplayCalls = 10000;

struct Options {
  uint64_t seed = 20141105;
  double scale = 0.1;
  /// > 0: build the four US carriers widened to this many study clients
  /// each instead of the paper's six-carrier fleet.
  int us_clients = 0;
  bool report = true;
  bool exporting = false;
  std::string out_dir = ".bench_out/iteration";
  /// Non-empty: arm the flight recorder (Scenario::with_profile_out) into
  /// `<prefix>.study.trace.json`, replay the layer entry points and write
  /// the benchmark's own spans to `<prefix>.perfbench.trace.json`.
  std::string trace_prefix;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_workload: %s\n"
               "usage: perfbench_workload [--seed N] [--scale S] [--us-clients C]\n"
               "  [--analysis report|export|both] [--out DIR] [--trace PREFIX]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--scale") {
      options.scale = std::stod(value);
    } else if (flag == "--us-clients") {
      options.us_clients = std::stoi(value);
    } else if (flag == "--analysis") {
      options.report = value == "report" || value == "both";
      options.exporting = value == "export" || value == "both";
      if (!options.report && !options.exporting) usage("bad --analysis");
    } else if (flag == "--out") {
      options.out_dir = value;
    } else if (flag == "--trace") {
      options.trace_prefix = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  return options;
}

core::Scenario scenario_for(const Options& options) {
  core::Scenario scenario = core::Scenario::paper_2014()
                                .with_seed(options.seed)
                                .with_scale(options.scale)
                                .with_shards(kWorkers);
  if (options.us_clients > 0) {
    std::vector<cellular::CarrierProfile> carriers;
    for (const cellular::CarrierProfile& profile : cellular::study_carriers()) {
      if (profile.country != "US") continue;
      cellular::CarrierProfile widened = profile;
      widened.study_clients = options.us_clients;
      carriers.push_back(std::move(widened));
    }
    scenario.with_carriers(std::move(carriers));
  }
  if (!options.trace_prefix.empty()) {
    scenario.with_profile_out(options.trace_prefix + ".study.trace.json");
  }
  return scenario;
}

// --- spans: the benchmark's own timeline, chrome://tracing shaped --------

struct Span {
  std::string name;
  int tid = 0;
  int64_t start_us = 0;
  int64_t dur_ns = 0;
  std::string args;  ///< pre-rendered JSON members, may be empty
};

class Timeline {
 public:
  int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  void add(std::string name, int tid, int64_t start_ns, int64_t end_ns,
           std::string args = {}) {
    if (!enabled) return;
    spans_.push_back(Span{std::move(name), tid, start_ns / 1000,
                          end_ns - start_ns, std::move(args)});
  }
  bool write(const std::string& path, const std::string& process,
             const std::map<int, std::string>& threads) const;

  bool enabled = false;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

// Same trace_event layout obs::to_chrome_trace emits (metadata events,
// then "X" complete events with pid/tid/ts/dur/name/args), under its own
// pid so both files load side by side in one viewer.
bool Timeline::write(const std::string& path, const std::string& process,
                     const std::map<int, std::string>& threads) const {
  std::ofstream out(path);
  if (!out.good()) return false;
  constexpr int kPid = 2;
  out << "{\n  \"traceEvents\": [";
  bool first = true;
  auto event = [&](const std::string& body) {
    out << (first ? "\n    " : ",\n    ") << body;
    first = false;
  };
  event("{\"ph\": \"M\", \"pid\": " + std::to_string(kPid) +
        ", \"tid\": 0, \"name\": \"process_name\", \"args\": {\"name\": " +
        json_string(process) + "}}");
  for (const auto& [tid, name] : threads) {
    event("{\"ph\": \"M\", \"pid\": " + std::to_string(kPid) +
          ", \"tid\": " + std::to_string(tid) +
          ", \"name\": \"thread_name\", \"args\": {\"name\": " +
          json_string(name) + "}}");
  }
  for (const Span& span : spans_) {
    std::string args = "\"dur_ns\": " + std::to_string(span.dur_ns);
    if (!span.args.empty()) args += ", " + span.args;
    event("{\"ph\": \"X\", \"pid\": " + std::to_string(kPid) +
          ", \"tid\": " + std::to_string(span.tid) +
          ", \"ts\": " + std::to_string(span.start_us) +
          ", \"dur\": " + num(static_cast<double>(span.dur_ns) / 1000.0) +
          ", \"name\": " + json_string(span.name) + ", \"args\": {" + args +
          "}}");
  }
  out << "\n  ],\n  \"displayTimeUnit\": \"ms\"\n}\n";
  return out.good();
}

// --- replay: per-call timings of the layer entry points ------------------

struct CallStats {
  std::vector<int64_t> ns;
  size_t failed = 0;

  std::string json() const {
    std::vector<int64_t> sorted = ns;
    std::sort(sorted.begin(), sorted.end());
    auto pct = [&](double p) -> double {
      if (sorted.empty()) return 0.0;
      const size_t rank = static_cast<size_t>(
          p * static_cast<double>(sorted.size() - 1) + 0.5);
      return static_cast<double>(sorted[rank]);
    };
    double sum = 0.0;
    for (const int64_t v : sorted) sum += static_cast<double>(v);
    const double mean =
        sorted.empty() ? 0.0 : sum / static_cast<double>(sorted.size());
    return "{\"calls\": " + std::to_string(sorted.size()) +
           ", \"failed\": " + std::to_string(failed) +
           ", \"p50_ns\": " + num(pct(0.50)) + ", \"p95_ns\": " +
           num(pct(0.95)) + ", \"mean_ns\": " + num(mean) + "}";
  }
};

/// Every `stride`-th index so that at most `cap` of `total` are taken.
size_t stride_for(size_t total, size_t cap) {
  return cap == 0 ? total + 1 : std::max<size_t>(1, (total + cap - 1) / cap);
}

constexpr int kReplayTid = 100;

std::map<std::string, CallStats> replay_layers(core::Study& study,
                                               uint64_t seed,
                                               Timeline& timeline) {
  core::World& world = study.world();
  const measure::RecordStore& records = study.records();
  const measure::ExperimentConfig& experiment = study.scenario().experiment;
  net::Topology& topology = world.topology();
  std::map<std::string, CallStats> stats;
  net::Rng rng(net::mix_key(seed, net::hash_tag("perfbench-replay")));

  std::vector<measure::ExperimentContext> contexts;
  contexts.reserve(records.experiment_count());
  for (const measure::ExperimentContext& context : records.experiments()) {
    contexts.push_back(context);
  }
  auto gateway_of = [&](uint32_t experiment_id) {
    const measure::ExperimentContext& context = contexts.at(experiment_id);
    return world.carrier(static_cast<size_t>(context.carrier_index))
        .gateway_node(context.gateway_index);
  };
  // The node a probe of `target` reaches, resolved as measure::ProbeEngine
  // does: a DNS service address maps to the instance serving this client.
  auto target_node = [&](uint32_t experiment_id, net::Ipv4Addr target) {
    const measure::ExperimentContext& context = contexts.at(experiment_id);
    if (const dns::DnsServer* server = world.registry().find(target)) {
      return server->node_for(context.public_ip, context.started);
    }
    return topology.find_by_ip(target);
  };

  // External-facing resolver each (experiment, resolver kind) was seen
  // through: what the CDN's mapping keyed on during the campaign.
  std::vector<std::array<net::Ipv4Addr, measure::kNumResolverKinds>> external(
      contexts.size());
  for (const measure::ResolverObservation& observation :
       records.observations()) {
    if (!observation.responded) continue;
    external.at(observation.experiment_id)
        [static_cast<size_t>(observation.resolver)] = observation.external_ip;
  }

  const auto& domains = cdn::study_domains();
  std::vector<dns::DnsName> names;
  for (const cdn::StudyDomain& domain : domains) {
    names.push_back(*dns::DnsName::parse(domain.host));
  }

  // Whole experiments, every stride-th, in simulated-time order; within an
  // experiment the resolutions keep record order (each first lookup, then
  // its back-to-back repeat), so resolver caches see the campaign's
  // reuse pattern.
  struct Lookup {
    net::SimTime started;
    uint32_t experiment_id;
    measure::ResolverKind kind;
    uint16_t domain;
  };
  const size_t stub_cap = kReplayCalls + kReplayCalls / 2;
  const size_t per_experiment = std::max<size_t>(
      1, records.resolution_count() / std::max<size_t>(1, contexts.size()));
  const size_t experiment_stride =
      stride_for(contexts.size(), stub_cap / per_experiment);
  std::vector<Lookup> lookups;
  for (const measure::ResolutionRow& row : records.resolutions()) {
    if (row.experiment_id % experiment_stride != 0) continue;
    lookups.push_back(Lookup{contexts.at(row.experiment_id).started,
                             row.experiment_id, row.resolver,
                             row.domain_index});
  }
  std::stable_sort(lookups.begin(), lookups.end(),
                   [](const Lookup& a, const Lookup& b) {
                     return a.started < b.started;
                   });

  // Two passes over the same lookups: an untimed one that fills the
  // lazily built state a long campaign has warm (routes, long-TTL
  // delegations), then the timed one a day later in simulated time, so
  // short-TTL CDN answers have expired again as they had in the campaign.
  static constexpr const char* kKindNames[] = {"local", "google", "opendns"};
  uint16_t next_id = 1;
  for (const bool timed : {false, true}) {
    const net::SimTime shift = net::SimTime::from_days(timed ? 1.0 : 0.0);
    for (const Lookup& lookup : lookups) {
      const measure::ExperimentContext& context =
          contexts.at(lookup.experiment_id);
      const net::Ipv4Addr resolver =
          lookup.kind == measure::ResolverKind::kLocal ? context.configured_resolver
          : lookup.kind == measure::ResolverKind::kGoogle ? experiment.google_vip
                                                           : experiment.opendns_vip;
      const dns::DnsName& name = names.at(lookup.domain);
      dns::StubResolver stub(gateway_of(lookup.experiment_id),
                             context.public_ip, topology, world.registry());
      const int64_t t0 = timeline.now_ns();
      const dns::StubResult result = stub.query(
          resolver, name, dns::RRType::kA, context.started + shift, rng);
      const int64_t t1 = timeline.now_ns();
      if (!timed) continue;
      const std::string layer = std::string("dns.stub_query.") +
                                kKindNames[static_cast<size_t>(lookup.kind)];
      CallStats& call = stats[layer];
      call.ns.push_back(t1 - t0);
      if (!result.responded) ++call.failed;
      timeline.add(layer, kReplayTid, t0, t1);

      // The codec on the query this lookup sent and the response it got;
      // a round trip that does not reproduce the message is a failure.
      const dns::Message query =
          dns::Message::query(next_id++, name, dns::RRType::kA);
      dns::Message response = query.make_response();
      response.answers = result.answers;
      for (const bool is_query : {true, false}) {
        const dns::Message& message = is_query ? query : response;
        const std::string encode = is_query ? "dns.encode_query" : "dns.encode";
        const std::string decode = is_query ? "dns.decode_query" : "dns.decode";
        const int64_t e0 = timeline.now_ns();
        const std::vector<uint8_t> wire = dns::encode(message);
        const int64_t e1 = timeline.now_ns();
        const std::optional<dns::Message> decoded = dns::decode(wire);
        const int64_t e2 = timeline.now_ns();
        stats[encode].ns.push_back(e1 - e0);
        stats[decode].ns.push_back(e2 - e1);
        if (!decoded || *decoded != message) ++stats[decode].failed;
        timeline.add(encode, kReplayTid, e0, e1);
        timeline.add(decode, kReplayTid, e1, e2);
      }

      // CDN mapping for the resolver the CDN saw on this lookup.
      const net::Ipv4Addr seen =
          external.at(lookup.experiment_id)[static_cast<size_t>(lookup.kind)];
      if (seen.value() == 0) continue;
      const cdn::CdnProvider& provider = world.cdn(domains[lookup.domain].cdn);
      const int64_t c0 = timeline.now_ns();
      const cdn::ReplicaCluster& cluster = provider.cluster_for_resolver(seen);
      const int64_t c1 = timeline.now_ns();
      CallStats& mapping = stats["cdn.cluster_for_resolver"];
      mapping.ns.push_back(c1 - c0);
      if (cluster.replica_ips.empty()) ++mapping.failed;
      timeline.add("cdn.cluster_for_resolver", kReplayTid, c0, c1);
    }
  }

  // Probes: pings, the HTTP transport exchanges and traceroutes, from the
  // gateway the device attached through to the recorded target. Also
  // replayed twice, timing the second pass: the campaign probes each
  // (gateway, target) pair many times, so its routes are warm.
  enum class Probe { kPing, kTransport, kTraceroute };
  struct Hop {
    Probe probe;
    net::NodeId from;
    net::NodeId to;
  };
  static constexpr const char* kProbeLayers[] = {
      "net.ping", "net.transport_rtt", "net.traceroute"};
  std::vector<Hop> hops;
  auto add_hop = [&](Probe probe, uint32_t experiment_id, net::Ipv4Addr ip) {
    const net::NodeId to = target_node(experiment_id, ip);
    if (to == net::kInvalidNode) {
      ++stats[kProbeLayers[static_cast<size_t>(probe)]].failed;
      return;
    }
    hops.push_back(Hop{probe, gateway_of(experiment_id), to});
  };
  const size_t probe_stride =
      stride_for(records.probe_count(), 2 * kReplayCalls);
  size_t index = 0;
  for (const measure::ProbeRow& row : records.probes()) {
    if (index++ % probe_stride != 0) continue;
    add_hop(row.is_http ? Probe::kTransport : Probe::kPing, row.experiment_id,
            row.target_ip);
  }
  const size_t trace_stride =
      stride_for(records.traceroute_count(), kReplayCalls);
  index = 0;
  for (const measure::TracerouteRow& row : records.traceroutes()) {
    if (index++ % trace_stride != 0) continue;
    add_hop(Probe::kTraceroute, row.experiment_id, row.target_ip);
  }
  for (const bool timed : {false, true}) {
    for (const Hop& hop : hops) {
      const int64_t t0 = timeline.now_ns();
      bool answered = true;  // an unanswered ping is a measured outcome
      switch (hop.probe) {
        case Probe::kPing:
          topology.ping(hop.from, hop.to, rng);
          break;
        case Probe::kTransport:
          answered = topology.transport_rtt_ms(hop.from, hop.to, rng).has_value();
          break;
        case Probe::kTraceroute:
          topology.traceroute(hop.from, hop.to, rng);
          break;
      }
      const int64_t t1 = timeline.now_ns();
      if (!timed) continue;
      const char* layer = kProbeLayers[static_cast<size_t>(hop.probe)];
      CallStats& call = stats[layer];
      call.ns.push_back(t1 - t0);
      if (!answered) ++call.failed;
      timeline.add(layer, kReplayTid, t0, t1);
    }
  }
  return stats;
}

// --- helpers -------------------------------------------------------------

/// User plus system CPU seconds of every thread of this process so far.
double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double seconds_between(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

size_t directory_bytes(const std::string& directory) {
  size_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(directory)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

std::map<std::string, uint64_t> counter_values() {
  std::map<std::string, uint64_t> values;
  for (const auto& row : obs::metrics().snapshot().counters) {
    values[row.name] = row.value;
  }
  return values;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  const bool traced = !options.trace_prefix.empty();
  std::filesystem::create_directories(options.out_dir);

  Timeline timeline;
  timeline.enabled = traced;
  const core::Scenario scenario = scenario_for(options);

  // Setup: construct the study --setups times; the last one runs.
  std::vector<double> setup_s;
  std::unique_ptr<core::Study> study;
  for (int i = 0; i < kSetups; ++i) {
    study.reset();
    const int64_t t0 = timeline.now_ns();
    study = std::make_unique<core::Study>(scenario);
    const int64_t t1 = timeline.now_ns();
    setup_s.push_back(seconds_between(t0, t1));
    timeline.add("setup", 0, t0, t1);
  }

  // Campaign. Counter deltas across run() are the deterministic vector.
  const std::map<std::string, uint64_t> before = counter_values();
  const double cpu0 = process_cpu_s();
  const int64_t run0 = timeline.now_ns();
  study->run();
  const int64_t run1 = timeline.now_ns();
  const double run_cpu_s = process_cpu_s() - cpu0;
  timeline.add("campaign", 0, run0, run1);
  std::map<std::string, uint64_t> counters = counter_values();
  for (auto& [name, value] : counters) {
    const auto it = before.find(name);
    if (it != before.end()) value -= it->second;
  }

  const measure::RecordStore& records = study->records();
  std::vector<double> busy_ms;
  std::map<int, std::string> threads = {{0, "benchmark"}};
  for (const exec::ShardStat& shard : study->shard_stats()) {
    busy_ms.push_back(shard.busy_ms);
    // Shards start when a worker picks them up: queue-open (campaign
    // start) plus the recorded queue wait; both are set on traced runs.
    const int64_t start =
        run0 + static_cast<int64_t>(shard.queue_wait_ms * 1e6);
    timeline.add(shard.label, shard.worker, start,
                 start + static_cast<int64_t>(shard.busy_ms * 1e6),
                 "\"devices\": " + std::to_string(shard.devices));
    if (shard.worker > 0) {
      threads[shard.worker] = "worker " + std::to_string(shard.worker);
    }
  }

  // Analysis: the report (read and aggregate) and/or the CSV export
  // (write). The report is rendered in memory, as a caller embedding it
  // would, and saved untimed for the digest.
  std::string analysis_json;
  if (options.report) {
    std::ostringstream text;
    analysis::ReportConfig config;
    config.scale = options.scale;
    config.seed = options.seed;
    const int64_t t0 = timeline.now_ns();
    analysis::write_report(records, config, text);
    const int64_t t1 = timeline.now_ns();
    timeline.add("report", 0, t0, t1);
    const std::string body = text.str();
    std::ofstream(options.out_dir + "/report.md", std::ios::binary) << body;
    analysis_json += "\"report_s\": " + num(seconds_between(t0, t1)) +
                     ", \"report_bytes\": " + std::to_string(body.size());
  }
  if (options.exporting) {
    const std::string directory = options.out_dir + "/export";
    std::filesystem::create_directories(directory);
    const int64_t t0 = timeline.now_ns();
    const int files = analysis::export_records(records, directory);
    const int64_t t1 = timeline.now_ns();
    timeline.add("export", 0, t0, t1);
    if (!analysis_json.empty()) analysis_json += ", ";
    analysis_json += "\"export_s\": " + num(seconds_between(t0, t1)) +
                     ", \"export_bytes\": " +
                     std::to_string(directory_bytes(directory)) +
                     ", \"export_files\": " + std::to_string(files);
  }
  const double peak_rss_mb =
      static_cast<double>(obs::read_peak_rss_bytes()) / (1024.0 * 1024.0);

  std::set<uint64_t> touched;
  for (const measure::ExperimentContext& context : records.experiments()) {
    touched.insert(context.device_id);
  }
  // Exact campaign call counts per layer entry point, from the records:
  // each resolution and each resolver observation is one stub query, each
  // HTTP probe two transport exchanges (measure::ProbeEngine::http_get).
  std::array<size_t, measure::kNumResolverKinds> stub_calls{};
  for (const measure::ResolutionRow& row : records.resolutions()) {
    ++stub_calls[static_cast<size_t>(row.resolver)];
  }
  for (const measure::ResolverObservation& row : records.observations()) {
    ++stub_calls[static_cast<size_t>(row.resolver)];
  }
  size_t http_probes = 0;
  for (const measure::ProbeRow& row : records.probes()) {
    if (row.is_http) ++http_probes;
  }
  const obs::LaneMemory lanes = study->world().approx_lane_state_bytes();

  std::string out = "{\"compiler\": " + json_string(PERFBENCH_COMPILER) +
                    ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                    ", \"seed\": " + std::to_string(options.seed) +
                    ", \"scale\": " + num(options.scale) +
                    ", \"workers\": " + std::to_string(kWorkers) +
                    ", \"devices\": " + std::to_string(study->device_count()) +
                    ", \"shards\": " + std::to_string(study->shard_count());
  out += ", \"setup_s\": [";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    out += (i ? ", " : "") + num(setup_s[i]);
  }
  out += "], \"run_s\": " + num(seconds_between(run0, run1)) +
         ", \"run_cpu_s\": " + num(run_cpu_s);
  out += ", \"analysis\": {" + analysis_json + "}";
  out += ", \"experiments\": " + std::to_string(records.experiment_count()) +
         ", \"resolutions\": " + std::to_string(records.resolution_count()) +
         ", \"probes\": " + std::to_string(records.probe_count()) +
         ", \"traceroutes\": " + std::to_string(records.traceroute_count()) +
         ", \"observations\": " + std::to_string(records.observation_count()) +
         ", \"touched_devices\": " + std::to_string(touched.size()) +
         ", \"record_bytes\": " + std::to_string(records.approx_bytes()) +
         ", \"lane_cache_bytes\": " + std::to_string(lanes.cache_bytes) +
         ", \"lane_state_bytes\": " + std::to_string(lanes.state_bytes) +
         ", \"peak_rss_mb\": " + num(peak_rss_mb) +
         ", \"http_probes\": " + std::to_string(http_probes) +
         ", \"stub_calls\": {\"local\": " + std::to_string(stub_calls[0]) +
         ", \"google\": " + std::to_string(stub_calls[1]) +
         ", \"opendns\": " + std::to_string(stub_calls[2]) + "}";
  out += ", \"busy_ms\": [";
  for (size_t i = 0; i < busy_ms.size(); ++i) {
    out += (i ? ", " : "") + num(busy_ms[i]);
  }
  out += "], \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += (first ? "" : ", ") + json_string(name) + ": " +
           std::to_string(value);
    first = false;
  }
  out += "}";

  if (traced) {
    const obs::RunReport::Profile& profile = study->report().profile;
    out += ", \"profile\": {\"queue_wait_p95_ms\": " +
           num(profile.queue_wait_p95_ms) + ", \"utilization_pct\": " +
           num(profile.worker_utilization_pct) + "}";
    const int64_t r0 = timeline.now_ns();
    const std::map<std::string, CallStats> replay =
        replay_layers(*study, options.seed, timeline);
    const int64_t r1 = timeline.now_ns();
    timeline.add("replay", 0, r0, r1);
    out += ", \"replay\": {";
    first = true;
    for (const auto& [layer, stats] : replay) {
      out += (first ? "" : ", ") + json_string(layer) + ": " + stats.json();
      first = false;
    }
    out += "}";
    threads[kReplayTid] = "replay";
    const std::string trace_file = options.trace_prefix + ".perfbench.trace.json";
    if (!timeline.write(trace_file, "perfbench", threads)) {
      std::fprintf(stderr, "perfbench_workload: cannot write %s\n",
                   trace_file.c_str());
      return 1;
    }
  }
  out += "}";
  std::printf("%s\n", out.c_str());
  return 0;
}

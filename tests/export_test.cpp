#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/export.h"
#include "util/strings.h"

namespace curtain::analysis {
namespace {

using measure::RecordStore;

RecordStore tiny_dataset() {
  RecordStore d;
  measure::ExperimentContext context;
  context.device_id = 42;
  context.carrier_index = 3;  // Verizon
  context.started = net::SimTime::from_hours(5.0);
  context.radio = cellular::RadioTech::kLte;
  context.location = {40.0, -74.0};
  context.public_ip = net::Ipv4Addr{100, 1, 2, 3};
  context.configured_resolver = net::Ipv4Addr{10, 0, 0, 53};
  d.add_experiment(context);

  measure::DnsMeasurement r;
  r.experiment_id = 0;
  r.resolver = measure::ResolverKind::kLocal;
  r.domain_index = 6;  // m.yelp.com
  r.responded = true;
  r.resolution_ms = 44.25;
  r.addresses = {net::Ipv4Addr{20, 0, 1, 1}, net::Ipv4Addr{20, 0, 1, 2}};
  d.add_resolution(std::move(r));

  measure::ProbeMeasurement p;
  p.experiment_id = 0;
  p.target_kind = measure::ProbeTargetKind::kReplica;
  p.resolver = measure::ResolverKind::kGoogle;
  p.domain_index = 6;
  p.target_ip = net::Ipv4Addr{20, 0, 1, 1};
  p.is_http = true;
  p.responded = true;
  p.rtt_ms = 77.5;
  d.add_probe(p);

  measure::TracerouteMeasurement t;
  t.experiment_id = 0;
  t.target_ip = net::Ipv4Addr{20, 0, 1, 1};
  t.reached = true;
  t.hop_names = {"Verizon-pgw-3", "ix-Chicago"};
  d.add_traceroute(std::move(t));

  measure::ResolverObservation o;
  o.experiment_id = 0;
  o.resolver = measure::ResolverKind::kLocal;
  o.responded = true;
  o.external_ip = net::Ipv4Addr{20, 7, 7, 7};
  d.add_observation(o);

  measure::VantageProbe v;
  v.carrier_index = 3;
  v.target_ip = net::Ipv4Addr{20, 7, 7, 7};
  v.ping_responded = true;
  d.add_vantage(v);
  return d;
}

std::vector<std::string> lines_of(const std::string& text) {
  auto lines = util::split(text, '\n');
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  return lines;
}

/// Exports tiny_dataset() with export_records and returns the lines of
/// `file`.
std::vector<std::string> exported_lines(const std::string& file) {
  // One directory per test: ctest runs the cases as parallel processes.
  const std::string dir =
      ::testing::TempDir() + "/curtain_export_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::filesystem::create_directories(dir);
  EXPECT_EQ(export_records(tiny_dataset(), dir), 7);
  std::ifstream in(dir + "/" + file);
  EXPECT_TRUE(in.good()) << file;
  std::ostringstream text;
  text << in.rdbuf();
  return lines_of(text.str());
}

TEST(Export, ExperimentsCsvShape) {
  const auto lines = exported_lines("experiments.csv");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(util::starts_with(lines[0], "experiment_id,device_id,carrier"));
  EXPECT_NE(lines[1].find("Verizon"), std::string::npos);
  EXPECT_NE(lines[1].find("LTE"), std::string::npos);
  EXPECT_NE(lines[1].find("100.1.2.3"), std::string::npos);
}

TEST(Export, ResolutionsCsvJoinsDomainAndAddresses) {
  const auto lines = exported_lines("resolutions.csv");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("m.yelp.com"), std::string::npos);
  EXPECT_NE(lines[1].find("20.0.1.1 20.0.1.2"), std::string::npos);
}

TEST(Export, ProbesCsvKinds) {
  const auto lines = exported_lines("probes.csv");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("replica"), std::string::npos);
  EXPECT_NE(lines[1].find("http"), std::string::npos);
  EXPECT_NE(lines[1].find("GoogleDNS"), std::string::npos);
}

TEST(Export, TraceroutesCsvJoinsHops) {
  const auto lines = exported_lines("traceroutes.csv");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("Verizon-pgw-3|ix-Chicago"), std::string::npos);
}

TEST(Export, ObservationsCsvHasSlash24) {
  const auto lines = exported_lines("resolver_observations.csv");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("20.7.7.0/24"), std::string::npos);
}

TEST(Export, VantageCsv) {
  const auto lines = exported_lines("vantage_probes.csv");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("Verizon"), std::string::npos);
}

TEST(Export, WholeDatasetToDirectory) {
  const std::string dir = ::testing::TempDir() + "/curtain_export";
  std::filesystem::create_directories(dir);
  EXPECT_EQ(export_records(tiny_dataset(), dir), 7);
  EXPECT_TRUE(std::filesystem::exists(dir + "/resolutions.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/MANIFEST.txt"));
}

TEST(Export, UnwritableDirectoryFailsGracefully) {
  EXPECT_EQ(export_records(tiny_dataset(), "/nonexistent/dir/xyz"), 0);
}

// The writer's referential checks: a broken record stream aborts instead
// of shipping inconsistent files. Each case feeds hand-built blocks.

measure::ExperimentContext experiment_with_id(uint32_t id) {
  measure::ExperimentContext context;
  context.experiment_id = id;
  context.carrier_index = 3;
  return context;
}

TEST(ExportDeathTest, ExperimentIdsMustBeDense) {
  const std::string dir = ::testing::TempDir() + "/curtain_export_dense";
  std::filesystem::create_directories(dir);
  EXPECT_DEATH(
      {
        StreamingCsvExporter exporter(dir);
        measure::RecordBlock block;
        block.append_experiment(experiment_with_id(0));
        block.append_experiment(experiment_with_id(2));
        exporter.consume(std::move(block));
      },
      "must arrive dense");
}

TEST(ExportDeathTest, ResolutionMustReferenceASeenExperiment) {
  const std::string dir = ::testing::TempDir() + "/curtain_export_unseen";
  std::filesystem::create_directories(dir);
  EXPECT_DEATH(
      {
        StreamingCsvExporter exporter(dir);
        measure::RecordBlock first;
        first.append_experiment(experiment_with_id(0));
        exporter.consume(std::move(first));
        measure::RecordBlock second;
        measure::DnsMeasurement r;
        r.experiment_id = 1;
        second.append_resolution(r);
        exporter.consume(std::move(second));
      },
      "unseen experiment 1");
}

TEST(ExportDeathTest, TraceIndexMustBeBelowTracesSeen) {
  const std::string dir = ::testing::TempDir() + "/curtain_export_trace";
  std::filesystem::create_directories(dir);
  EXPECT_DEATH(
      {
        StreamingCsvExporter exporter(dir);
        measure::RecordBlock block;
        block.append_experiment(experiment_with_id(0));
        block.append_trace(obs::ResolutionTrace{});
        measure::DnsMeasurement r;
        r.trace_index = 0;  // this block's trace: in range
        block.append_resolution(r);
        r.trace_index = 1;  // past the one trace seen so far
        block.append_resolution(r);
        exporter.consume(std::move(block));
      },
      "trace_index 1 out of range");
}

}  // namespace
}  // namespace curtain::analysis

// Record export: CSV dumps of the campaign's measurement records.
//
// The paper released its dataset from the project website; this module is
// the equivalent facility — one CSV per record type plus a manifest, so
// external tooling (pandas/R/gnuplot) can re-analyze the campaign.
//
// One writer, StreamingCsvExporter, is a RecordSink that writes each
// block's rows as it arrives — the bounded-memory path (engine
// run_streaming). export_records(store, dir) feeds a retained RecordStore's
// blocks through the same writer, so both workflows emit the same bytes.
// Holding only a carrier index per experiment, the writer never retains a
// record.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "measure/record_store.h"

namespace curtain::analysis {

/// Writes the whole record stream into `directory` (experiments.csv,
/// resolutions.csv, probes.csv, traceroutes.csv, resolver_observations.csv,
/// vantage_probes.csv, MANIFEST.txt) through a StreamingCsvExporter.
/// Returns the number of files written successfully.
int export_records(const measure::RecordStore& records,
                   const std::string& directory);

/// RecordSink writing the same seven files incrementally, one block at a
/// time. Files open (and CSV headers land) at construction; MANIFEST.txt
/// is written by finish(). Memory held: one open file per stream plus one
/// carrier index per experiment seen (resolution/probe rows reference
/// experiments from earlier blocks, so the carrier denormalization needs
/// that much history — nothing else is retained).
class StreamingCsvExporter final : public measure::RecordSink {
 public:
  explicit StreamingCsvExporter(const std::string& directory);

  /// Appends one block's rows to the six CSV files. Aborts (CURTAIN_CHECK)
  /// on a broken stream: experiment ids that are not dense, a record that
  /// references an experiment not yet seen, or a trace_index that is
  /// neither -1 nor below the number of traces seen so far (this block's
  /// included).
  void write(const measure::RecordBlock& block);
  void consume(measure::RecordBlock&& block) override { write(block); }
  void finish() override;

  /// Files successfully written; meaningful after finish().
  int files_written() const { return files_written_; }

 private:
  std::string directory_;
  std::ofstream experiments_;
  std::ofstream resolutions_;
  std::ofstream probes_;
  std::ofstream traceroutes_;
  std::ofstream observations_;
  std::ofstream vantage_;
  /// Carrier table index of experiment id `i` (ids arrive dense).
  std::vector<int32_t> experiment_carrier_;
  size_t trace_count_ = 0;
  size_t resolution_count_ = 0;
  size_t probe_count_ = 0;
  size_t traceroute_count_ = 0;
  size_t observation_count_ = 0;
  size_t vantage_count_ = 0;
  int files_written_ = 0;
};

}  // namespace curtain::analysis

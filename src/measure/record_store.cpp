#include "measure/record_store.h"

#include <algorithm>
#include <limits>

#include "util/flags.h"

namespace curtain::measure {

namespace {

/// Binary search over (first ordinal, block index) pairs: the entry owning
/// `ordinal` is the last one whose base is <= ordinal.
size_t owning_block(const std::vector<std::pair<size_t, size_t>>& index,
                    size_t ordinal) {
  auto it = std::upper_bound(
      index.begin(), index.end(), ordinal,
      [](size_t value, const std::pair<size_t, size_t>& entry) {
        return value < entry.first;
      });
  CURTAIN_CHECK(it != index.begin()) << "record ordinal " << ordinal
                                     << " before the first retained block";
  return static_cast<size_t>(it - index.begin()) - 1;
}

}  // namespace

RecordStore::RecordStore(size_t block_rows)
    : block_rows_(block_rows != 0 ? block_rows : util::record_block_rows()) {}

RecordBlock& RecordStore::open_block() {
  if (!open_) {
    blocks_.emplace_back();
    open_ = true;
  }
  return blocks_.back();
}

void RecordStore::seal_open() {
  if (!open_) return;
  open_ = false;
  if (drain_ != nullptr) {
    RecordBlock block = std::move(blocks_.back());
    blocks_.pop_back();
    if (!block.empty()) drain_->consume(std::move(block));
  } else if (blocks_.back().empty()) {
    blocks_.pop_back();
  }
}

void RecordStore::seal_if_full() {
  if (open_ && blocks_.back().rows >= block_rows_) seal_open();
}

uint32_t RecordStore::add_experiment(ExperimentContext context) {
  CURTAIN_CHECK(next_experiment_id_ !=
                std::numeric_limits<uint32_t>::max())
      << "experiment id space exhausted";
  const uint32_t id = next_experiment_id_++;
  context.experiment_id = id;
  RecordBlock& block = open_block();
  if (drain_ == nullptr && block.experiments.empty()) {
    experiment_index_.emplace_back(static_cast<size_t>(id),
                                   blocks_.size() - 1);
  }
  block.append_experiment(context);
  ++experiment_count_;
  seal_if_full();
  return id;
}

void RecordStore::add_resolution(DnsMeasurement&& record) {
  open_block().append_resolution(record);
  ++resolution_count_;
  seal_if_full();
}

void RecordStore::add_probe(const ProbeMeasurement& record) {
  open_block().append_probe(record);
  ++probe_count_;
  seal_if_full();
}

void RecordStore::add_traceroute(TracerouteMeasurement&& record) {
  open_block().append_traceroute(std::move(record));
  ++traceroute_count_;
  seal_if_full();
}

void RecordStore::add_observation(const ResolverObservation& record) {
  open_block().append_observation(record);
  ++observation_count_;
  seal_if_full();
}

void RecordStore::add_vantage(const VantageProbe& record) {
  open_block().append_vantage(record);
  seal_if_full();
}

int32_t RecordStore::add_trace(obs::ResolutionTrace&& trace) {
  CURTAIN_CHECK(next_trace_index_ != std::numeric_limits<int32_t>::max())
      << "trace index space exhausted";
  const int32_t index = next_trace_index_++;
  open_block().append_trace(std::move(trace));
  ++trace_count_;
  seal_if_full();
  return index;
}

void RecordStore::drain_to(RecordSink* sink) {
  CURTAIN_CHECK(blocks_.empty())
      << "drain_to must be set before the first append";
  drain_ = sink;
}

void RecordStore::flush() { seal_open(); }

void RecordStore::consume(RecordBlock&& block) {
  if (block.empty()) return;
  seal_open();
  if (!block.experiments.empty()) {
    CURTAIN_CHECK(block.experiments.front().experiment_id ==
                  next_experiment_id_)
        << "consumed block breaks the dense experiment-id sequence";
    CURTAIN_CHECK(block.experiments.size() <=
                  std::numeric_limits<uint32_t>::max() - next_experiment_id_)
        << "experiment id space exhausted";
  }
  CURTAIN_CHECK(block.traces.size() <=
                static_cast<size_t>(std::numeric_limits<int32_t>::max() -
                                    next_trace_index_))
      << "trace index space exhausted";
  if (drain_ == nullptr && !block.experiments.empty()) {
    experiment_index_.emplace_back(static_cast<size_t>(next_experiment_id_),
                                   blocks_.size());
  }
  next_experiment_id_ += static_cast<uint32_t>(block.experiments.size());
  next_trace_index_ += static_cast<int32_t>(block.traces.size());
  experiment_count_ += block.experiments.size();
  resolution_count_ += block.resolutions.size();
  probe_count_ += block.probes.size();
  traceroute_count_ += block.traceroutes.size();
  observation_count_ += block.observations.size();
  trace_count_ += block.traces.size();
  if (drain_ != nullptr) {
    drain_->consume(std::move(block));
  } else {
    blocks_.push_back(std::move(block));
  }
}

void RecordStore::drain_renumbered(RecordSink& sink, uint32_t experiment_base,
                                   int32_t trace_base) {
  flush();
  CURTAIN_CHECK(static_cast<uint64_t>(experiment_base) + next_experiment_id_ <=
                std::numeric_limits<uint32_t>::max())
      << "merged campaign would overflow the 32-bit experiment-id space";
  CURTAIN_CHECK(static_cast<int64_t>(trace_base) + next_trace_index_ <=
                std::numeric_limits<int32_t>::max())
      << "merged campaign would overflow the 32-bit trace-index space";
  for (RecordBlock& block : blocks_) {
    block.shift_ids(experiment_base, trace_base);
    sink.consume(std::move(block));
  }
  blocks_.clear();
  experiment_index_.clear();
  open_ = false;
  next_experiment_id_ = 0;
  next_trace_index_ = 0;
  experiment_count_ = 0;
  resolution_count_ = 0;
  probe_count_ = 0;
  traceroute_count_ = 0;
  observation_count_ = 0;
  trace_count_ = 0;
}

const ExperimentContext& RecordStore::context_of(
    uint32_t experiment_id) const {
  CURTAIN_DCHECK(experiment_id < next_experiment_id_)
      << "experiment " << experiment_id << " of " << next_experiment_id_;
  CURTAIN_CHECK(drain_ == nullptr)
      << "context_of is unavailable on a draining store";
  const size_t entry = owning_block(experiment_index_, experiment_id);
  const auto& [base, block_index] = experiment_index_[entry];
  const RecordBlock& block = blocks_[block_index];
  const size_t offset = experiment_id - base;
  CURTAIN_DCHECK(offset < block.experiments.size()) << offset;
  return block.experiments[offset];
}

size_t RecordStore::approx_bytes() const {
  size_t bytes = blocks_.capacity() * sizeof(RecordBlock);
  for (const RecordBlock& block : blocks_) bytes += block.approx_bytes();
  bytes += experiment_index_.capacity() * sizeof(experiment_index_[0]);
  return bytes;
}

}  // namespace curtain::measure

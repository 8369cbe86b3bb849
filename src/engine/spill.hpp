// Out-of-core sinks: spill_sink streams probe_records to disk as
// length-prefixed binary records instead of aggregating in memory,
// shard_layout cuts a sample into the slices each shard file holds,
// spill_merge re-assembles a sharded spill set into one plan-ordered
// stream, and spill_reader replays a single spilled file as the
// one-shard merge, back through any sink against the same model and
// plan. Together they decouple probing from aggregation: a
// million-domain sweep can run shard by shard, spill each shard, and be
// re-aggregated by any number of sinks without re-simulating a single
// handshake — and without ever holding more than one record per shard
// in memory.
//
// Format (version 4; every count, index, length and counter is a QUIC
// varint, RFC 9000 §16):
//   header  "CQSPILL\x04" <variant_count> <sampled_services>
//   record  <body_length >= 1> <body>, body =
//             <service_index> <variant_index> <class: 1 byte>
//             <flags: 1 byte, the six observation booleans>
//             <19 integer observation fields>
//             <certificate_length> <certificate bytes>
//   ...
//   footer  <0> <record_count> "end\n", then end of file
// One table of quic::observation members drives both the encoder and
// the decoder, so the field order is written once (spill.cpp).
// probe_result::ttfb is derived from the timeline fields on replay
// rather than stored.
// The footer is written by on_end() and is what makes a spill file
// *validatable*: a file cut exactly at a record boundary (crash or
// disk-full after a flush) decodes cleanly record by record but has no
// footer, so replay throws instead of silently aggregating fewer
// records. A cut inside a record leaves a length prefix that runs past
// the end of the file. Every field of scan::probe_result round-trips,
// so replayed aggregates are bit-identical to direct ones (enforced by
// the SpillSink and one-epoch census tests in tests/outofcore_test).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/sink.hpp"
#include "util/buffer.hpp"

namespace certquic::engine {

/// Streams records to a file. The sink requires the full lifecycle:
/// on_begin writes the header with the *real* variant and sample
/// counts (a header with made-up counts would disable the replay-side
/// plan-shape validation), on_record appends one record per probe (one
/// fwrite from a reused encode buffer), and on_end writes the
/// record-count footer, flushes and closes. Driving on_record without
/// on_begin throws.
class spill_sink final : public observation_sink {
 public:
  /// Opens `path` for writing; throws config_error when that fails.
  explicit spill_sink(std::string path);
  ~spill_sink() override;

  spill_sink(const spill_sink&) = delete;
  spill_sink& operator=(const spill_sink&) = delete;

  void on_begin(const probe_plan& plan, std::size_t sampled) override;
  void on_record(const probe_record& rec) override;
  void on_end() override;

  [[nodiscard]] std::size_t records_written() const noexcept {
    return records_;
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  bool header_written_ = false;
  std::size_t records_ = 0;
  buffer_writer encoded_;  // one record: length prefix, then body
  buffer_writer prefix_;   // the body-length varint being placed
};

/// Replays one spilled file. Records are reconstructed against the
/// model and plan the spill was captured under: service/variant indices
/// are resolved back to references, the probe result is decoded
/// verbatim. Single-file replay is the one-shard spill_merge, so it
/// enforces the same checks.
class spill_reader {
 public:
  spill_reader(const internet::model& m, const probe_plan& plan)
      : model_(m), plan_(plan) {}

  /// Streams every spilled record through `sink` (with the full
  /// on_begin/on_record/on_end lifecycle) and returns the record count.
  /// Throws codec_error on a malformed, truncated (missing or
  /// mismatching footer) or version-mismatched file and on variant runs
  /// out of plan order, and config_error when the file's variant count,
  /// sample size or an index does not fit the model or plan.
  std::size_t replay(const std::string& path, observation_sink& sink) const;

 private:
  const internet::model& model_;
  const probe_plan& plan_;
};

/// Integrity verdict on one spill file, without needing the model or
/// plan it was captured under.
enum class spill_state : std::uint8_t {
  complete,   // header, records and footer all validate
  truncated,  // opens but fails integrity (cut inside a record, cut at a
              // record boundary before the footer, not a v4 file, or
              // otherwise malformed — a crashed writer is
              // indistinguishable from corruption)
  missing,    // cannot be opened
};

[[nodiscard]] std::string to_string(spill_state s);

/// What spill_probe learned about a file.
struct spill_probe_result {
  spill_state state = spill_state::missing;
  /// Records parsed before the verdict; the full count for complete
  /// files, the salvage horizon for truncated ones.
  std::size_t records = 0;
  std::size_t variants = 0;  // header variant count (0 when missing)
  std::size_t sampled = 0;   // header sample count (0 when missing)

  [[nodiscard]] bool complete() const noexcept {
    return state == spill_state::complete;
  }
};

/// Classifies a spill file on disk: `complete` iff every record parses
/// and the record-count footer validates, `truncated` for anything
/// that opens but fails those checks, `missing` when the file cannot
/// be opened. This is the public face of the footer integrity check —
/// resume logic (the longitudinal service's shard checkpoints) and
/// spill_merge's error reporting both use it instead of probing via
/// catch-codec_error.
[[nodiscard]] spill_probe_result spill_probe(const std::string& path);

/// The one way a sample is cut into spill shards. The out-of-core
/// study and every epoch of the longitudinal service use it, so for the
/// same population, sample and shard count the study's shard files are
/// byte for byte epoch 0's, and epoch stores already on disk depend on
/// it not changing: the requested count is clamped to
/// [1, max(1, sampled)], every slice is ceil(sampled / shards) services
/// wide except the last non-empty one, and trailing slices may be empty
/// (10 services over 7 shards: five slices of 2, then two empty ones).
/// Shard s spills to file_name(s).
class shard_layout {
 public:
  shard_layout(std::size_t sampled, std::size_t requested_shards);

  [[nodiscard]] std::size_t shards() const noexcept { return shards_; }

  /// Shard `shard`'s contiguous slice of `sample`, the sample the
  /// layout was cut for.
  [[nodiscard]] std::vector<std::uint32_t> slice(
      const std::vector<std::uint32_t>& sample, std::size_t shard) const;

  /// The shard's spill file name: shard_0000.spill, shard_0001.spill, ...
  [[nodiscard]] static std::string file_name(std::size_t shard);

 private:
  std::size_t sampled_;
  std::size_t shards_;
  std::size_t width_;
};

/// Merges per-shard spill files of one plan back into a single
/// plan-ordered stream. Each shard file holds a contiguous slice of the
/// plan's sample, spilled in plan order (variant-major over the slice);
/// the merge is a k-way replay keyed on (variant, shard): all shards'
/// records under variants[0] in shard order, then variants[1], ... —
/// exactly the order one in-memory run over the concatenated sample
/// would produce. Every file is streamed exactly once; peak memory is,
/// per shard, one read buffer of up to 64 KiB (larger only for a larger
/// record) and one decoded record.
class spill_merge {
 public:
  spill_merge(const internet::model& m, const probe_plan& plan)
      : model_(m), plan_(plan) {}

  /// Streams the merged record stream through `sink` (one
  /// on_begin/on_end pair; on_begin's sample size is the sum of the
  /// shard headers) and returns the total record count. Shard files
  /// are merged in the order given, which must be the shard order of
  /// the original partition — the merge trusts that order and each
  /// file's within-variant record order (it cannot know the sample,
  /// so only *cross-variant* disorder inside a file is detectable and
  /// throws codec_error; the study-level stream digest is what
  /// catches everything else). Also throws codec_error when any file
  /// is malformed or truncated — with every shard's spill_probe
  /// verdict appended to the message — and config_error on an empty
  /// file list, a plan-shape mismatch or a header that claims more
  /// sampled services than the model holds.
  std::size_t replay(const std::vector<std::string>& paths,
                     observation_sink& sink) const;

 private:
  std::size_t replay_merge(const std::vector<std::string>& paths,
                           observation_sink& sink) const;

  const internet::model& model_;
  const probe_plan& plan_;
};

}  // namespace certquic::engine

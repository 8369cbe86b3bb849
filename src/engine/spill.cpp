#include "engine/spill.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstddef>
#include <fstream>
#include <memory>
#include <sstream>

#include "util/assert.hpp"
#include "util/errors.hpp"
#include "util/hex.hpp"

namespace certquic::engine {
namespace {

constexpr const char* kMagic = "certquic-spill";
constexpr const char* kVersion = "v3";
constexpr const char* kFooterTag = "end";

/// One decoded spill line, not yet resolved against a model/plan.
struct parsed_record {
  std::uint32_t service_index = 0;
  std::uint32_t variant_index = 0;
  scan::probe_result result;
};

parsed_record parse_record_line(const std::string& line,
                                const std::string& path) {
  std::istringstream fields{line};
  parsed_record rec;
  int cls = 0;
  int response = 0, retry = 0, vn = 0, complete = 0, timed_out = 0;
  int compression = 0;
  std::string hex;
  quic::observation& o = rec.result.obs;
  fields >> rec.service_index >> rec.variant_index >> cls >> response >>
      retry >> vn >> complete >> timed_out >> o.client_datagrams >>
      o.acks_before_complete >> o.bytes_sent_first_flight >>
      o.bytes_sent_total >> o.bytes_received_total >>
      o.bytes_received_first_burst >> o.tls_bytes_first_burst >>
      o.padding_bytes_first_burst >> o.tls_bytes_received >>
      o.padding_bytes_received >> o.server_datagrams >> compression >>
      o.certificate_msg_size >> o.certificate_uncompressed_size >>
      o.start_time >> o.complete_time >> o.first_receive_time >>
      o.last_receive_time >> o.first_app_byte_time >>
      o.app_bytes_received >> hex;
  if (!fields) {
    throw codec_error("spill_reader: truncated record in " + path);
  }
  if (cls < 0 || cls > static_cast<int>(scan::handshake_class::unreachable)) {
    throw codec_error("spill_reader: handshake class out of range in " +
                      path);
  }
  rec.result.cls = static_cast<scan::handshake_class>(cls);
  o.response_received = response != 0;
  o.retry_seen = retry != 0;
  o.version_negotiation_seen = vn != 0;
  o.handshake_complete = complete != 0;
  o.timed_out = timed_out != 0;
  o.compression_used = compression != 0;
  if (hex != "-") {
    o.certificate_message = from_hex(hex);
  }
  // The TTFB is derived, not stored: recompute it exactly as
  // scan::reach does so replayed records carry the same timeline.
  if (o.first_app_byte_time != 0) {
    rec.result.ttfb = o.first_app_byte_time - o.start_time;
  }
  return rec;
}

/// Streaming cursor over one spill file: parses the header up front,
/// buffers one decoded record at a time, and validates the record-count
/// footer when the stream runs out. The merge (and with it single-file
/// replay) and spill_probe share it so all enforce the same integrity
/// checks.
class spill_cursor {
 public:
  explicit spill_cursor(std::string path)
      : path_(std::move(path)), in_(path_) {
    if (!in_) {
      throw config_error("spill_reader: cannot open " + path_);
    }
    std::string magic;
    std::string version;
    in_ >> magic >> version >> variants_ >> sampled_;
    if (magic != kMagic || version != kVersion) {
      throw codec_error("spill_reader: not a " + std::string(kVersion) +
                        " spill file: " + path_);
    }
    std::string line;
    std::getline(in_, line);  // consume the header's newline
    fill();
  }

  [[nodiscard]] std::size_t variants() const noexcept { return variants_; }
  [[nodiscard]] std::size_t sampled() const noexcept { return sampled_; }
  [[nodiscard]] std::size_t records_read() const noexcept {
    return records_;
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// The next record, or nullptr once the footer has validated the
  /// complete stream.
  [[nodiscard]] const parsed_record* peek() const noexcept {
    return have_next_ ? &next_ : nullptr;
  }

  void advance() {
    ++records_;
    fill();
  }

 private:
  void fill() {
    have_next_ = false;
    std::string line;
    while (std::getline(in_, line)) {
      if (line.empty()) {
        continue;
      }
      if (line.compare(0, std::char_traits<char>::length(kMagic), kMagic) ==
          0) {
        check_footer(line);
        ensure_nothing_after_footer();
        return;
      }
      next_ = parse_record_line(line, path_);
      have_next_ = true;
      return;
    }
    // EOF without a footer: the file was cut at a line boundary (crash,
    // disk-full after a flush) — refuse to pass it off as complete.
    throw codec_error("spill_reader: missing footer in " + path_ +
                      " — truncated spill? (complete files end with '" +
                      kMagic + " " + kFooterTag + " <record_count>')");
  }

  void check_footer(const std::string& line) {
    std::istringstream fields{line};
    std::string magic;
    std::string tag;
    std::size_t count = 0;
    fields >> magic >> tag >> count;
    if (!fields || tag != kFooterTag) {
      throw codec_error("spill_reader: malformed footer in " + path_ +
                        ": " + line);
    }
    if (count != records_) {
      throw codec_error(
          "spill_reader: footer records " + std::to_string(count) +
          " != " + std::to_string(records_) + " records present in " +
          path_ + " — truncated spill");
    }
  }

  void ensure_nothing_after_footer() {
    std::string line;
    while (std::getline(in_, line)) {
      if (!line.empty()) {
        throw codec_error("spill_reader: data after footer in " + path_);
      }
    }
  }

  std::string path_;
  std::ifstream in_;
  std::size_t variants_ = 0;
  std::size_t sampled_ = 0;
  std::size_t records_ = 0;
  parsed_record next_;
  bool have_next_ = false;
};

/// Resolves a decoded line against the model and plan and streams it.
void emit(const internet::model& model, const probe_plan& plan,
          const parsed_record& rec, observation_sink& sink) {
  if (rec.service_index >= model.records().size()) {
    throw config_error("spill_reader: service index out of range");
  }
  if (rec.variant_index >= plan.variants.size()) {
    throw config_error("spill_reader: variant index out of range");
  }
  sink.on_record(probe_record{
      .service_index = rec.service_index,
      .variant_index = rec.variant_index,
      .record = model.records()[rec.service_index],
      .variant = plan.variants[rec.variant_index],
      .result = rec.result,
  });
}

}  // namespace

spill_sink::spill_sink(std::string path) : path_(std::move(path)) {
  file_ = std::fopen(path_.c_str(), "w");
  if (file_ == nullptr) {
    throw config_error("spill_sink: cannot open " + path_);
  }
}

spill_sink::~spill_sink() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

void spill_sink::on_begin(const probe_plan& plan, std::size_t sampled) {
  if (header_written_) {
    throw config_error("spill_sink: on_begin called twice for " + path_);
  }
  std::fprintf(file_, "%s %s %zu %zu\n", kMagic, kVersion,
               plan.variants.size(), sampled);
  header_written_ = true;
}

void spill_sink::on_record(const probe_record& rec) {
  if (file_ == nullptr) {
    throw config_error("spill_sink: record after on_end");
  }
  if (!header_written_) {
    // A header with made-up counts would silently disable the replay
    // side's plan-shape validation, so a lifecycle-less record stream
    // is an error rather than a degraded spill.
    throw config_error(
        "spill_sink: on_record before on_begin — drive the sink through "
        "the executor (or call on_begin) so the header records the real "
        "variant and sample counts");
  }
  const quic::observation& o = rec.result.obs;
  std::fprintf(
      file_,
      "%" PRIu32 " %" PRIu32 " %d %d %d %d %d %d %zu %zu %zu %zu %zu %zu "
      "%zu %zu %zu %zu %zu %d %zu %zu %" PRIu64 " %" PRIu64 " %" PRIu64
      " %" PRIu64 " %" PRIu64 " %zu %s\n",
      rec.service_index, rec.variant_index,
      static_cast<int>(rec.result.cls), o.response_received ? 1 : 0,
      o.retry_seen ? 1 : 0, o.version_negotiation_seen ? 1 : 0,
      o.handshake_complete ? 1 : 0, o.timed_out ? 1 : 0, o.client_datagrams,
      o.acks_before_complete, o.bytes_sent_first_flight, o.bytes_sent_total,
      o.bytes_received_total, o.bytes_received_first_burst,
      o.tls_bytes_first_burst, o.padding_bytes_first_burst,
      o.tls_bytes_received, o.padding_bytes_received, o.server_datagrams,
      o.compression_used ? 1 : 0, o.certificate_msg_size,
      o.certificate_uncompressed_size, o.start_time, o.complete_time,
      o.first_receive_time, o.last_receive_time, o.first_app_byte_time,
      o.app_bytes_received,
      o.certificate_message.empty()
          ? "-"
          : to_hex(o.certificate_message).c_str());
  ++records_;
}

void spill_sink::on_end() {
  if (file_ == nullptr) {
    return;
  }
  // The footer is the integrity seal: replay refuses files without it
  // (or with a mismatching count), so a spill cut at a line boundary —
  // which parses cleanly record by record — cannot silently replay
  // into wrong aggregates.
  std::fprintf(file_, "%s %s %zu\n", kMagic, kFooterTag, records_);
  const bool write_error = std::ferror(file_) != 0;
  const bool close_error = std::fclose(file_) != 0;
  file_ = nullptr;
  if (write_error || close_error) {
    throw config_error("spill_sink: I/O error writing " + path_);
  }
}

std::size_t spill_reader::replay(const std::string& path,
                                 observation_sink& sink) const {
  return spill_merge{model_, plan_}.replay({path}, sink);
}

std::string to_string(spill_state s) {
  switch (s) {
    case spill_state::complete:
      return "complete";
    case spill_state::truncated:
      return "truncated";
    case spill_state::missing:
      return "missing";
  }
  return "unknown";
}

spill_probe_result spill_probe(const std::string& path) {
  spill_probe_result out;
  try {
    spill_cursor cur{path};
    out.variants = cur.variants();
    out.sampled = cur.sampled();
    out.state = spill_state::truncated;  // header parsed, rest pending
    while (cur.peek() != nullptr) {
      // Count the peeked record before advancing: advance() parses
      // ahead and throws at the tear, which would otherwise drop the
      // last cleanly-parsed record from the salvage count.
      out.records = cur.records_read() + 1;
      cur.advance();
    }
    out.state = spill_state::complete;
  } catch (const config_error&) {
    // The cursor throws config_error only for an unopenable file.
    out.state = spill_state::missing;
  } catch (const codec_error&) {
    // Bad magic, mid-line cut, footerless tail, footer mismatch: all
    // present as `truncated` — a crashed writer is indistinguishable
    // from corruption, and both mean "discard and re-run the slice".
    // Set explicitly: the cursor constructor itself throws when the
    // tear falls inside the first record line (or the header).
    out.state = spill_state::truncated;
  }
  return out;
}

shard_layout::shard_layout(std::size_t sampled, std::size_t requested_shards)
    : sampled_(sampled),
      shards_(std::clamp<std::size_t>(requested_shards, 1,
                                      std::max<std::size_t>(1, sampled))),
      width_((std::max<std::size_t>(1, sampled) + shards_ - 1) / shards_) {}

std::vector<std::uint32_t> shard_layout::slice(
    const std::vector<std::uint32_t>& sample, std::size_t shard) const {
  CERTQUIC_ASSERT(sample.size() == sampled_,
                  "shard_layout: slicing a sample it was not cut for");
  const std::size_t lo = std::min(sampled_, shard * width_);
  const std::size_t hi = std::min(sampled_, lo + width_);
  return {sample.begin() + static_cast<std::ptrdiff_t>(lo),
          sample.begin() + static_cast<std::ptrdiff_t>(hi)};
}

std::string shard_layout::file_name(std::size_t shard) {
  char name[32];
  std::snprintf(name, sizeof name, "shard_%04zu.spill", shard);
  return name;
}

std::size_t spill_merge::replay(const std::vector<std::string>& paths,
                                observation_sink& sink) const {
  if (paths.empty()) {
    throw config_error("spill_merge: no spill files to merge");
  }
  try {
    return replay_merge(paths, sink);
  } catch (const codec_error& e) {
    // Augment the parse failure with each shard's integrity verdict so
    // the operator (or the resume logic's logs) can see at a glance
    // which slices survived a crash and which need re-running.
    std::string msg = e.what();
    msg += "; shard integrity:";
    for (const std::string& path : paths) {
      msg += " " + path + "=" + to_string(spill_probe(path).state);
    }
    throw codec_error(msg);
  }
}

std::size_t spill_merge::replay_merge(const std::vector<std::string>& paths,
                                      observation_sink& sink) const {
  std::vector<std::unique_ptr<spill_cursor>> cursors;
  cursors.reserve(paths.size());
  std::size_t total_sampled = 0;
  for (const std::string& path : paths) {
    const spill_cursor& cur =
        *cursors.emplace_back(std::make_unique<spill_cursor>(path));
    if (cur.variants() != plan_.variants.size()) {
      throw config_error("spill_reader: " + path + " captured under " +
                         std::to_string(cur.variants()) +
                         " variants, plan has " +
                         std::to_string(plan_.variants.size()));
    }
    total_sampled += cur.sampled();
  }

  sink.on_begin(plan_, total_sampled);
  // Plan order over the sharded sample is (variant, shard, position):
  // each file already stores its slice variant-major, so the merge
  // walks the variant axis once and drains every cursor's run of that
  // variant in shard order. Each file is read exactly once.
  std::size_t total = 0;
#if defined(CERTQUIC_ENABLE_ASSERTS)
  // Merge invariant: the emitted stream's (variant, shard) key must
  // never move backwards — that is the plan order the downstream
  // aggregate's bit-identity rests on.
  std::uint64_t last_key = 0;
  bool emitted_any = false;
#endif
  for (std::uint32_t v = 0; v < plan_.variants.size(); ++v) {
    for (std::size_t shard = 0; shard < cursors.size(); ++shard) {
      auto& cur = cursors[shard];
      while (cur->peek() != nullptr && cur->peek()->variant_index == v) {
#if defined(CERTQUIC_ENABLE_ASSERTS)
        const std::uint64_t key =
            (static_cast<std::uint64_t>(v) << 32) | shard;
        CERTQUIC_ASSERT(!emitted_any || key >= last_key,
                        "spill_merge: merged stream left (variant, shard) "
                        "plan order");
        last_key = key;
        emitted_any = true;
#endif
        emit(model_, plan_, *cur->peek(), sink);
        cur->advance();
        ++total;
      }
    }
  }
  for (const auto& cur : cursors) {
    if (cur->peek() != nullptr) {
      throw codec_error("spill_merge: variant runs out of plan order in " +
                        cur->path());
    }
  }
  sink.on_end();
  return total;
}

}  // namespace certquic::engine

#include "engine/spill.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <limits>
#include <memory>
#include <type_traits>

#include "quic/varint.hpp"
#include "util/assert.hpp"
#include "util/errors.hpp"

namespace certquic::engine {
namespace {

// The member table below reads every integer observation field as one
// 64-bit word, whatever its declared type.
static_assert(std::is_same_v<std::size_t, std::uint64_t>,
              "spill v4 encodes std::size_t fields as 64-bit varints");
static_assert(std::is_same_v<net::time_point, std::uint64_t>,
              "spill v4 encodes time_point fields as 64-bit varints");

constexpr std::array<std::uint8_t, 8> kMagic = {'C', 'Q', 'S', 'P',
                                                'I', 'L', 'L', 0x04};
constexpr std::array<std::uint8_t, 4> kFooterTail = {'e', 'n', 'd', '\n'};
/// Refill granularity of the read buffer; only a larger record grows it.
constexpr std::size_t kReadBuffer = 64 * 1024;
/// Room ahead of the body for its longest (8-byte) length varint.
constexpr std::size_t kLengthRoom = 8;

/// The six observation booleans, bit i of the flag byte being
/// kFlags[i]. Any other bit set is a malformed record.
constexpr std::array<bool quic::observation::*, 6> kFlags = {
    &quic::observation::response_received,
    &quic::observation::retry_seen,
    &quic::observation::version_negotiation_seen,
    &quic::observation::handshake_complete,
    &quic::observation::timed_out,
    &quic::observation::compression_used,
};
constexpr std::uint8_t kKnownFlags = (1u << kFlags.size()) - 1;

/// The integer observation fields in record order. Encode and decode
/// both walk this table, so the order is written only here.
constexpr std::array<std::uint64_t quic::observation::*, 19> kFields = {
    &quic::observation::client_datagrams,
    &quic::observation::acks_before_complete,
    &quic::observation::bytes_sent_first_flight,
    &quic::observation::bytes_sent_total,
    &quic::observation::bytes_received_total,
    &quic::observation::bytes_received_first_burst,
    &quic::observation::tls_bytes_first_burst,
    &quic::observation::padding_bytes_first_burst,
    &quic::observation::tls_bytes_received,
    &quic::observation::padding_bytes_received,
    &quic::observation::server_datagrams,
    &quic::observation::certificate_msg_size,
    &quic::observation::certificate_uncompressed_size,
    &quic::observation::start_time,
    &quic::observation::complete_time,
    &quic::observation::first_receive_time,
    &quic::observation::last_receive_time,
    &quic::observation::first_app_byte_time,
    &quic::observation::app_bytes_received,
};

void encode_body(buffer_writer& w, const probe_record& rec) {
  const quic::observation& o = rec.result.obs;
  quic::write_varint(w, rec.service_index);
  quic::write_varint(w, rec.variant_index);
  w.u8(static_cast<std::uint8_t>(rec.result.cls));
  std::uint8_t flags = 0;
  for (std::size_t bit = 0; bit < kFlags.size(); ++bit) {
    if (o.*kFlags[bit]) {
      flags |= static_cast<std::uint8_t>(1u << bit);
    }
  }
  w.u8(flags);
  for (const auto field : kFields) {
    quic::write_varint(w, o.*field);
  }
  quic::write_varint(w, o.certificate_message.size());
  w.raw(o.certificate_message);
}

/// One decoded record, not yet resolved against a model/plan.
struct parsed_record {
  std::uint32_t service_index = 0;
  std::uint32_t variant_index = 0;
  scan::probe_result result;
};

std::uint32_t read_index(buffer_reader& r) {
  const std::uint64_t v = quic::read_varint(r);
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    throw codec_error("index " + std::to_string(v) + " exceeds 32 bits");
  }
  return static_cast<std::uint32_t>(v);
}

/// Decodes one record body into `rec`, reusing its certificate buffer.
/// The body must be consumed exactly.
void decode_body(bytes_view body, parsed_record& rec) {
  buffer_reader r{body};
  rec.service_index = read_index(r);
  rec.variant_index = read_index(r);
  const std::uint8_t cls = r.u8();
  if (cls > static_cast<std::uint8_t>(scan::handshake_class::unreachable)) {
    throw codec_error("handshake class " + std::to_string(cls) +
                      " out of range");
  }
  rec.result.cls = static_cast<scan::handshake_class>(cls);
  const std::uint8_t flags = r.u8();
  if ((flags & ~kKnownFlags) != 0) {
    throw codec_error("unknown flag bits in " + std::to_string(flags));
  }
  quic::observation& o = rec.result.obs;
  for (std::size_t bit = 0; bit < kFlags.size(); ++bit) {
    o.*kFlags[bit] = ((flags >> bit) & 1u) != 0;
  }
  for (const auto field : kFields) {
    o.*field = quic::read_varint(r);
  }
  const bytes_view cert = r.raw(quic::read_varint(r));
  o.certificate_message.assign(cert.begin(), cert.end());
  if (!r.empty()) {
    throw codec_error("body holds " + std::to_string(r.remaining()) +
                      " bytes past its last field");
  }
  // The TTFB is derived, not stored: recompute it exactly as
  // scan::reach does so replayed records carry the same timeline.
  rec.result.ttfb =
      o.first_app_byte_time != 0 ? o.first_app_byte_time - o.start_time : 0;
}

/// Closes the FILE* a unique_ptr owns.
struct file_closer {
  void operator()(std::FILE* f) const noexcept { std::fclose(f); }
};

/// Streaming cursor over one spill file: validates the header up front,
/// keeps one decoded record at a time, and validates the record-count
/// footer when the records run out. The merge (and with it single-file
/// replay) and spill_probe share it so all enforce the same integrity
/// checks. Reads go through one refill buffer of kReadBuffer bytes (or
/// the file size, if smaller); it grows only for a record that does
/// not fit, and never past the bytes the file still holds, so no
/// length field can make it allocate more than the file's size.
class spill_cursor {
 public:
  explicit spill_cursor(std::string path)
      : path_(std::move(path)), file_(std::fopen(path_.c_str(), "rb")) {
    if (file_ == nullptr) {
      throw config_error("spill_reader: cannot open " + path_);
    }
    long size = -1;
    if (std::fseek(file_.get(), 0, SEEK_END) == 0) {
      size = std::ftell(file_.get());
    }
    if (size < 0 || std::fseek(file_.get(), 0, SEEK_SET) != 0) {
      throw codec_error("spill_reader: cannot size " + path_);
    }
    unread_ = static_cast<std::size_t>(size);
    buf_.resize(std::min(kReadBuffer, unread_));
    if (!ensure(kMagic.size()) ||
        !std::equal(kMagic.begin(), kMagic.end(), buf_.begin())) {
      throw codec_error("spill_reader: not a v4 spill file: " + path_);
    }
    pos_ += kMagic.size();
    variants_ = read_varint("header");
    sampled_ = read_varint("header");
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
  [[nodiscard]] std::size_t available() const noexcept {
    return end_ - pos_ + unread_;
  }

  /// Makes `n` bytes readable at pos_; false when the file ends first.
  bool ensure(std::size_t n) {
    if (end_ - pos_ >= n) {
      return true;
    }
    if (n > available()) {
      return false;
    }
    std::copy(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
              buf_.begin() + static_cast<std::ptrdiff_t>(end_),
              buf_.begin());
    end_ -= pos_;
    pos_ = 0;
    if (n > buf_.size()) {
      buf_.resize(n);  // a record larger than the buffer; n <= available()
    }
    const std::size_t want = std::min(buf_.size() - end_, unread_);
    const std::size_t got = std::fread(buf_.data() + end_, 1, want,
                                       file_.get());
    end_ += got;
    unread_ -= got;
    if (got != want) {
      throw codec_error("spill_reader: read error in " + path_);
    }
    return true;
  }

  std::uint64_t read_varint(const char* what) {
    if (!ensure(1) || !ensure(std::size_t{1} << (buf_[pos_] >> 6))) {
      throw codec_error(std::string("spill_reader: truncated ") + what +
                        " in " + path_);
    }
    buffer_reader r{bytes_view{buf_}.subspan(pos_, end_ - pos_)};
    const std::uint64_t v = quic::read_varint(r);
    pos_ += r.position();
    return v;
  }

  void fill() {
    have_next_ = false;
    if (!ensure(1)) {
      // EOF without a footer: the file was cut at a record boundary
      // (crash, disk-full after a flush) — refuse to pass it off as
      // complete.
      throw codec_error("spill_reader: missing footer in " + path_ +
                        " — truncated spill? (complete files end with a "
                        "zero length, the record count and 'end')");
    }
    const std::uint64_t length = read_varint("record length");
    if (length == 0) {
      check_footer();
      return;
    }
    if (!ensure(length)) {
      throw codec_error("spill_reader: record " + std::to_string(records_) +
                        " of " + std::to_string(length) +
                        " bytes runs past the end of " + path_ +
                        " — truncated spill");
    }
    try {
      decode_body(bytes_view{buf_}.subspan(pos_, length), next_);
    } catch (const codec_error& e) {
      throw codec_error("spill_reader: malformed record " +
                        std::to_string(records_) + " in " + path_ + ": " +
                        e.what());
    }
    pos_ += length;
    have_next_ = true;
  }

  void check_footer() {
    const std::uint64_t count = read_varint("footer");
    if (count != records_) {
      throw codec_error(
          "spill_reader: footer records " + std::to_string(count) +
          " != " + std::to_string(records_) + " records present in " +
          path_ + " — truncated spill");
    }
    if (!ensure(kFooterTail.size()) ||
        !std::equal(kFooterTail.begin(), kFooterTail.end(),
                    buf_.begin() + static_cast<std::ptrdiff_t>(pos_))) {
      throw codec_error("spill_reader: malformed footer in " + path_);
    }
    pos_ += kFooterTail.size();
    if (available() != 0) {
      throw codec_error("spill_reader: data after footer in " + path_);
    }
  }

  std::string path_;
  std::unique_ptr<std::FILE, file_closer> file_;
  bytes buf_;
  std::size_t pos_ = 0;     // next unread byte in buf_
  std::size_t end_ = 0;     // end of the bytes read into buf_
  std::size_t unread_ = 0;  // file bytes not yet read into buf_
  std::size_t variants_ = 0;
  std::size_t sampled_ = 0;
  std::size_t records_ = 0;
  parsed_record next_;
  bool have_next_ = false;
};

/// Resolves a decoded record against the model and plan and streams it.
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

/// Writes all of `data` or reports the sink's I/O error.
void write_all(std::FILE* file, bytes_view data, const std::string& path) {
  if (std::fwrite(data.data(), 1, data.size(), file) != data.size()) {
    throw config_error("spill_sink: I/O error writing " + path);
  }
}

}  // namespace

spill_sink::spill_sink(std::string path) : path_(std::move(path)) {
  file_ = std::fopen(path_.c_str(), "wb");
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
  buffer_writer counts;
  quic::write_varint(counts, plan.variants.size());
  quic::write_varint(counts, sampled);
  write_all(file_, kMagic, path_);
  write_all(file_, counts.view(), path_);
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
  // The body is encoded behind kLengthRoom bytes of headroom; its
  // length varint then goes right in front of it, so the record leaves
  // in one fwrite without moving the body.
  bytes& out = encoded_.storage();
  out.assign(kLengthRoom, 0);
  encode_body(encoded_, rec);
  prefix_.storage().clear();
  quic::write_varint(prefix_, out.size() - kLengthRoom);
  const std::size_t start = kLengthRoom - prefix_.size();
  std::copy(prefix_.view().begin(), prefix_.view().end(),
            out.begin() + static_cast<std::ptrdiff_t>(start));
  write_all(file_, bytes_view{out}.subspan(start), path_);
  ++records_;
}

void spill_sink::on_end() {
  if (file_ == nullptr) {
    return;
  }
  // The footer is the integrity seal: replay refuses files without it
  // (or with a mismatching count), so a spill cut at a record boundary
  // — which decodes cleanly record by record — cannot silently replay
  // into wrong aggregates.
  buffer_writer footer;
  quic::write_varint(footer, 0);
  quic::write_varint(footer, records_);
  footer.raw(kFooterTail);
  const bool write_error =
      std::fwrite(footer.view().data(), 1, footer.size(), file_) !=
          footer.size() ||
      std::ferror(file_) != 0;
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
      // Count the peeked record before advancing: advance() decodes
      // ahead and throws at the tear, which would otherwise drop the
      // last cleanly decoded record from the salvage count.
      out.records = cur.records_read() + 1;
      cur.advance();
    }
    out.state = spill_state::complete;
  } catch (const config_error&) {
    // The cursor throws config_error only for an unopenable file.
    out.state = spill_state::missing;
  } catch (const codec_error&) {
    // Bad magic (a v3 text spill included), a cut inside a record, a
    // footerless tail, a footer mismatch: all present as `truncated` —
    // a crashed writer is indistinguishable from corruption, and both
    // mean "discard and re-run the slice". Set explicitly: the cursor
    // constructor itself throws when the tear falls inside the first
    // record (or the header).
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
    // Bounded before the sum so that a lying header cannot wrap it.
    if (cur.sampled() > model_.records().size()) {
      throw config_error("spill_reader: " + path + " claims " +
                         std::to_string(cur.sampled()) +
                         " sampled services, the model holds " +
                         std::to_string(model_.records().size()));
    }
    total_sampled += cur.sampled();
  }
  // Sinks reserve for the sample on_begin announces. The shards are
  // disjoint slices of one sample, so their headers together must not
  // claim more services than the model could have sampled.
  if (total_sampled > model_.records().size()) {
    throw config_error("spill_reader: shard headers claim " +
                       std::to_string(total_sampled) +
                       " sampled services in total, the model holds " +
                       std::to_string(model_.records().size()));
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

#include "service/epoch_store.hpp"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "engine/spill.hpp"
#include "util/errors.hpp"

namespace certquic::service {
namespace {

constexpr const char* kMagic = "certquic-epochs";
constexpr const char* kVersion = "v1";

std::string epoch_dir_name(std::uint64_t epoch) {
  char name[32];
  std::snprintf(name, sizeof name, "epoch_%04llu",
                static_cast<unsigned long long>(epoch));
  return name;
}

void check_field(const char* field, std::uint64_t manifest_value,
                 std::uint64_t requested, const std::string& path) {
  if (manifest_value != requested) {
    throw config_error(
        "epoch_store: " + path + " was created with " + field + " " +
        std::to_string(manifest_value) + ", reopened with " +
        std::to_string(requested) +
        " — one store holds one run configuration; use a fresh directory");
  }
}

}  // namespace

epoch_store::epoch_store(store_config cfg) : cfg_(std::move(cfg)) {
  if (cfg_.root.empty()) {
    throw config_error("epoch_store: store root directory must be set");
  }
  std::error_code ec;
  std::filesystem::create_directories(cfg_.root, ec);
  if (ec) {
    throw config_error("epoch_store: cannot create " + cfg_.root + ": " +
                       ec.message());
  }
  manifest_ = (std::filesystem::path(cfg_.root) / "MANIFEST").string();
  if (std::filesystem::exists(manifest_)) {
    load();
  } else {
    write_header();
  }
}

void epoch_store::write_header() {
  std::FILE* f = std::fopen(manifest_.c_str(), "w");
  if (f == nullptr) {
    throw config_error("epoch_store: cannot write " + manifest_);
  }
  std::fprintf(f, "%s %s seed %" PRIu64 " domains %zu sample %zu shards "
               "%zu initial %zu\n",
               kMagic, kVersion, cfg_.seed, cfg_.domains, cfg_.sample,
               cfg_.shards, cfg_.initial_size);
  const bool failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || failed) {
    throw config_error("epoch_store: I/O error writing " + manifest_);
  }
}

void epoch_store::load() {
  std::ifstream in{manifest_};
  if (!in) {
    throw config_error("epoch_store: cannot read " + manifest_);
  }
  std::string header;
  if (!std::getline(in, header)) {
    throw codec_error("epoch_store: empty manifest " + manifest_);
  }
  {
    std::istringstream fields{header};
    std::string magic;
    std::string version;
    std::string kw_seed;
    std::string kw_domains;
    std::string kw_sample;
    std::string kw_shards;
    std::string kw_initial;
    std::uint64_t seed = 0;
    std::size_t domains = 0;
    std::size_t sample = 0;
    std::size_t shards = 0;
    std::size_t initial = 0;
    fields >> magic >> version >> kw_seed >> seed >> kw_domains >>
        domains >> kw_sample >> sample >> kw_shards >> shards >>
        kw_initial >> initial;
    if (!fields || magic != kMagic || version != kVersion ||
        kw_seed != "seed" || kw_domains != "domains" ||
        kw_sample != "sample" || kw_shards != "shards" ||
        kw_initial != "initial") {
      throw codec_error("epoch_store: not a " + std::string(kVersion) +
                        " epoch manifest: " + manifest_);
    }
    check_field("seed", seed, cfg_.seed, manifest_);
    check_field("domains", domains, cfg_.domains, manifest_);
    check_field("sample", sample, cfg_.sample, manifest_);
    check_field("shards", shards, cfg_.shards, manifest_);
    check_field("initial", initial, cfg_.initial_size, manifest_);
  }

  std::string line;
  while (std::getline(in, line)) {
    if (in.eof()) {
      // The final line lacks a trailing '\n': a kill mid-append. Even
      // if its prefix happens to parse (a cut digit or digest is still
      // valid syntax), the checkpoint is untrustworthy — drop it. The
      // spill footers re-derive it (and resume re-seals the epoch).
      break;
    }
    if (line.empty()) {
      continue;
    }
    std::istringstream fields{line};
    std::string tag;
    fields >> tag;
    bool parsed = false;
    if (tag == "shard") {
      std::uint64_t epoch = 0;
      std::size_t shard = 0;
      std::size_t records = 0;
      fields >> epoch >> shard >> records;
      if (fields) {
        shards_[{epoch, shard}] = records;
        parsed = true;
      }
    } else if (tag == "epoch") {
      std::uint64_t epoch = 0;
      std::string kw_done;
      std::size_t records = 0;
      std::string digest_hex;
      fields >> epoch >> kw_done >> records >> digest_hex;
      std::uint64_t digest = 0;
      if (fields && kw_done == "done" &&
          std::sscanf(digest_hex.c_str(), "%" SCNx64, &digest) == 1) {
        done_[epoch] = epoch_checkpoint{records, digest};
        parsed = true;
      }
    }
    if (!parsed) {
      throw codec_error("epoch_store: malformed manifest line in " +
                        manifest_ + ": " + line);
    }
  }
}

std::string epoch_store::epoch_dir(std::uint64_t epoch) const {
  return (std::filesystem::path(cfg_.root) / epoch_dir_name(epoch))
      .string();
}

std::string epoch_store::shard_path(std::uint64_t epoch,
                                    std::size_t shard) const {
  return (std::filesystem::path(cfg_.root) / epoch_dir_name(epoch) /
          engine::shard_layout::file_name(shard))
      .string();
}

void epoch_store::ensure_epoch_dir(std::uint64_t epoch) const {
  std::error_code ec;
  std::filesystem::create_directories(epoch_dir(epoch), ec);
  if (ec) {
    throw config_error("epoch_store: cannot create " + epoch_dir(epoch) +
                       ": " + ec.message());
  }
}

void epoch_store::append_line(const std::string& line) {
  std::FILE* f = std::fopen(manifest_.c_str(), "a");
  if (f == nullptr) {
    throw config_error("epoch_store: cannot append to " + manifest_);
  }
  std::fputs(line.c_str(), f);
  std::fputc('\n', f);
  const bool failed = std::fflush(f) != 0 || std::ferror(f) != 0;
  if (std::fclose(f) != 0 || failed) {
    throw config_error("epoch_store: I/O error appending to " + manifest_);
  }
}

void epoch_store::note_shard(std::uint64_t epoch, std::size_t shard,
                             std::size_t records) {
  append_line("shard " + std::to_string(epoch) + " " +
              std::to_string(shard) + " " + std::to_string(records));
  shards_[{epoch, shard}] = records;
}

void epoch_store::note_epoch_done(std::uint64_t epoch, std::size_t records,
                                  std::uint64_t digest) {
  char hex[24];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, digest);
  append_line("epoch " + std::to_string(epoch) + " done " +
              std::to_string(records) + " " + hex);
  done_[epoch] = epoch_checkpoint{records, digest};
}

std::optional<std::size_t> epoch_store::shard_records(
    std::uint64_t epoch, std::size_t shard) const {
  const auto it = shards_.find({epoch, shard});
  if (it == shards_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<epoch_checkpoint> epoch_store::epoch_done(
    std::uint64_t epoch) const {
  const auto it = done_.find(epoch);
  if (it == done_.end()) {
    return std::nullopt;
  }
  return it->second;
}

}  // namespace certquic::service

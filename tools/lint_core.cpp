#include "lint_core.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>

#include "analyze_core.hpp"
#include "util/errors.hpp"

namespace certquic::lint {
namespace {

constexpr const char* kInlineWaiverTag = "certquic-lint: allow ";

/// Files allowed to construct rng directly: the generator itself.
bool rng_allowlisted(const std::string& relative_path) {
  return relative_path == "util/rng.hpp" || relative_path == "util/rng.cpp";
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// unordered-iter applies where aggregates are built.
bool in_aggregator_paths(const std::string& relative_path) {
  return starts_with(relative_path, "engine/") ||
         starts_with(relative_path, "core/") ||
         starts_with(relative_path, "service/");
}

/// atomic-plain applies where executor code lives: plain (memberless)
/// use of a std::atomic hides the intended ordering (implicit seq_cst
/// reads as "unconsidered"), as in `if (failed)` on the executor's
/// failure flag where `failed.load()` would state the order.
bool in_executor_paths(const std::string& relative_path) {
  return starts_with(relative_path, "engine/");
}

/// float-accum applies to golden-feeding paths.
bool in_golden_paths(const std::string& relative_path) {
  return starts_with(relative_path, "engine/") ||
         starts_with(relative_path, "core/") ||
         starts_with(relative_path, "service/") ||
         starts_with(relative_path, "stats/");
}

/// Rules waived by an inline "// certquic-lint: allow <rule> — reason"
/// comment on this raw line. Raw, not scrubbed: the allowance lives in
/// a comment, which the token scanner blanks.
std::set<std::string> inline_allowances(const std::string& raw_line) {
  std::set<std::string> out;
  std::size_t pos = 0;
  while ((pos = raw_line.find(kInlineWaiverTag, pos)) != std::string::npos) {
    pos += std::string(kInlineWaiverTag).size();
    std::size_t end = pos;
    while (end < raw_line.size() &&
           (std::isalnum(static_cast<unsigned char>(raw_line[end])) != 0 ||
            raw_line[end] == '-')) {
      ++end;
    }
    out.insert(raw_line.substr(pos, end - pos));
    pos = end;
  }
  return out;
}

/// The scrubbed code view flattened to one line, for declaration
/// regexes that must see across wrapped lines. Comments and literal
/// bodies are already spaces here, so `double` in a doc comment never
/// registers a declaration.
std::string flatten_code(const analyze::scanned_file& scan) {
  std::string out;
  for (const std::string& line : scan.code_lines) {
    out += line;
    out += ' ';
  }
  return out;
}

/// Identifiers declared as std::unordered_{map,set} in this unit.
std::set<std::string> unordered_decls(const std::string& flat) {
  static const std::regex decl{
      R"(unordered_(?:map|set)\s*<[^;]*>\s*([A-Za-z_]\w*)\s*[;={(])"};
  std::set<std::string> names;
  for (std::sregex_iterator it{flat.begin(), flat.end(), decl}, end;
       it != end; ++it) {
    names.insert((*it)[1].str());
  }
  return names;
}

/// Identifiers declared float/double (including vector<double>
/// elements via the `double> name` shape) in this unit.
std::set<std::string> float_decls(const std::string& flat) {
  static const std::regex decl{
      R"((?:\bdouble\b|\bfloat\b)\s*>*\s+([A-Za-z_]\w*)\s*(?:[;={,)]|\[))"};
  std::set<std::string> names;
  for (std::sregex_iterator it{flat.begin(), flat.end(), decl}, end;
       it != end; ++it) {
    names.insert((*it)[1].str());
  }
  return names;
}

/// Identifiers declared std::atomic<...> in this unit.
std::set<std::string> atomic_decls(const std::string& flat) {
  static const std::regex decl{
      R"(std\s*::\s*atomic\s*<[^;]*?>\s*([A-Za-z_]\w*)\s*[;={(])"};
  std::set<std::string> names;
  for (std::sregex_iterator it{flat.begin(), flat.end(), decl}, end;
       it != end; ++it) {
    names.insert((*it)[1].str());
  }
  return names;
}

struct nondet_pattern {
  std::regex re;
  const char* what;
};

const std::vector<nondet_pattern>& nondet_patterns() {
  // Boundary class before bare time(/clock( excludes identifier chars,
  // '.', and '>' so member calls on simulated-time structs
  // (obs.complete_time, clock-> ...) don't hit; ':' stays IN bounds so
  // std::time( / ::time( are caught.
  static const std::vector<nondet_pattern> patterns = [] {
    std::vector<nondet_pattern> p;
    p.push_back({std::regex{R"(\bstd\s*::\s*rand\b)"}, "std::rand"});
    p.push_back({std::regex{R"(\bsrand\s*\()"}, "srand()"});
    p.push_back({std::regex{R"(\brandom_device\b)"}, "std::random_device"});
    p.push_back({std::regex{R"(\bsystem_clock\b)"}, "chrono::system_clock"});
    p.push_back({std::regex{R"(\bsteady_clock\b)"}, "chrono::steady_clock"});
    p.push_back({std::regex{R"(\bhigh_resolution_clock\b)"},
                 "chrono::high_resolution_clock"});
    p.push_back({std::regex{R"((?:^|[^A-Za-z0-9_.>])time\s*\()"}, "time()"});
    p.push_back(
        {std::regex{R"((?:^|[^A-Za-z0-9_.>])clock\s*\()"}, "clock()"});
    p.push_back({std::regex{R"(\bclock_gettime\b)"}, "clock_gettime()"});
    p.push_back({std::regex{R"(\bgettimeofday\b)"}, "gettimeofday()"});
    return p;
  }();
  return patterns;
}

const std::vector<std::regex>& raw_rng_patterns() {
  static const std::vector<std::regex> patterns = {
      // rng name{...} / rng{...} temporaries.
      std::regex{R"(\brng\s+[A-Za-z_]\w*\s*\{)"},
      std::regex{R"(\brng\s*\{)"},
      // rng(...) invocation (not rng::rng definitions, not `rng name(`
      // function declarations returning rng).
      std::regex{R"((?:^|[^A-Za-z0-9_:])rng\s*\()"},
  };
  return patterns;
}

/// Which of the five rules to run over a unit.
struct rule_mask {
  bool nondet = true;
  bool unordered = false;
  bool float_accum = false;
  bool atomic = false;
  bool rng = false;
};

rule_mask mask_for(const std::string& relative_path) {
  rule_mask m;
  m.unordered = in_aggregator_paths(relative_path);
  m.float_accum = in_golden_paths(relative_path);
  m.atomic = in_executor_paths(relative_path);
  m.rng = !rng_allowlisted(relative_path);
  return m;
}

/// Matches all enabled rules against the scanned file. Every regex
/// runs on the BLANKED code line (scan.code_lines), so commented-out
/// and quoted text can't match; findings carry the RAW line, which is
/// what waiver substrings and humans read.
void lint_scanned(const std::string& relative_path,
                  const analyze::scanned_file& scan, const rule_mask& mask,
                  const std::set<std::string>& unordered_names,
                  const std::set<std::string>& float_names,
                  const std::set<std::string>& atomic_names,
                  std::vector<finding>& out) {
  // Per-name iteration/accumulation regexes, built once per file.
  std::vector<std::pair<std::string, std::regex>> iter_res;
  if (mask.unordered) {
    for (const std::string& name : unordered_names) {
      iter_res.emplace_back(
          name, std::regex{R"((?::\s*[\w.>-]*\b)" + name + R"(\b\s*\)|\b)" +
                           name + R"(\s*\.\s*c?begin\s*\())"});
    }
  }
  std::vector<std::pair<std::string, std::regex>> accum_res;
  if (mask.float_accum) {
    for (const std::string& name : float_names) {
      accum_res.emplace_back(
          name, std::regex{R"(\b)" + name +
                           R"(\s*(?:\[[^\]]*\])?\s*[+-]=)"});
    }
  }
  // Plain (memberless) atomic use: the name with no `.load(...)` /
  // `.store(...)` / other member call after it and no member/scope
  // qualifier before it. Declaration lines (contain `atomic<`) are
  // exempt.
  std::vector<std::pair<std::string, std::regex>> atomic_res;
  static const std::regex atomic_decl_line{R"(atomic\s*<)"};
  if (mask.atomic) {
    for (const std::string& name : atomic_names) {
      atomic_res.emplace_back(
          name, std::regex{R"((?:^|[^A-Za-z0-9_.>:]))" + name +
                           R"((?![\w]|\s*\.))"});
    }
  }

  std::set<std::string> prev_allow;
  for (std::size_t n = 0; n < scan.raw_lines.size(); ++n) {
    const std::size_t line_no = n + 1;
    const std::string& raw = scan.raw_lines[n];
    const std::string& line = scan.code_lines[n];
    const std::set<std::string> allow = inline_allowances(raw);
    const auto waived = [&](const char* rule) {
      return allow.count(rule) != 0 || prev_allow.count(rule) != 0;
    };

    if (mask.nondet && !waived("nondet-source")) {
      for (const nondet_pattern& p : nondet_patterns()) {
        if (std::regex_search(line, p.re)) {
          out.push_back({relative_path, line_no, "nondet-source",
                         std::string(p.what) +
                             " is nondeterministic: probe paths must use "
                             "simulated time and seeded util::rng only",
                         raw});
          break;
        }
      }
    }
    if (mask.unordered && !waived("unordered-iter")) {
      for (const auto& [name, re] : iter_res) {
        if (std::regex_search(line, re)) {
          out.push_back({relative_path, line_no, "unordered-iter",
                         "iteration over unordered container '" + name +
                             "' — hash order must not feed aggregates; "
                             "iterate a sorted or plan-ordered view",
                         raw});
          break;
        }
      }
    }
    if (mask.float_accum && !waived("float-accum")) {
      for (const auto& [name, re] : accum_res) {
        if (std::regex_search(line, re)) {
          out.push_back({relative_path, line_no, "float-accum",
                         "floating-point accumulation into '" + name +
                             "' in a golden-feeding path — waive with the "
                             "reason the order is deterministic",
                         raw});
          break;
        }
      }
    }
    if (mask.atomic && !waived("atomic-plain") &&
        !std::regex_search(line, atomic_decl_line)) {
      for (const auto& [name, re] : atomic_res) {
        if (std::regex_search(line, re)) {
          out.push_back({relative_path, line_no, "atomic-plain",
                         "plain use of std::atomic '" + name +
                             "' — implicit seq_cst hides the intended "
                             "ordering; use an explicit .load/.store/"
                             ".fetch_add with the memory order the "
                             "protocol requires",
                         raw});
          break;
        }
      }
    }
    if (mask.rng && !waived("raw-rng")) {
      for (const std::regex& re : raw_rng_patterns()) {
        if (std::regex_search(line, re)) {
          out.push_back({relative_path, line_no, "raw-rng",
                         "direct rng construction bypasses the per-probe "
                         "hash(base_seed, domain, salt) discipline — derive "
                         "seeds via engine::probe_seed or waive with the "
                         "seeding scheme",
                         raw});
          break;
        }
      }
    }
    prev_allow = allow;
  }
}

/// Unit key: companion .hpp/.cpp files share declaration context (a
/// member declared double in cdf.hpp is accumulation-checked in
/// cdf.cpp).
std::string unit_key(const std::string& relative_path) {
  const std::filesystem::path p{relative_path};
  return (p.parent_path() / p.stem()).generic_string();
}

}  // namespace

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    throw config_error("certquic_analyze: cannot read " + path);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string relativize(const std::string& file, const std::string& root) {
  return std::filesystem::relative(file, root).generic_string();
}

const std::set<std::string>& lint_rules() {
  static const std::set<std::string> rules = {
      "nondet-source", "unordered-iter", "float-accum",
      "raw-rng",       "atomic-plain",
  };
  return rules;
}

const std::set<std::string>& all_rules() {
  static const std::set<std::string> rules = [] {
    std::set<std::string> r = lint_rules();
    r.insert("layer-upward");
    r.insert("layer-cycle");
    r.insert("layer-drift");
    r.insert("pragma-once");
    r.insert("self-contained");
    r.insert("unused-include");
    r.insert("unused-export");
    return r;
  }();
  return rules;
}

bool known_rule(const std::string& rule) {
  return all_rules().count(rule) != 0;
}

std::vector<waiver> load_waivers(const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    throw config_error("lint: cannot read waiver file " + path);
  }
  std::vector<waiver> out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::vector<std::string> fields;
    std::size_t start = 0;
    for (std::size_t pos = 0; pos <= line.size(); ++pos) {
      if (pos == line.size() || line[pos] == '|') {
        fields.push_back(line.substr(start, pos - start));
        start = pos + 1;
      }
    }
    if (fields.size() != 4) {
      throw config_error("lint: waiver line " +
                         std::to_string(line_no) +
                         " needs rule|path|substring|reason: " + line);
    }
    waiver w{fields[0], fields[1], fields[2], fields[3], line_no};
    if (!known_rule(w.rule)) {
      throw config_error("lint: waiver line " +
                         std::to_string(line_no) + " names unknown rule '" +
                         w.rule + "'");
    }
    if (w.substring.empty() || w.reason.empty()) {
      throw config_error("lint: waiver line " +
                         std::to_string(line_no) +
                         " needs a non-empty substring and reason");
    }
    out.push_back(std::move(w));
  }
  return out;
}

std::vector<finding> lint_nondet_only(const std::string& relative_path,
                                      const std::string& content) {
  const analyze::scanned_file scan = analyze::scan_source(content);
  rule_mask mask;  // nondet only
  mask.unordered = mask.float_accum = mask.atomic = mask.rng = false;
  std::vector<finding> out;
  lint_scanned(relative_path, scan, mask, {}, {}, {}, out);
  return out;
}

std::vector<finding> lint_sources(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  // Pass 1: scan everything and merge declaration context per unit.
  struct scanned_source {
    std::string relative;
    analyze::scanned_file scan;
  };
  std::vector<scanned_source> scans;
  scans.reserve(sources.size());
  std::map<std::string, std::set<std::string>> unit_unordered;
  std::map<std::string, std::set<std::string>> unit_float;
  std::map<std::string, std::set<std::string>> unit_atomic;
  for (const auto& [relative, content] : sources) {
    scanned_source src{relative, analyze::scan_source(content)};
    const std::string flat = flatten_code(src.scan);
    const std::string key = unit_key(relative);
    for (const std::string& name : unordered_decls(flat)) {
      unit_unordered[key].insert(name);
    }
    for (const std::string& name : float_decls(flat)) {
      unit_float[key].insert(name);
    }
    for (const std::string& name : atomic_decls(flat)) {
      unit_atomic[key].insert(name);
    }
    scans.push_back(std::move(src));
  }

  // Pass 2: lint each file against its unit's declarations.
  std::vector<finding> all;
  for (const scanned_source& src : scans) {
    const std::string key = unit_key(src.relative);
    lint_scanned(src.relative, src.scan, mask_for(src.relative),
                 unit_unordered[key], unit_float[key], unit_atomic[key], all);
  }
  std::sort(all.begin(), all.end(), [](const finding& a, const finding& b) {
    return std::tie(a.path, a.line, a.rule) < std::tie(b.path, b.line, b.rule);
  });
  return all;
}

report apply_waivers(std::vector<finding> findings,
                     const std::vector<waiver>& waivers,
                     const std::set<std::string>& rules_in_scope) {
  report rep;
  std::vector<bool> used(waivers.size(), false);
  std::vector<bool> in_scope(waivers.size(), false);
  for (std::size_t w = 0; w < waivers.size(); ++w) {
    in_scope[w] = rules_in_scope.count(waivers[w].rule) != 0;
  }
  for (finding& f : findings) {
    bool waived = false;
    for (std::size_t w = 0; w < waivers.size(); ++w) {
      if (in_scope[w] && waivers[w].rule == f.rule &&
          waivers[w].path == f.path &&
          (waivers[w].substring == "*" ||
           f.source_line.find(waivers[w].substring) != std::string::npos)) {
        used[w] = true;
        waived = true;
        break;
      }
    }
    if (!waived) {
      rep.findings.push_back(std::move(f));
    }
  }
  for (std::size_t w = 0; w < waivers.size(); ++w) {
    if (in_scope[w] && !used[w]) {
      rep.unused_waivers.push_back(waivers[w]);
    }
  }
  return rep;
}

report lint_files(const std::vector<std::string>& files,
                  const std::string& root,
                  const std::vector<waiver>& waivers) {
  std::vector<std::pair<std::string, std::string>> sources;
  sources.reserve(files.size());
  for (const std::string& file : files) {
    sources.emplace_back(relativize(file, root), read_file(file));
  }
  return apply_waivers(lint_sources(sources), waivers, lint_rules());
}

std::vector<std::string> collect_sources(const std::string& root) {
  std::vector<std::string> out;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const std::string ext = entry.path().extension().string();
    if (ext == ".hpp" || ext == ".cpp") {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace certquic::lint

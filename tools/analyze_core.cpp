#include "analyze_core.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <regex>
#include <sstream>

#include "util/errors.hpp"

namespace certquic::analyze {
namespace {

// ---------------------------------------------------------------- scanner

bool ident_char(char c) {
  return (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '_';
}

/// True when the quote at `pos` opens a raw string literal: the quote
/// is preceded by an R (optionally with a u8/u/U/L encoding prefix)
/// that is not the tail of a longer identifier.
bool raw_string_prefix(const std::string& text, std::size_t pos) {
  if (pos == 0 || text[pos - 1] != 'R') {
    return false;
  }
  std::size_t start = pos - 1;  // index of the 'R'
  if (start >= 2 && text[start - 2] == 'u' && text[start - 1] == '8') {
    start -= 2;
  } else if (start >= 1 && (text[start - 1] == 'u' ||
                            text[start - 1] == 'U' ||
                            text[start - 1] == 'L')) {
    start -= 1;
  }
  return start == 0 || !ident_char(text[start - 1]);
}

}  // namespace

scanned_file scan_source(const std::string& content) {
  std::string scrubbed;
  scrubbed.reserve(content.size());

  enum class state {
    code,
    line_comment,
    block_comment,
    string_lit,
    char_lit,
    raw_string,
  };
  state st = state::code;
  std::string raw_delim;  // the )delim" terminator of the raw string
  char prev_code = '\0';  // last significant code character emitted

  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    switch (st) {
      case state::code:
        if (c == '/' && next == '/') {
          st = state::line_comment;
          scrubbed += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          st = state::block_comment;
          scrubbed += "  ";
          ++i;
        } else if (c == '"') {
          if (raw_string_prefix(content, i)) {
            // R"delim( ... )delim" — collect the delimiter, blank
            // everything through the opening parenthesis.
            std::size_t paren = i + 1;
            while (paren < content.size() && content[paren] != '(') {
              ++paren;
            }
            raw_delim = ")" + content.substr(i + 1, paren - i - 1) + "\"";
            st = state::raw_string;
            scrubbed += '"';
            for (std::size_t k = i + 1;
                 k <= paren && k < content.size(); ++k) {
              scrubbed += content[k] == '\n' ? '\n' : ' ';
            }
            i = std::min(paren, content.size() - 1);
          } else {
            st = state::string_lit;
            scrubbed += '"';
          }
        } else if (c == '\'') {
          // A quote directly after an identifier character is a digit
          // separator (0x90C5'0D5A), not a character literal.
          if (ident_char(prev_code)) {
            scrubbed += ' ';
          } else {
            st = state::char_lit;
            scrubbed += '\'';
          }
        } else {
          scrubbed += c;
          if (std::isspace(static_cast<unsigned char>(c)) == 0) {
            prev_code = c;
          }
        }
        break;
      case state::line_comment:
        if (c == '\n') {
          st = state::code;
          scrubbed += '\n';
        } else {
          scrubbed += ' ';
        }
        break;
      case state::block_comment:
        if (c == '*' && next == '/') {
          st = state::code;
          scrubbed += "  ";
          ++i;
        } else {
          scrubbed += c == '\n' ? '\n' : ' ';
        }
        break;
      case state::string_lit:
        if (c == '\\' && next != '\0') {
          scrubbed += c == '\n' ? '\n' : ' ';
          scrubbed += next == '\n' ? '\n' : ' ';
          ++i;
        } else if (c == '"') {
          st = state::code;
          scrubbed += '"';
          prev_code = '"';
        } else {
          scrubbed += c == '\n' ? '\n' : ' ';
        }
        break;
      case state::char_lit:
        if (c == '\\' && next != '\0') {
          scrubbed += "  ";
          ++i;
        } else if (c == '\'') {
          st = state::code;
          scrubbed += '\'';
          prev_code = '\'';
        } else {
          scrubbed += c == '\n' ? '\n' : ' ';
        }
        break;
      case state::raw_string:
        if (content.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t k = 1; k < raw_delim.size(); ++k) {
            scrubbed += ' ';
          }
          scrubbed += '"';
          i += raw_delim.size() - 1;
          st = state::code;
          prev_code = '"';
        } else {
          scrubbed += c == '\n' ? '\n' : ' ';
        }
        break;
    }
  }

  const auto split = [](const std::string& text) {
    std::vector<std::string> lines;
    std::string line;
    std::istringstream in{text};
    while (std::getline(in, line)) {
      lines.push_back(line);
    }
    return lines;
  };
  scanned_file out;
  out.raw_lines = split(content);
  out.code_lines = split(scrubbed);
  // The blanked text replaces characters 1:1 with newlines kept, so
  // the views line up; resize defends the structure anyway.
  out.code_lines.resize(out.raw_lines.size());

  // Preprocessor directives, detected on the blanked view so a
  // commented-out `#include` never counts. Include targets are read
  // from the raw line (the scanner blanks quoted paths like any other
  // string literal).
  static const std::regex include_re{
      R"(^\s*#\s*include\s*([<"])([^>"]+)[>"])"};
  static const std::regex pragma_once_re{R"(^\s*#\s*pragma\s+once\b)"};
  static const std::regex include_head_re{R"(^\s*#\s*include\b)"};
  for (std::size_t n = 0; n < out.code_lines.size(); ++n) {
    const std::string& code = out.code_lines[n];
    if (std::regex_search(code, pragma_once_re)) {
      out.has_pragma_once = true;
      continue;
    }
    if (!std::regex_search(code, include_head_re)) {
      continue;
    }
    std::smatch m;
    if (std::regex_search(out.raw_lines[n], m, include_re)) {
      out.includes.push_back({n + 1, m[2].str(), m[1].str() == "<"});
    }
  }
  return out;
}

// ------------------------------------------------------------- layer spec

layer_spec load_layer_spec(const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    throw config_error("certquic_analyze: cannot read layer spec " + path);
  }
  layer_spec spec;
  spec.source_path = path;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    std::istringstream fields{line};
    std::vector<std::string> layer;
    std::string module;
    while (fields >> module) {
      if (spec.layer_of.count(module) != 0) {
        throw config_error("certquic_analyze: layer spec line " +
                           std::to_string(line_no) + " names module '" +
                           module + "' twice");
      }
      spec.layer_of[module] = spec.layers.size();
      spec.spec_line_of[module] = line_no;
      layer.push_back(module);
    }
    if (!layer.empty()) {
      spec.layers.push_back(std::move(layer));
    }
  }
  if (spec.layers.empty()) {
    throw config_error("certquic_analyze: layer spec " + path +
                       " declares no layers");
  }
  return spec;
}

// -------------------------------------------------------------- analysis

namespace {

struct loaded_file {
  std::string relative;  // root-relative, forward slashes
  scanned_file scan;
};

std::string module_of(const std::string& relative) {
  const std::size_t slash = relative.find('/');
  return slash == std::string::npos ? std::string{}
                                    : relative.substr(0, slash);
}

/// Resolves a quoted include target to a root-relative path: the
/// root-relative form first ("engine/spill.hpp"), then the includer's
/// own directory ("spill.hpp" from engine/). Empty when the target
/// names no scanned file.
std::string resolve_include(const std::string& target,
                            const std::string& includer,
                            const std::set<std::string>& known) {
  if (known.count(target) != 0) {
    return target;
  }
  const std::size_t slash = includer.rfind('/');
  if (slash != std::string::npos) {
    const std::string sibling = includer.substr(0, slash + 1) + target;
    if (known.count(sibling) != 0) {
      return sibling;
    }
  }
  return {};
}

const std::set<std::string>& cpp_keywords() {
  static const std::set<std::string> kw = {
      "alignas",    "alignof",     "asm",       "auto",
      "bool",       "break",       "case",      "catch",
      "char",       "class",       "co_await",  "co_return",
      "co_yield",   "concept",     "const",     "const_cast",
      "consteval",  "constexpr",   "constinit", "continue",
      "decltype",   "default",     "delete",    "do",
      "double",     "dynamic_cast", "else",     "enum",
      "explicit",   "export",      "extern",    "false",
      "final",      "float",       "for",       "friend",
      "goto",       "if",          "inline",    "int",
      "long",       "mutable",     "namespace", "new",
      "noexcept",   "nullptr",     "operator",  "override",
      "private",    "protected",   "public",    "register",
      "reinterpret_cast", "requires", "return", "short",
      "signed",     "sizeof",      "static",    "static_assert",
      "static_cast", "struct",     "switch",    "template",
      "this",       "throw",       "true",      "try",
      "typedef",    "typeid",      "typename",  "union",
      "unsigned",   "using",       "virtual",   "void",
      "volatile",   "while",
  };
  return kw;
}

/// Identifiers a header "provides", for the unused-include check.
/// Deliberately generous — everything that declares, defines, or even
/// just names something callable or assignable counts, plus the
/// header's stem — so a live include is essentially never flagged.
/// Conservative by construction; the rare leftover is waivable.
std::set<std::string> provided_symbols(const std::string& relative,
                                       const scanned_file& scan) {
  std::string flat;
  for (const std::string& line : scan.code_lines) {
    flat += line;
    flat += ' ';
  }
  std::set<std::string> out;
  static const std::vector<std::regex> decl_res = {
      std::regex{R"((?:class|struct|union)\s+([A-Za-z_]\w*))"},
      std::regex{R"(enum\s+(?:class\s+|struct\s+)?([A-Za-z_]\w*))"},
      std::regex{R"(using\s+([A-Za-z_]\w*)\s*=)"},
      std::regex{R"(typedef[^;]*?\b([A-Za-z_]\w*)\s*;)"},
      std::regex{R"(#\s*define\s+([A-Za-z_]\w*))"},
      std::regex{R"(\b([A-Za-z_]\w*)\s*\()"},
      std::regex{R"(\b([A-Za-z_]\w*)\s*[={])"},
  };
  for (const std::regex& re : decl_res) {
    for (std::sregex_iterator it{flat.begin(), flat.end(), re}, end;
         it != end; ++it) {
      const std::string name = (*it)[1].str();
      if (cpp_keywords().count(name) == 0) {
        out.insert(name);
      }
    }
  }
  out.insert(std::filesystem::path{relative}.stem().string());
  return out;
}

/// Every identifier appearing in the unit's code view.
std::set<std::string> used_identifiers(const scanned_file& scan) {
  std::set<std::string> out;
  static const std::regex ident_re{R"([A-Za-z_]\w*)"};
  for (const std::string& line : scan.code_lines) {
    for (std::sregex_iterator it{line.begin(), line.end(), ident_re}, end;
         it != end; ++it) {
      out.insert(it->str());
    }
  }
  return out;
}

/// First-level directories under `root` that contain any source file —
/// the modules that exist on disk, independent of the file list.
std::set<std::string> modules_on_disk(const std::string& root) {
  std::set<std::string> out;
  for (const auto& dir : std::filesystem::directory_iterator(root)) {
    if (!dir.is_directory()) {
      continue;
    }
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(dir.path())) {
      if (!entry.is_regular_file()) {
        continue;
      }
      const std::string ext = entry.path().extension().string();
      if (ext == ".hpp" || ext == ".cpp") {
        out.insert(dir.path().filename().string());
        break;
      }
    }
  }
  return out;
}

void check_layering(const std::string& root, const layer_spec& spec,
                    const module_graph& graph,
                    std::vector<lint::finding>& out) {
  // Drift, both directions: the spec and the tree must name the same
  // module set. Spec-side findings anchor in the spec file itself;
  // tree-side findings anchor on the module directory.
  const std::set<std::string> on_disk = modules_on_disk(root);
  for (const auto& [module, line] : spec.spec_line_of) {
    if (on_disk.count(module) == 0) {
      out.push_back({spec.source_path, line, "layer-drift",
                     "layer spec names module '" + module +
                         "' but no such module exists under the scan root",
                     module});
    }
  }
  for (const std::string& module : on_disk) {
    if (spec.layer_of.count(module) == 0) {
      out.push_back({module, 0, "layer-drift",
                     "module '" + module +
                         "' exists under the scan root but the layer spec "
                         "does not place it in any layer — add it to the "
                         "spec (and the ARCHITECTURE.md layer map)",
                     ""});
    }
  }

  // Upward edges: an include of a module in a strictly higher layer.
  for (const auto& [edge, sites] : graph.edges) {
    const auto from = spec.layer_of.find(edge.first);
    const auto to = spec.layer_of.find(edge.second);
    if (from == spec.layer_of.end() || to == spec.layer_of.end()) {
      continue;  // drift already reported
    }
    if (from->second < to->second) {
      for (const module_graph::site& s : sites) {
        out.push_back({s.path, s.line, "layer-upward",
                       "module '" + edge.first + "' (layer " +
                           std::to_string(from->second) + ") includes '" +
                           edge.second + "' (layer " +
                           std::to_string(to->second) +
                           ") — lower layers never include upper ones",
                       s.raw});
      }
    }
  }

  // Cycles: DFS over the module graph; every distinct cycle is
  // reported once, anchored at the first include site of the edge
  // leaving its lexicographically smallest member.
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [edge, sites] : graph.edges) {
    adj[edge.first].push_back(edge.second);
  }
  std::set<std::vector<std::string>> seen_cycles;
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  const std::function<void(const std::string&)> dfs =
      [&](const std::string& node) {
        color[node] = 1;
        stack.push_back(node);
        for (const std::string& next : adj[node]) {
          if (color[next] == 1) {
            std::vector<std::string> cycle{
                std::find(stack.begin(), stack.end(), next), stack.end()};
            std::rotate(cycle.begin(),
                        std::min_element(cycle.begin(), cycle.end()),
                        cycle.end());
            if (!seen_cycles.insert(cycle).second) {
              continue;
            }
            std::string text;
            for (const std::string& m : cycle) {
              text += m + " -> ";
            }
            text += cycle.front();
            const std::string& succ =
                cycle.size() > 1 ? cycle[1] : cycle.front();
            module_graph::site anchor;
            const auto edge_sites =
                graph.edges.find({cycle.front(), succ});
            if (edge_sites != graph.edges.end() &&
                !edge_sites->second.empty()) {
              anchor = edge_sites->second.front();
            }
            out.push_back({anchor.path, anchor.line, "layer-cycle",
                           "module include cycle: " + text, anchor.raw});
          } else if (color[next] == 0) {
            dfs(next);
          }
        }
        stack.pop_back();
        color[node] = 2;
      };
  for (const std::string& module : graph.modules) {
    if (color[module] == 0) {
      dfs(module);
    }
  }
}

void check_hygiene(const std::vector<loaded_file>& files,
                   std::vector<lint::finding>& out) {
  std::map<std::string, const scanned_file*> by_path;
  std::set<std::string> known;
  for (const loaded_file& f : files) {
    by_path[f.relative] = &f.scan;
    known.insert(f.relative);
  }
  std::map<std::string, std::set<std::string>> symbols_cache;
  const auto symbols_of =
      [&](const std::string& rel) -> const std::set<std::string>& {
    auto it = symbols_cache.find(rel);
    if (it == symbols_cache.end()) {
      it = symbols_cache
               .emplace(rel, provided_symbols(rel, *by_path.at(rel)))
               .first;
    }
    return it->second;
  };

  for (const loaded_file& f : files) {
    const bool is_header =
        f.relative.size() > 4 &&
        f.relative.rfind(".hpp") == f.relative.size() - 4;
    const std::string self_header =
        is_header ? std::string{}
                  : f.relative.substr(0, f.relative.size() - 4) + ".hpp";

    // pragma-once: every header says so.
    if (is_header && !f.scan.has_pragma_once) {
      out.push_back({f.relative, 1, "pragma-once",
                     "header lacks #pragma once — every certquic header "
                     "carries it",
                     f.scan.raw_lines.empty() ? "" : f.scan.raw_lines[0]});
    }

    // self-contained: a companion .cpp includes its own header first,
    // which makes every header compile stand-alone at least once.
    if (!is_header && known.count(self_header) != 0 &&
        !f.scan.includes.empty()) {
      const include_directive& first = f.scan.includes.front();
      const std::string resolved =
          first.angled ? std::string{}
                       : resolve_include(first.target, f.relative, known);
      if (resolved != self_header) {
        out.push_back(
            {f.relative, first.line, "self-contained",
             "first include is not the unit's own header '" + self_header +
                 "' — including it first proves the header is "
                 "self-contained",
             f.scan.raw_lines[first.line - 1]});
      }
    }

    // unused-include: a direct project include none of whose declared
    // symbols appears in this unit.
    const std::set<std::string> used = used_identifiers(f.scan);
    for (const include_directive& inc : f.scan.includes) {
      if (inc.angled) {
        continue;
      }
      const std::string resolved =
          resolve_include(inc.target, f.relative, known);
      if (resolved.empty() || resolved == self_header ||
          resolved == f.relative) {
        continue;
      }
      const std::set<std::string>& provided = symbols_of(resolved);
      const bool live = std::any_of(
          provided.begin(), provided.end(),
          [&](const std::string& sym) { return used.count(sym) != 0; });
      if (!live) {
        out.push_back({f.relative, inc.line, "unused-include",
                       "no symbol declared by '" + resolved +
                           "' appears in this unit — drop the include or "
                           "waive it with the reason it must stay",
                       f.scan.raw_lines[inc.line - 1]});
      }
    }
  }
}

// ---------------------------------------------------------- unused-export

/// One token of a unit's blanked code view; preprocessor lines are
/// skipped, so `#define` bodies and include paths are never names.
struct token {
  std::string text;
  std::size_t line = 0;  // 1-based
};

bool is_ident(const std::string& text) {
  return !text.empty() && ident_char(text[0]) &&
         std::isdigit(static_cast<unsigned char>(text[0])) == 0 &&
         cpp_keywords().count(text) == 0;
}

std::vector<token> tokenize(const scanned_file& scan) {
  static const std::vector<std::string> multi = {
      "<<=", ">>=", "::", "->", "++", "--", "==", "!=", "<=", "+=",
      "-=",  "*=",  "/=", "%=", "&=", "|=", "^=", "&&", "||", "<<"};
  std::vector<token> out;
  bool continued = false;  // inside a directive continued with '\'
  for (std::size_t n = 0; n < scan.code_lines.size(); ++n) {
    const std::string& line = scan.code_lines[n];
    const std::size_t lead = line.find_first_not_of(" \t");
    const bool directive =
        continued || (lead != std::string::npos && line[lead] == '#');
    continued = directive && !line.empty() && line.back() == '\\';
    if (directive) {
      continue;
    }
    for (std::size_t i = 0; i < line.size();) {
      if (std::isspace(static_cast<unsigned char>(line[i])) != 0) {
        ++i;
        continue;
      }
      std::size_t len = 1;
      if (ident_char(line[i])) {  // identifiers and numbers
        while (i + len < line.size() && ident_char(line[i + len])) {
          ++len;
        }
      } else {
        for (const std::string& p : multi) {
          if (line.compare(i, p.size(), p) == 0) {
            len = p.size();
            break;
          }
        }
      }
      out.push_back({line.substr(i, len), n + 1});
      i += len;
    }
  }
  return out;
}

/// A name a src/<module>/*.hpp exports.
struct export_decl {
  std::string name;
  std::string kind;  // function, member function, field, variable,
                     // enumerator, type
  std::size_t unit = 0;
  std::size_t token = 0;
};

/// What the rule knows about one unit's tokens.
struct unit_facts {
  std::vector<token> tokens;
  /// The declared name of a namespace- or class-level statement, or a
  /// qualifier of it (`histogram` and `add` in `void histogram::add(`).
  std::vector<bool> def_site;
  /// Classes whose body, or whose out-of-line member definition,
  /// encloses the token: a type naming itself there is not a use.
  std::vector<std::vector<std::string>> owners;
};

/// Walks one unit's namespace, class, enum and body scopes, marking
/// definition sites and owners and, when `exports` is set, collecting
/// the public names the unit declares. It is a brace-and-statement
/// walk, not a parser: declarations it cannot read yield no name, so
/// the rule stays quiet about them.
class scope_walker {
 public:
  scope_walker(unit_facts& unit, std::size_t index, bool exports,
               std::vector<export_decl>& decls)
      : u_(unit), t_(unit.tokens), index_(index), decls_(decls) {
    u_.def_site.assign(t_.size(), false);
    u_.owners.assign(t_.size(), {});
    stack_.push_back({kind::ns, "", exports, true, false, 0, 0});
  }

  void run() {
    for (std::size_t i = 0; i < t_.size(); ++i) {
      const std::string& tok = t_[i].text;
      if (is_ident(tok)) {
        u_.owners[i] = owners_;
      }
      scope& top = stack_.back();
      if (top.k == kind::body) {
        if (tok == "{") {
          stack_.push_back({kind::body, "", false, true, false, 0, 0});
        } else if (tok == "}") {
          close(i);
        }
        continue;
      }
      if (tok == "(" || tok == "[" || (top.k == kind::enm && tok == "{")) {
        ++depth_;
        continue;
      }
      if (tok == ")" || tok == "]" || (depth_ > 0 && tok == "}")) {
        --depth_;
        continue;
      }
      if (depth_ > 0) {
        if (tok == "{") {  // a lambda in a default argument
          stack_.push_back({kind::body, "", false, true, false, 0, 0});
        }
        continue;
      }
      if (top.k == kind::enm) {
        if (tok == "}") {
          close(i);
        } else if (tok == ",") {
          expect_enumerator_ = true;
        } else if (expect_enumerator_ && is_ident(tok)) {
          expect_enumerator_ = false;
          u_.def_site[i] = true;
          if (top.exported) {
            decls_.push_back({tok, "enumerator", index_, i});
          }
        }
        continue;
      }
      if (top.k == kind::cls && i + 1 < t_.size() && t_[i + 1].text == ":" &&
          (tok == "public" || tok == "private" || tok == "protected")) {
        top.is_public = tok == "public";
        reset(i + 2);
        ++i;
      } else if (tok == ";") {
        if (!type_body_) {
          finish(begin_, i, false);
        }
        reset(i + 1);
      } else if (tok == "}") {
        close(i);
      } else if (tok == "{") {
        open(i);
      }
    }
  }

 private:
  enum class kind { ns, cls, enm, body };
  struct scope {
    kind k;
    std::string name;        // the class name of a cls scope
    bool exported;           // its public declarations are API
    bool is_public;          // current access (cls)
    bool ends_statement;     // a function body
    std::size_t resume = 0;  // the statement a class or enum body sits in
    std::size_t owners = 0;  // names this scope pushed onto owners_
  };

  void reset(std::size_t next) {
    begin_ = next;
    depth_ = 0;
    type_body_ = false;
  }

  void close(std::size_t i) {
    if (stack_.size() == 1) {
      return;  // unbalanced; stay at file scope
    }
    const scope s = stack_.back();
    stack_.pop_back();
    owners_.resize(owners_.size() - s.owners);
    if (s.k == kind::cls || s.k == kind::enm) {
      begin_ = s.resume;  // `struct x {...} var;` ends at the `;`
      depth_ = 0;
      type_body_ = true;
    } else if (s.k == kind::ns || s.ends_statement) {
      reset(i + 1);
    }
  }

  bool exporting() const {
    const scope& top = stack_.back();
    return top.exported && top.is_public;
  }

  /// Skips `template <...>` headers and `[[...]]` attributes.
  std::size_t skip_prefix(std::size_t b, std::size_t e) const {
    while (b < e) {
      if (t_[b].text == "template" && b + 1 < e && t_[b + 1].text == "<") {
        int angles = 0;
        int parens = 0;
        std::size_t j = b + 1;
        for (; j < e; ++j) {
          const std::string& x = t_[j].text;
          parens += (x == "(") - (x == ")");
          if (parens == 0) {
            angles += (x == "<") - (x == ">");
            if (angles == 0) {
              break;
            }
          }
        }
        b = j + 1;
      } else if (t_[b].text == "[" && b + 1 < e && t_[b + 1].text == "[") {
        std::size_t j = b;
        while (j < e && !(t_[j].text == "]" && j + 1 < e &&
                          t_[j + 1].text == "]")) {
          ++j;
        }
        b = j + 2;
      } else {
        break;
      }
    }
    return b;
  }

  /// The declared name of tokens [b, e): the identifier before the
  /// first top-level `(` for a function, else the last top-level
  /// identifier before the initializer. npos for operators, destructors
  /// and anything unreadable.
  struct head {
    std::size_t first = 0;
    std::size_t name = std::string::npos;
    bool function = false;
    bool init = false;  // a top-level `=` precedes any function paren
  };
  head read_head(std::size_t b, std::size_t e) const {
    static const std::set<std::string> group_keywords = {
        "decltype", "alignas", "noexcept", "sizeof", "alignof",
        "static_assert", "requires"};
    head h;
    h.first = skip_prefix(b, e);
    int depth = 0;
    int angles = 0;
    std::size_t last_ident = std::string::npos;
    for (std::size_t j = h.first; j < e; ++j) {
      const std::string& x = t_[j].text;
      if (x == "operator") {
        h.function = true;  // an operator has no name the rule tracks
        return h;
      }
      if (depth == 0 && angles == 0) {
        if (x == "(" && j > h.first && is_ident(t_[j - 1].text) &&
            group_keywords.count(t_[j - 1].text) == 0) {
          h.function = true;
          if (j < 2 || t_[j - 2].text != "~") {  // not a destructor
            h.name = j - 1;
          }
          return h;
        }
        if (x == "=" || x == "{" || x == "[" || x == ":" || x == "," ||
            x == ";") {
          h.init = x == "=";
          h.name = last_ident;
          return h;
        }
        if (is_ident(x)) {
          last_ident = j;
        }
      }
      if (x == "(" || x == "[" || x == "{") {
        ++depth;
      } else if (x == ")" || x == "]" || x == "}") {
        --depth;
      } else if (depth == 0 && x == "<") {
        ++angles;
      } else if (depth == 0 && x == ">" && angles > 0) {
        --angles;
      }
    }
    h.name = last_ident;
    return h;
  }

  /// The qualifiers of the name at `name`: `a` and `b` in `a::b::name`.
  std::vector<std::size_t> qualifiers(std::size_t first,
                                      std::size_t name) const {
    std::vector<std::size_t> out;
    while (name >= first + 2 && t_[name - 1].text == "::" &&
           is_ident(t_[name - 2].text)) {
      name -= 2;
      out.push_back(name);
    }
    return out;
  }

  /// A namespace- or class-level statement [b, e) ended by `;` or by
  /// the `{` of its function body.
  void finish(std::size_t b, std::size_t e, bool has_body) {
    const std::size_t first = skip_prefix(b, e);
    if (first >= e) {
      return;
    }
    const std::string& lead = t_[first].text;
    if (lead == "using") {
      if (first + 2 < e && is_ident(t_[first + 1].text) &&
          t_[first + 2].text == "=") {
        u_.def_site[first + 1] = true;
        if (exporting()) {
          decls_.push_back({t_[first + 1].text, "type", index_, first + 1});
        }
      }
      return;
    }
    static const std::set<std::string> skipped = {
        "friend", "typedef", "namespace", "class", "struct",
        "union",  "enum",    "extern",    "static_assert"};
    if (skipped.count(lead) != 0) {
      return;
    }
    const head h = read_head(b, e);
    if (h.name == std::string::npos || h.name == first) {
      return;  // unreadable, or a lone name (a macro or a constructor)
    }
    const std::vector<std::size_t> quals = qualifiers(first, h.name);
    u_.def_site[h.name] = true;
    for (const std::size_t q : quals) {
      u_.def_site[q] = true;
    }
    if (has_body && !quals.empty()) {
      // An out-of-line member: its head and body belong to the class.
      for (std::size_t j = b; j < e; ++j) {
        for (const std::size_t q : quals) {
          u_.owners[j].push_back(t_[q].text);
        }
      }
      for (const std::size_t q : quals) {
        owners_.push_back(t_[q].text);
      }
      stack_.back().owners += quals.size();
    }
    const scope& top = stack_[stack_.size() - (has_body ? 2 : 1)];
    const std::string& name = t_[h.name].text;
    if (!quals.empty() || !(top.exported && top.is_public) ||
        name == top.name) {
      return;  // out-of-line definition, private, or a constructor
    }
    const bool member = top.k == kind::cls;
    decls_.push_back(
        {name,
         h.function ? (member ? "member function" : "function")
                    : (member ? "field" : "variable"),
         index_, h.name});
  }

  /// A `{` at namespace or class level: a namespace, class or enum
  /// body, a function body, or an initializer.
  void open(std::size_t i) {
    const std::size_t first = skip_prefix(begin_, i);
    const std::string lead = first < i ? t_[first].text : "";
    const scope& top = stack_.back();
    if (lead == "namespace" || lead == "extern") {
      const bool named = i > first + 1 && is_ident(t_[i - 1].text);
      const bool exported =
          top.exported && named && t_[i - 1].text != "std";
      stack_.push_back({kind::ns, "", exported, true, false, 0, 0});
      reset(i + 1);
      return;
    }
    const bool is_class = lead == "class" || lead == "struct" ||
                          lead == "union";
    const head h = read_head(begin_, i);
    if (lead == "enum" || (is_class && !h.function && !h.init)) {
      std::size_t j = first + 1;
      if (lead == "enum" && j < i &&
          (t_[j].text == "class" || t_[j].text == "struct")) {
        ++j;
      }
      j = skip_prefix(j, i);
      std::string name;
      if (j < i && is_ident(t_[j].text) &&
          (j + 1 >= i || t_[j + 1].text != "<")) {  // not a specialization
        name = t_[j].text;
        u_.def_site[j] = true;
        if (exporting()) {
          decls_.push_back({name, "type", index_, j});
        }
      }
      const bool exported = exporting();
      stack_.push_back({lead == "enum" ? kind::enm : kind::cls, name,
                        exported, lead != "class", false, begin_,
                        name.empty() ? 0u : 1u});
      if (!name.empty()) {
        owners_.push_back(name);
      }
      expect_enumerator_ = true;
      reset(i + 1);
      return;
    }
    if (h.function && !h.init) {
      // Past the parameter list, a ctor-init `:` makes a `{` after a
      // member name a brace initializer; the body follows `)` or `}`.
      bool ctor_init = false;
      int parens = 0;
      for (std::size_t j = h.name == std::string::npos ? h.first : h.name + 1;
           j < i; ++j) {
        const std::string& x = t_[j].text;
        parens += (x == "(") - (x == ")");
        ctor_init = ctor_init || (parens == 0 && x == ":");
      }
      const std::string& prev = t_[i - 1].text;
      if (!ctor_init || prev == ")" || prev == "}") {
        stack_.push_back({kind::body, "", false, true, true, 0, 0});
        finish(begin_, i, true);
        return;
      }
    }
    // An initializer: the statement goes on after its closing brace.
    stack_.push_back({kind::body, "", false, true, false, 0, 0});
  }

  unit_facts& u_;
  const std::vector<token>& t_;
  std::size_t index_;
  std::vector<export_decl>& decls_;
  std::vector<scope> stack_;
  std::vector<std::string> owners_;
  std::size_t begin_ = 0;
  int depth_ = 0;
  bool type_body_ = false;
  bool expect_enumerator_ = false;
};

bool is_write(const std::vector<token>& t, std::size_t k) {
  static const std::set<std::string> assignments = {
      "=",  "+=", "-=", "*=",  "/=",  "%=", "&=",
      "|=", "^=", "<<=", ">>=", "++", "--"};
  if (k + 1 < t.size() && assignments.count(t[k + 1].text) != 0) {
    return true;
  }
  // `++s.count` and `--p->depth` write the member at the end.
  while (k >= 2 && (t[k - 1].text == "." || t[k - 1].text == "->") &&
         is_ident(t[k - 2].text)) {
    k -= 2;
  }
  return k >= 1 && (t[k - 1].text == "++" || t[k - 1].text == "--");
}

/// unused-export: a name a src/<module>/*.hpp declares that nothing
/// uses. A use is any occurrence other than the declaration, the
/// definition in the companion .cpp, or a write. Uses count in src/
/// and in the driver directories beside it (tools/, certbench/,
/// examples/); a name used only under tests/ is reported test-only.
void check_exports(const std::vector<loaded_file>& files,
                   const std::string& root,
                   std::vector<lint::finding>& out) {
  enum class origin { src, driver, test };
  std::filesystem::path top =
      std::filesystem::absolute(root).lexically_normal();
  if (top.filename().empty()) {
    top = top.parent_path();
  }
  std::vector<std::pair<loaded_file, origin>> siblings;
  for (const auto& [dir, where] : {std::pair{"tools", origin::driver},
                                   std::pair{"certbench", origin::driver},
                                   std::pair{"examples", origin::driver},
                                   std::pair{"tests", origin::test}}) {
    const std::filesystem::path path = top.parent_path() / dir;
    if (!std::filesystem::is_directory(path)) {
      continue;
    }
    for (const std::string& file : lint::collect_sources(path.string())) {
      siblings.push_back(
          {{lint::relativize(file, top.parent_path().string()),
            scan_source(lint::read_file(file))},
           where});
    }
  }

  struct unit {
    const loaded_file* file;
    origin where;
    unit_facts facts;
  };
  std::vector<unit> units;
  std::map<std::string, std::size_t> src_unit;  // companion lookup
  for (const loaded_file& f : files) {
    src_unit[f.relative] = units.size();
    units.push_back({&f, origin::src, {}});
  }
  for (const auto& [f, where] : siblings) {
    units.push_back({&f, where, {}});
  }
  std::vector<export_decl> decls;
  for (std::size_t i = 0; i < units.size(); ++i) {
    unit& u = units[i];
    const std::string& rel = u.file->relative;
    u.facts.tokens = tokenize(u.file->scan);
    const bool exports = u.where == origin::src && !module_of(rel).empty() &&
                         rel.size() > 4 &&
                         rel.compare(rel.size() - 4, 4, ".hpp") == 0;
    scope_walker{u.facts, i, exports, decls}.run();
  }

  std::map<std::string, std::vector<std::pair<std::size_t, std::size_t>>>
      occurrences;
  for (const export_decl& d : decls) {
    occurrences[d.name];
  }
  for (std::size_t i = 0; i < units.size(); ++i) {
    const std::vector<token>& t = units[i].facts.tokens;
    for (std::size_t k = 0; k < t.size(); ++k) {
      const auto it = occurrences.find(t[k].text);
      if (it != occurrences.end()) {
        it->second.emplace_back(i, k);
      }
    }
  }

  for (const export_decl& d : decls) {
    const loaded_file& header = *units[d.unit].file;
    const auto companion_it = src_unit.find(
        header.relative.substr(0, header.relative.size() - 4) + ".cpp");
    const std::size_t companion =
        companion_it == src_unit.end() ? d.unit : companion_it->second;
    std::size_t live = 0;
    std::size_t tested = 0;
    for (const auto& [i, k] : occurrences.at(d.name)) {
      const unit_facts& f = units[i].facts;
      const bool own = i == d.unit || i == companion;
      if ((own && f.def_site[k]) || is_write(f.tokens, k) ||
          (own && d.kind == "type" &&
           std::count(f.owners[k].begin(), f.owners[k].end(), d.name) != 0)) {
        continue;
      }
      ++(units[i].where == origin::test ? tested : live);
    }
    if (live != 0) {
      continue;
    }
    const std::size_t line = units[d.unit].facts.tokens[d.token].line;
    out.push_back(
        {header.relative, line, "unused-export",
         "'" + d.name + "' (" + d.kind + ") " +
             (tested != 0 ? "is test-only: only tests/ use it"
                          : "has no use outside its declaration, its "
                            "definition and writes to it") +
             " — delete it, or waive it with the reason it stays",
         header.scan.raw_lines[line - 1]});
  }
}

}  // namespace

analysis_result analyze_tree(const std::vector<std::string>& files,
                             const std::string& root, const layer_spec& spec,
                             const analysis_options& opts) {
  analysis_result result;
  std::vector<loaded_file> loaded;
  loaded.reserve(files.size());
  std::vector<std::pair<std::string, std::string>> lint_inputs;
  for (const std::string& file : files) {
    std::string content = lint::read_file(file);
    const std::string relative = lint::relativize(file, root);
    if (opts.run_lint) {
      lint_inputs.emplace_back(relative, content);
    }
    loaded.push_back({relative, scan_source(content)});
  }
  std::sort(loaded.begin(), loaded.end(),
            [](const loaded_file& a, const loaded_file& b) {
              return a.relative < b.relative;
            });

  // The module include graph — built unconditionally, because the
  // depgraph artifacts are derived from it even when layering is off.
  std::set<std::string> known;
  for (const loaded_file& f : loaded) {
    known.insert(f.relative);
    const std::string module = module_of(f.relative);
    if (!module.empty()) {
      result.graph.modules.insert(module);
    }
  }
  for (const loaded_file& f : loaded) {
    const std::string from = module_of(f.relative);
    if (from.empty()) {
      continue;
    }
    for (const include_directive& inc : f.scan.includes) {
      if (inc.angled) {
        continue;
      }
      const std::string resolved =
          resolve_include(inc.target, f.relative, known);
      const std::string to =
          resolved.empty() ? module_of(inc.target) : module_of(resolved);
      // Only modules that exist in this scan form edges: an include of
      // a nonexistent module is a compile error, not our beat.
      if (!to.empty() && to != from &&
          result.graph.modules.count(to) != 0) {
        result.graph.edges[{from, to}].push_back(
            {f.relative, inc.line, f.scan.raw_lines[inc.line - 1]});
      }
    }
  }

  if (opts.run_lint) {
    std::vector<lint::finding> lint_findings =
        lint::lint_sources(lint_inputs);
    result.findings.insert(result.findings.end(),
                           std::make_move_iterator(lint_findings.begin()),
                           std::make_move_iterator(lint_findings.end()));
  }
  if (opts.run_layering) {
    check_layering(root, spec, result.graph, result.findings);
  }
  if (opts.run_hygiene) {
    check_hygiene(loaded, result.findings);
    check_exports(loaded, root, result.findings);
  }
  std::sort(result.findings.begin(), result.findings.end(),
            [](const lint::finding& a, const lint::finding& b) {
              return std::tie(a.path, a.line, a.rule) <
                     std::tie(b.path, b.line, b.rule);
            });
  return result;
}

// -------------------------------------------------------------- artifacts

std::string depgraph_json(const module_graph& graph, const layer_spec& spec,
                          const std::string& root_name) {
  std::ostringstream out;
  out << "{\n  \"root\": \"" << root_name << "\",\n  \"layers\": [\n";
  for (std::size_t i = 0; i < spec.layers.size(); ++i) {
    out << "    {\"index\": " << i << ", \"modules\": [";
    for (std::size_t m = 0; m < spec.layers[i].size(); ++m) {
      out << (m != 0 ? ", " : "") << '"' << spec.layers[i][m] << '"';
    }
    out << "]}" << (i + 1 < spec.layers.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"modules\": [\n";
  std::size_t count = 0;
  for (const std::string& module : graph.modules) {
    std::set<std::string> includes;
    for (const auto& [edge, sites] : graph.edges) {
      if (edge.first == module) {
        includes.insert(edge.second);
      }
    }
    const auto layer = spec.layer_of.find(module);
    out << "    {\"name\": \"" << module << "\", \"layer\": ";
    if (layer != spec.layer_of.end()) {
      out << layer->second;
    } else {
      out << -1;
    }
    out << ", \"includes\": [";
    std::size_t i = 0;
    for (const std::string& inc : includes) {
      out << (i++ != 0 ? ", " : "") << '"' << inc << '"';
    }
    out << "]}" << (++count < graph.modules.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"edges\": [\n";
  count = 0;
  for (const auto& [edge, sites] : graph.edges) {
    out << "    {\"from\": \"" << edge.first << "\", \"to\": \""
        << edge.second << "\", \"sites\": " << sites.size() << "}"
        << (++count < graph.edges.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

std::string depgraph_dot(const module_graph& graph, const layer_spec& spec) {
  std::ostringstream out;
  out << "digraph certquic {\n  rankdir=BT;\n  node [shape=box];\n";
  for (std::size_t i = 0; i < spec.layers.size(); ++i) {
    out << "  subgraph cluster_" << i << " {\n    label=\"layer " << i
        << "\";\n    rank=same;\n";
    for (const std::string& module : spec.layers[i]) {
      if (graph.modules.count(module) != 0) {
        out << "    \"" << module << "\";\n";
      }
    }
    out << "  }\n";
  }
  for (const std::string& module : graph.modules) {
    if (spec.layer_of.count(module) == 0) {
      out << "  \"" << module << "\";\n";
    }
  }
  for (const auto& [edge, sites] : graph.edges) {
    out << "  \"" << edge.first << "\" -> \"" << edge.second << "\";\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace certquic::analyze

#include "lint/project.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "lint/lexer.hpp"
#include "lint/scopes.hpp"

namespace hyde::lint {

namespace {

bool punct(const Token& t, const char* text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}

bool ident(const Token& t) { return t.kind == Token::Kind::kIdentifier; }

bool ident(const Token& t, const char* text) {
  return t.kind == Token::Kind::kIdentifier && t.text == text;
}

bool option_struct_name(const std::string& name) {
  static const char* const kStructs[] = {"FlowOptions", "BatchOptions",
                                         "EncoderOptions", "WindowOptions",
                                         "WindowedFlowOptions"};
  return std::any_of(std::begin(kStructs), std::end(kStructs),
                     [&](const char* s) { return name == s; });
}

struct KnobField {
  std::string struct_name;
  std::string field;
  std::string file;
  int line = 0;
};

/// True iff the depth-1 `{` at \p open starts a member-function body (the
/// token before it closes a parameter list or is a trailing qualifier).
/// Any other brace — a brace-init such as `std::size_t{1} << 20`, a nested
/// type — belongs to the statement in progress.
bool opens_function_body(const std::vector<Token>& tokens, std::size_t open) {
  if (open == 0) return false;
  const Token& prev = tokens[open - 1];
  return punct(prev, ")") || ident(prev, "const") || ident(prev, "noexcept") ||
         ident(prev, "override") || ident(prev, "final");
}

/// Extracts data-member names from `struct <Option> { ... }` bodies: per
/// depth-1 statement, the identifier before `=` / `{` / `;` — skipping
/// statements that declare functions, nested types, or aliases. A statement
/// ends at a depth-1 `;` or at the `}` closing a member-function body.
void collect_option_fields(const std::string& path, const LexedFile& lexed,
                           std::vector<KnobField>* out) {
  const std::vector<Token>& tokens = lexed.tokens;
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (!ident(tokens[i], "struct") || !ident(tokens[i + 1]) ||
        !option_struct_name(tokens[i + 1].text) ||
        !punct(tokens[i + 2], "{")) {
      continue;
    }
    const std::string& struct_name = tokens[i + 1].text;
    int depth = 0;
    bool in_body = false;
    std::size_t stmt_begin = i + 3;
    for (std::size_t j = i + 2; j < tokens.size(); ++j) {
      if (punct(tokens[j], "{")) {
        if (depth == 1) in_body = opens_function_body(tokens, j);
        ++depth;
        continue;
      }
      if (punct(tokens[j], "}")) {
        --depth;
        if (depth == 0) break;
        if (depth == 1 && in_body) {
          in_body = false;
          stmt_begin = j + 1;
        }
        continue;
      }
      if (depth != 1 || !punct(tokens[j], ";")) continue;
      // Statement [stmt_begin, j): a data member unless it declares a
      // function (has parens), a nested type, or an alias.
      bool plain_member = j > stmt_begin;
      std::size_t name_at = tokens.size();
      for (std::size_t k = stmt_begin; k < j && plain_member; ++k) {
        const Token& t = tokens[k];
        if (punct(t, "(") || ident(t, "using") || ident(t, "typedef") ||
            ident(t, "friend") || ident(t, "static") || ident(t, "struct") ||
            ident(t, "class") || ident(t, "enum")) {
          plain_member = false;
        }
        if (punct(t, "=") || punct(t, "{")) {
          if (k > stmt_begin && ident(tokens[k - 1])) name_at = k - 1;
          break;
        }
      }
      if (plain_member && name_at == tokens.size() && j > stmt_begin &&
          ident(tokens[j - 1])) {
        name_at = j - 1;  // `type name;` with no initializer
      }
      if (plain_member && name_at < tokens.size()) {
        out->push_back(KnobField{struct_name, tokens[name_at].text, path,
                                 tokens[name_at].line});
      }
      stmt_begin = j + 1;
    }
  }
}

/// Resolves an include target against the scanned set by path suffix.
/// Ambiguous targets resolve to nothing (no false cycle edges).
std::size_t resolve_include(const std::vector<ProjectFile>& files,
                            const std::string& target) {
  std::size_t found = files.size();
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::string& p = files[i].path;
    const bool match =
        p == target || (p.size() > target.size() + 1 &&
                        p.compare(p.size() - target.size() - 1, 1, "/") == 0 &&
                        p.compare(p.size() - target.size(), target.size(),
                                  target) == 0);
    if (!match) continue;
    if (found != files.size()) return files.size();  // ambiguous
    found = i;
  }
  return found;
}

}  // namespace

std::vector<Diagnostic> lint_project(const std::vector<ProjectFile>& files,
                                     const Options& opts,
                                     const std::string& allow_path,
                                     bool prune_hints) {
  std::vector<Diagnostic> diags;
  std::vector<int> allow_hits(opts.allow.size(), 0);
  std::vector<LexedFile> lexed;
  lexed.reserve(files.size());
  for (const ProjectFile& f : files) lexed.push_back(lex_file(f.content));

  for (std::size_t i = 0; i < files.size(); ++i) {
    std::vector<Diagnostic> d =
        lint_lexed(files[i].path, lexed[i], opts, &allow_hits);
    diags.insert(diags.end(), d.begin(), d.end());
  }

  auto report = [&](const std::string& path, int line, const std::string& rule,
                    const std::string& message, const std::string& hint) {
    for (std::size_t i = 0; i < opts.allow.size(); ++i) {
      const AllowEntry& entry = opts.allow[i];
      if ((entry.rule == rule || entry.rule == "*") &&
          path.find(entry.path_fragment) != std::string::npos) {
        ++allow_hits[i];
        return;
      }
    }
    diags.push_back({path, line, rule, message, hint});
  };

  // --- dead-knob -----------------------------------------------------------
  // Reachability roots: member accesses (`.name` / `->name`) in the CLI or
  // the report layer. A knob never accessed there can neither be set from
  // the outside nor surfaced in results; a bare identifier of the same name
  // (a local, a parameter, another struct's type) does not count.
  std::set<std::string> reachable;
  bool have_cli = false;
  bool have_report = false;
  for (std::size_t i = 0; i < files.size(); ++i) {
    const bool cli = files[i].path.find("hyde_cli") != std::string::npos;
    const bool rep = files[i].path.find("runtime/report") != std::string::npos;
    if (!cli && !rep) continue;
    have_cli = have_cli || cli;
    have_report = have_report || rep;
    const std::vector<Token>& tokens = lexed[i].tokens;
    for (std::size_t t = 1; t < tokens.size(); ++t) {
      if (ident(tokens[t]) &&
          (punct(tokens[t - 1], ".") || punct(tokens[t - 1], "->"))) {
        reachable.insert(tokens[t].text);
      }
    }
  }
  if (have_cli && have_report) {
    std::vector<KnobField> fields;
    for (std::size_t i = 0; i < files.size(); ++i) {
      collect_option_fields(files[i].path, lexed[i], &fields);
    }
    for (const KnobField& k : fields) {
      if (reachable.count(k.field) != 0) continue;
      const std::size_t file_index = static_cast<std::size_t>(
          std::find_if(files.begin(), files.end(),
                       [&](const ProjectFile& f) { return f.path == k.file; }) -
          files.begin());
      // The escape may trail the field's declaration or sit on the line (or
      // doc-comment line) just above it.
      if (file_index < lexed.size() &&
          (lexed[file_index].comment_on_line_contains(k.line, "hyde-knob-ok") ||
           lexed[file_index].comment_on_line_contains(k.line - 1,
                                                      "hyde-knob-ok"))) {
        continue;
      }
      report(k.file, k.line, "dead-knob",
             "option field '" + k.struct_name + "::" + k.field +
                 "' reaches neither hyde_cli flags nor RunReport",
             "wire a CLI flag (or surface it in the report), or delete the "
             "knob; a setting nobody can set or see is dead weight — if it "
             "is deliberately engine-internal, annotate // hyde-knob-ok");
    }
  }

  // --- include cycles ------------------------------------------------------
  std::vector<std::vector<std::size_t>> edges(files.size());
  std::map<std::pair<std::size_t, std::size_t>, int> edge_lines;
  for (std::size_t i = 0; i < files.size(); ++i) {
    for (const IncludeDirective& inc : lexed[i].includes) {
      if (inc.angled) continue;  // system headers cannot close a cycle here
      const std::size_t to = resolve_include(files, inc.target);
      if (to == files.size() || to == i) continue;
      edges[i].push_back(to);
      edge_lines.emplace(std::make_pair(i, to), inc.line);
    }
  }
  // Iterative three-color DFS; each back edge closes one reported cycle.
  std::vector<int> color(files.size(), 0);  // 0 white, 1 gray, 2 black
  for (std::size_t root = 0; root < files.size(); ++root) {
    if (color[root] != 0) continue;
    std::vector<std::pair<std::size_t, std::size_t>> stack;  // node, edge idx
    std::vector<std::size_t> path_nodes;
    stack.emplace_back(root, 0);
    color[root] = 1;
    path_nodes.push_back(root);
    while (!stack.empty()) {
      auto& [node, next_edge] = stack.back();
      if (next_edge >= edges[node].size()) {
        color[node] = 2;
        stack.pop_back();
        path_nodes.pop_back();
        continue;
      }
      const std::size_t to = edges[node][next_edge++];
      if (color[to] == 1) {
        // Cycle: path_nodes from `to` onward, back to `to`.
        const auto start =
            std::find(path_nodes.begin(), path_nodes.end(), to);
        std::string chain;
        for (auto it = start; it != path_nodes.end(); ++it) {
          chain += files[*it].path + " -> ";
        }
        chain += files[to].path;
        report(files[node].path, edge_lines[{node, to}], "include-hygiene",
               "include cycle: " + chain,
               "break the cycle with a forward declaration or by moving the "
               "shared piece into its own header");
        continue;
      }
      if (color[to] == 0) {
        color[to] = 1;
        stack.emplace_back(to, 0);
        path_nodes.push_back(to);
      }
    }
  }

  // --- stale allowlist -----------------------------------------------------
  if (prune_hints) {
    const std::string label = allow_path.empty() ? "<allowlist>" : allow_path;
    for (std::size_t i = 0; i < opts.allow.size(); ++i) {
      const AllowEntry& entry = opts.allow[i];
      const bool matches_any_file =
          std::any_of(files.begin(), files.end(), [&](const ProjectFile& f) {
            return f.path.find(entry.path_fragment) != std::string::npos;
          });
      if (!matches_any_file) {
        diags.push_back(
            {label, entry.line, "stale-allowlist",
             "entry '" + entry.rule + " " + entry.path_fragment +
                 "' matches no scanned file",
             "delete the entry (the file moved or the fragment is a typo)"});
      } else if (allow_hits[i] == 0) {
        diags.push_back(
            {label, entry.line, "stale-allowlist",
             "entry '" + entry.rule + " " + entry.path_fragment +
                 "' suppresses zero diagnostics",
             "delete the entry; the violation it excused is gone"});
      }
    }
  }

  return diags;
}

}  // namespace hyde::lint

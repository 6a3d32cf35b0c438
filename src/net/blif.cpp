#include "net/blif.hpp"

#include <algorithm>
#include <istream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

namespace hyde::net {

namespace {

/// Every parse error names its 1-based source line and the offending token,
/// so a bad file is diagnosable without bisecting it by hand.
[[noreturn]] void fail(int line_no, const std::string& token,
                       const std::string& message) {
  throw std::runtime_error("BLIF line " + std::to_string(line_no) + ": " +
                           message + " (near '" + token + "')");
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string token;
  while (is >> token) tokens.push_back(token);
  return tokens;
}

/// One logical line: tokens plus the 1-based number of the physical line it
/// started on (continuations keep the first line's number).
struct LogicalLine {
  int line_no = 0;
  std::vector<std::string> tokens;
};

/// Reads logical lines: strips comments, joins '\' continuations.
std::vector<LogicalLine> logical_lines(std::istream& in) {
  std::vector<LogicalLine> lines;
  std::string raw, pending;
  int physical = 0, pending_start = 0;
  while (std::getline(in, raw)) {
    ++physical;
    if (auto hash = raw.find('#'); hash != std::string::npos) {
      raw.erase(hash);
    }
    bool continued = false;
    if (auto bs = raw.find_last_not_of(" \t\r");
        bs != std::string::npos && raw[bs] == '\\') {
      raw.erase(bs);
      continued = true;
    }
    if (pending.empty()) pending_start = physical;
    pending += raw;
    if (continued) {
      pending += ' ';
      continue;
    }
    auto tokens = tokenize(pending);
    pending.clear();
    if (!tokens.empty()) lines.push_back({pending_start, std::move(tokens)});
  }
  if (!pending.empty()) {
    auto tokens = tokenize(pending);
    if (!tokens.empty()) lines.push_back({pending_start, std::move(tokens)});
  }
  return lines;
}

struct NamesBlock {
  std::vector<std::string> inputs;
  std::string output;
  std::vector<std::string> cubes;  // input parts only
  char phase = '1';
  bool phase_set = false;
  int line_no = 0;  ///< the .names line, for errors found while building
  bool on_stack = false;  ///< being built (a cycle if reached again)
};

/// Parsed dot-structure of one BLIF section (main model or .exdc body).
struct ParsedSection {
  std::string model_name = "top";
  std::vector<std::string> input_names, output_names;
  std::map<std::string, NamesBlock> blocks;
  /// `.latch` data signals in file order (latch-input first), kept only in
  /// latch_combinational mode: outputs become PIs, inputs become POs.
  std::vector<std::pair<std::string, std::string>> latches;
  std::vector<int> latch_lines;  ///< parallel to latches, for late errors
  int outputs_line = 0;  ///< first .outputs line, for undefined-PO errors
};

ParsedSection parse_section(const std::vector<LogicalLine>& lines,
                            const BlifReadOptions& options) {
  ParsedSection section;
  NamesBlock* current = nullptr;
  std::set<std::string> declared_inputs;

  for (const LogicalLine& line : lines) {
    const std::vector<std::string>& tokens = line.tokens;
    const int line_no = line.line_no;
    const std::string& head = tokens[0];
    if (head == ".model") {
      if (tokens.size() >= 2) section.model_name = tokens[1];
      current = nullptr;
    } else if (head == ".inputs") {
      for (auto it = tokens.begin() + 1; it != tokens.end(); ++it) {
        if (!declared_inputs.insert(*it).second) {
          fail(line_no, *it, "input declared twice");
        }
        section.input_names.push_back(*it);
      }
      current = nullptr;
    } else if (head == ".outputs") {
      if (section.outputs_line == 0) section.outputs_line = line_no;
      section.output_names.insert(section.output_names.end(),
                                  tokens.begin() + 1, tokens.end());
      current = nullptr;
    } else if (head == ".names") {
      if (tokens.size() < 2) fail(line_no, head, ".names without signals");
      NamesBlock block;
      block.inputs.assign(tokens.begin() + 1, tokens.end() - 1);
      block.output = tokens.back();
      block.line_no = line_no;
      auto [it, inserted] =
          section.blocks.insert_or_assign(block.output, std::move(block));
      if (!inserted) {
        fail(line_no, it->first, "signal defined twice");
      }
      current = &it->second;
    } else if (head == ".end") {
      current = nullptr;
    } else if (head == ".latch") {
      if (!options.latch_combinational) {
        fail(line_no, head,
             "unsupported construct .latch (sequential model; set "
             "latch_combinational to extract the combinational core)");
      }
      // `.latch <input> <output> [<type> <control>] [<init-val>]`
      if (tokens.size() < 3) {
        fail(line_no, head, ".latch needs an input and an output signal");
      }
      section.latches.emplace_back(tokens[1], tokens[2]);
      section.latch_lines.push_back(line_no);
      current = nullptr;
    } else if (head == ".subckt" || head == ".gate") {
      fail(line_no, head,
           "unsupported construct " + head + " (only flat .names models)");
    } else if (head[0] == '.') {
      current = nullptr;  // ignore unknown dot-directives (.default_input_arrival etc.)
    } else {
      // Cover row inside the current .names block.
      if (current == nullptr) {
        fail(line_no, head, "cover row outside .names");
      }
      std::string in_part;
      char out_part;
      if (current->inputs.empty()) {
        if (tokens.size() != 1 || tokens[0].size() != 1) {
          fail(line_no, tokens[0],
               "bad constant cover for " + current->output);
        }
        in_part = "";
        out_part = tokens[0][0];
      } else {
        if (tokens.size() != 2 || tokens[0].size() != current->inputs.size() ||
            tokens[1].size() != 1) {
          fail(line_no, tokens[0], "bad cover row for " + current->output);
        }
        in_part = tokens[0];
        out_part = tokens[1][0];
      }
      if (out_part != '0' && out_part != '1') {
        fail(line_no, std::string(1, out_part),
             "bad output phase for " + current->output);
      }
      if (current->phase_set && current->phase != out_part) {
        fail(line_no, std::string(1, out_part),
             "mixed output phases for " + current->output);
      }
      current->phase = out_part;
      current->phase_set = true;
      current->cubes.push_back(in_part);
    }
  }
  return section;
}

/// Rewrites a sequential section into its combinational core: latch outputs
/// join the primary inputs, latch inputs join the primary outputs. The
/// network between the registers is exactly what the mapping flows consume.
void absorb_latches(ParsedSection* section) {
  for (std::size_t i = 0; i < section->latches.size(); ++i) {
    const auto& [data_in, data_out] = section->latches[i];
    const int line_no = section->latch_lines[i];
    if (section->blocks.count(data_out) != 0) {
      fail(line_no, data_out, "latch output also defined by .names");
    }
    if (std::find(section->input_names.begin(), section->input_names.end(),
                  data_out) != section->input_names.end()) {
      fail(line_no, data_out, "latch output already a primary input");
    }
    section->input_names.push_back(data_out);
    if (std::find(section->output_names.begin(), section->output_names.end(),
                  data_in) == section->output_names.end()) {
      section->output_names.push_back(data_in);
    }
  }
}

/// Builds the logic node of one .names block from its fanins.
NodeId add_block(Network& network, const NamesBlock& block,
                 std::vector<NodeId> fanins) {
  bdd::Manager& mgr = network.manager();
  mgr.ensure_vars(static_cast<int>(block.inputs.size()));
  bdd::Bdd sum = mgr.zero();
  for (const auto& cube : block.cubes) {
    bdd::Bdd product = mgr.one();
    for (std::size_t i = 0; i < cube.size(); ++i) {
      if (cube[i] == '1') {
        product = product & mgr.var(static_cast<int>(i));
      } else if (cube[i] == '0') {
        product = product & mgr.nvar(static_cast<int>(i));
      } else if (cube[i] != '-') {
        fail(block.line_no, cube,
             "bad cube character in cover of " + block.output);
      }
    }
    sum = sum | product;
  }
  if (block.phase == '0') sum = ~sum;
  return network.add_logic(block.output, std::move(fanins), std::move(sum));
}

/// Builds a network from a parsed section. When \p missing_outputs_as_zero
/// is set (the .exdc case) undefined output signals become constant 0.
Network build_section(ParsedSection& section, bool missing_outputs_as_zero) {
  Network network(section.model_name);
  for (const auto& name : section.input_names) {
    if (auto it = section.blocks.find(name); it != section.blocks.end()) {
      fail(it->second.line_no, name, "primary input also defined by .names");
    }
    network.add_input(name);
  }

  // Creates logic nodes on demand, following dependencies depth-first with
  // an explicit stack (netlists can be far deeper than the call stack), in
  // fanin order, so nodes are added in the post-order of that walk.
  // referenced_at is the line to blame when a signal has no definition.
  struct Frame {
    NamesBlock* block;
    std::vector<NodeId> fanins;  ///< built so far, in input order
  };
  std::vector<Frame> stack;
  const auto push = [&](const std::string& name, int referenced_at) {
    auto it = section.blocks.find(name);
    if (it == section.blocks.end()) {
      fail(referenced_at == 0 ? section.outputs_line : referenced_at, name,
           "undefined signal");
    }
    NamesBlock& block = it->second;
    if (block.on_stack) {
      fail(referenced_at, name, "combinational cycle through signal");
    }
    block.on_stack = true;
    stack.push_back(Frame{&block, {}});
    stack.back().fanins.reserve(block.inputs.size());
  };
  const auto build = [&](const std::string& name) -> NodeId {
    if (NodeId existing = network.find(name); existing != kNoNode) {
      return existing;
    }
    push(name, 0);
    while (true) {
      Frame& top = stack.back();
      NamesBlock& block = *top.block;
      if (top.fanins.size() < block.inputs.size()) {
        const std::string& in_name = block.inputs[top.fanins.size()];
        if (NodeId existing = network.find(in_name); existing != kNoNode) {
          top.fanins.push_back(existing);
        } else {
          push(in_name, block.line_no);
        }
        continue;
      }
      const NodeId id = add_block(network, block, std::move(top.fanins));
      block.on_stack = false;
      stack.pop_back();
      if (stack.empty()) return id;
      stack.back().fanins.push_back(id);
    }
  };

  for (const auto& name : section.output_names) {
    if (missing_outputs_as_zero && section.blocks.count(name) == 0 &&
        std::find(section.input_names.begin(), section.input_names.end(),
                  name) == section.input_names.end()) {
      network.add_output(name, network.add_constant(name, false));
    } else {
      network.add_output(name, build(name));
    }
  }
  return network;
}

}  // namespace

BlifModel read_blif_model(std::istream& in, const BlifReadOptions& options) {
  const auto lines = logical_lines(in);
  // Split at `.exdc`: everything after it (up to `.end`) is the don't-care
  // network's body.
  std::vector<LogicalLine> main_lines, exdc_lines;
  bool in_exdc = false;
  for (const LogicalLine& line : lines) {
    if (line.tokens[0] == ".exdc") {
      in_exdc = true;
      continue;
    }
    (in_exdc ? exdc_lines : main_lines).push_back(line);
  }

  BlifModel model;
  ParsedSection main_section = parse_section(main_lines, options);
  model.latches = static_cast<int>(main_section.latches.size());
  if (!main_section.latches.empty()) absorb_latches(&main_section);
  model.network = build_section(main_section, /*missing_outputs_as_zero=*/false);
  model.has_dont_cares = in_exdc;
  if (in_exdc) {
    ParsedSection dc_section = parse_section(exdc_lines, options);
    // The exdc body shares the main model's interface.
    dc_section.model_name = main_section.model_name + "_exdc";
    dc_section.input_names = main_section.input_names;
    dc_section.output_names = main_section.output_names;
    model.dont_care = build_section(dc_section, /*missing_outputs_as_zero=*/true);
  }
  return model;
}

BlifModel read_blif_model_string(const std::string& text,
                                 const BlifReadOptions& options) {
  std::istringstream is(text);
  return read_blif_model(is, options);
}

Network read_blif(std::istream& in, const BlifReadOptions& options) {
  BlifModel model = read_blif_model(in, options);
  if (model.has_dont_cares) {
    throw std::runtime_error(
        "BLIF: .exdc present; use read_blif_model to keep the don't cares");
  }
  return std::move(model.network);
}

Network read_blif_string(const std::string& text,
                         const BlifReadOptions& options) {
  std::istringstream is(text);
  return read_blif(is, options);
}

namespace {

/// Enumerates the 1-paths of a local function as BLIF cubes.
void one_paths(const bdd::Bdd& f, int arity, std::string& cube,
               std::vector<std::string>& out) {
  if (f.is_zero()) return;
  if (f.is_one()) {
    out.push_back(cube);
    return;
  }
  const int v = f.top_var();
  cube[static_cast<std::size_t>(v)] = '0';
  one_paths(f.low(), arity, cube, out);
  cube[static_cast<std::size_t>(v)] = '1';
  one_paths(f.high(), arity, cube, out);
  cube[static_cast<std::size_t>(v)] = '-';
}

}  // namespace

void write_blif(const Network& network, std::ostream& out) {
  out << ".model " << network.model_name() << "\n.inputs";
  for (NodeId id : network.inputs()) out << ' ' << network.node(id).name;
  out << "\n.outputs";
  for (const Output& o : network.outputs()) out << ' ' << o.name;
  out << "\n";
  for (NodeId id : network.topo_order()) {
    const Node& n = network.node(id);
    if (n.kind != NodeKind::kLogic || n.dead) continue;
    out << ".names";
    for (NodeId f : n.fanins) out << ' ' << network.node(f).name;
    out << ' ' << n.name << "\n";
    std::string cube(n.fanins.size(), '-');
    std::vector<std::string> cubes;
    one_paths(n.local, static_cast<int>(n.fanins.size()), cube, cubes);
    for (const auto& c : cubes) {
      if (c.empty()) {
        out << "1\n";
      } else {
        out << c << " 1\n";
      }
    }
  }
  // Buffers for outputs whose name differs from the driving node.
  for (const Output& o : network.outputs()) {
    const Node& d = network.node(o.driver);
    if (d.name != o.name) {
      out << ".names " << d.name << ' ' << o.name << "\n1 1\n";
    }
  }
  out << ".end\n";
}

std::string write_blif_string(const Network& network) {
  std::ostringstream os;
  write_blif(network, os);
  return os.str();
}

}  // namespace hyde::net

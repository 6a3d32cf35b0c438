#include "net/pla.hpp"

#include <functional>
#include <istream>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace hyde::net {

namespace {

/// Largest .i or .o count the reader accepts. Every output node is first
/// built over all the inputs (inputs × outputs fanins in each of the two
/// networks) and only then swept down to its support, so the count sizes the
/// reader's memory before any cube is read. The MCNC/espresso PLAs have at
/// most a few hundred inputs or outputs; a larger count is taken for a
/// corrupt header rather than spending gigabytes on it.
constexpr int kMaxPlaSignals = 1024;

/// Reads a .i/.o count; a missing or unparsable one (including an
/// overflowing literal) is an error.
int read_count(std::istream& is, const std::string& directive) {
  int count = 0;
  if (!(is >> count)) {
    throw std::runtime_error("PLA: unparsable " + directive + " count");
  }
  return count;
}

struct PlaHeader {
  int num_inputs = -1;
  int num_outputs = -1;
  std::vector<std::string> input_names;
  std::vector<std::string> output_names;
  std::string type = "fd";
};

struct Cube {
  std::string in;
  std::string out;
};

}  // namespace

PlaModel read_pla(std::istream& in, const std::string& model_name) {
  PlaHeader header;
  std::vector<Cube> cubes;
  std::string line;
  while (std::getline(in, line)) {
    if (auto hash = line.find('#'); hash != std::string::npos) line.erase(hash);
    std::istringstream is(line);
    std::string token;
    if (!(is >> token)) continue;
    if (token == ".i") {
      header.num_inputs = read_count(is, token);
    } else if (token == ".o") {
      header.num_outputs = read_count(is, token);
    } else if (token == ".p") {
      int declared = 0;
      is >> declared;
      (void)declared;  // informational
    } else if (token == ".ilb") {
      std::string name;
      while (is >> name) header.input_names.push_back(name);
    } else if (token == ".ob") {
      std::string name;
      while (is >> name) header.output_names.push_back(name);
    } else if (token == ".type") {
      is >> header.type;
      if (header.type != "f" && header.type != "fd") {
        throw std::runtime_error("PLA: unsupported .type " + header.type);
      }
    } else if (token == ".e" || token == ".end") {
      break;
    } else if (token[0] == '.') {
      throw std::runtime_error("PLA: unsupported directive " + token);
    } else {
      Cube cube;
      cube.in = token;
      if (!(is >> cube.out)) {
        throw std::runtime_error("PLA: cube row missing output part");
      }
      cubes.push_back(std::move(cube));
    }
  }
  if (header.num_inputs <= 0 || header.num_outputs <= 0) {
    throw std::runtime_error("PLA: missing .i/.o header");
  }
  if (header.num_inputs > kMaxPlaSignals ||
      header.num_outputs > kMaxPlaSignals) {
    throw std::runtime_error("PLA: .i/.o count above " +
                             std::to_string(kMaxPlaSignals));
  }
  if (!header.input_names.empty() &&
      static_cast<int>(header.input_names.size()) != header.num_inputs) {
    throw std::runtime_error("PLA: .ilb arity mismatch");
  }
  if (!header.output_names.empty() &&
      static_cast<int>(header.output_names.size()) != header.num_outputs) {
    throw std::runtime_error("PLA: .ob arity mismatch");
  }

  // Unnamed signals are x<i> and y<o>; every name must be unique, since one
  // network holds both the inputs and the output nodes.
  if (header.input_names.empty()) {
    for (int i = 0; i < header.num_inputs; ++i) {
      header.input_names.push_back("x" + std::to_string(i));
    }
  }
  if (header.output_names.empty()) {
    for (int o = 0; o < header.num_outputs; ++o) {
      header.output_names.push_back("y" + std::to_string(o));
    }
  }
  std::set<std::string> names(header.input_names.begin(),
                              header.input_names.end());
  names.insert(header.output_names.begin(), header.output_names.end());
  if (names.size() != header.input_names.size() + header.output_names.size()) {
    throw std::runtime_error("PLA: duplicate signal name in .ilb/.ob");
  }

  PlaModel model{Network(model_name), Network(model_name + "_dc"), false};
  std::vector<NodeId> on_pis, dc_pis;
  for (const std::string& name : header.input_names) {
    on_pis.push_back(model.onset.add_input(name));
    dc_pis.push_back(model.dont_care.add_input(name));
  }

  auto cube_bdd = [&](bdd::Manager& mgr, const std::string& in_part) {
    if (static_cast<int>(in_part.size()) != header.num_inputs) {
      throw std::runtime_error("PLA: cube width mismatch: " + in_part);
    }
    mgr.ensure_vars(header.num_inputs);
    bdd::Bdd product = mgr.one();
    for (int v = 0; v < header.num_inputs; ++v) {
      const char c = in_part[static_cast<std::size_t>(v)];
      if (c == '1') {
        product = product & mgr.var(v);
      } else if (c == '0') {
        product = product & mgr.nvar(v);
      } else if (c != '-' && c != '2') {
        throw std::runtime_error("PLA: bad input literal in " + in_part);
      }
    }
    return product;
  };

  bdd::Manager& on_mgr = model.onset.manager();
  bdd::Manager& dc_mgr = model.dont_care.manager();
  std::vector<bdd::Bdd> on_fn, dc_fn;
  for (int o = 0; o < header.num_outputs; ++o) {
    on_fn.push_back(on_mgr.zero());
    dc_fn.push_back(dc_mgr.zero());
  }
  for (const Cube& cube : cubes) {
    if (static_cast<int>(cube.out.size()) != header.num_outputs) {
      throw std::runtime_error("PLA: output width mismatch: " + cube.out);
    }
    for (int o = 0; o < header.num_outputs; ++o) {
      const char c = cube.out[static_cast<std::size_t>(o)];
      if (c == '1') {
        on_fn[static_cast<std::size_t>(o)] =
            on_fn[static_cast<std::size_t>(o)] | cube_bdd(on_mgr, cube.in);
      } else if (c == '-' || c == '2') {
        if (header.type == "fd") {
          dc_fn[static_cast<std::size_t>(o)] =
              dc_fn[static_cast<std::size_t>(o)] | cube_bdd(dc_mgr, cube.in);
          model.has_dont_cares = true;
        }
      } else if (c != '0' && c != '~' && c != '4') {
        throw std::runtime_error("PLA: bad output literal in " + cube.out);
      }
    }
  }

  for (int o = 0; o < header.num_outputs; ++o) {
    const std::string& name = header.output_names[static_cast<std::size_t>(o)];
    model.onset.add_output(
        name, model.onset.add_logic(name, on_pis, on_fn[static_cast<std::size_t>(o)]));
    model.dont_care.add_output(
        name, model.dont_care.add_logic(name, dc_pis,
                                        dc_fn[static_cast<std::size_t>(o)]));
  }
  // The PLA semantics attach every PI to every output function; compact the
  // fanins down to the true supports.
  model.onset.sweep();
  model.dont_care.sweep();
  return model;
}

PlaModel read_pla_string(const std::string& text, const std::string& model_name) {
  std::istringstream is(text);
  return read_pla(is, model_name);
}

void write_pla(const Network& network, std::ostream& out) {
  const int n = static_cast<int>(network.inputs().size());
  const int num_out = static_cast<int>(network.outputs().size());
  if (n > 20) {
    throw std::invalid_argument("write_pla: too many primary inputs");
  }
  bdd::Manager global(std::max(1, n));
  std::vector<int> pi_var;
  for (int i = 0; i < n; ++i) pi_var.push_back(i);
  std::vector<NodeId> roots;
  for (const auto& o : network.outputs()) roots.push_back(o.driver);
  const auto bdds = network.global_bdds(roots, global, pi_var);

  out << ".i " << n << "\n.o " << num_out << "\n.ilb";
  for (NodeId id : network.inputs()) out << ' ' << network.node(id).name;
  out << "\n.ob";
  for (const auto& o : network.outputs()) out << ' ' << o.name;
  out << "\n";

  // One cover per output: cubes from the BDD's 1-paths.
  std::vector<std::string> rows;
  for (int o = 0; o < num_out; ++o) {
    std::string cube(static_cast<std::size_t>(n), '-');
    std::function<void(const bdd::Bdd&)> walk = [&](const bdd::Bdd& f) {
      if (f.is_zero()) return;
      if (f.is_one()) {
        std::string outs(static_cast<std::size_t>(num_out), '~');
        outs[static_cast<std::size_t>(o)] = '1';
        rows.push_back(cube + " " + outs);
        return;
      }
      const int v = f.top_var();
      cube[static_cast<std::size_t>(v)] = '0';
      walk(f.low());
      cube[static_cast<std::size_t>(v)] = '1';
      walk(f.high());
      cube[static_cast<std::size_t>(v)] = '-';
    };
    walk(bdds[static_cast<std::size_t>(o)]);
  }
  out << ".p " << rows.size() << "\n";
  for (const auto& row : rows) out << row << "\n";
  out << ".e\n";
}

std::string write_pla_string(const Network& network) {
  std::ostringstream os;
  write_pla(network, os);
  return os.str();
}

}  // namespace hyde::net

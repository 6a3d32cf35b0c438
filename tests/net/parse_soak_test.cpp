/// \file parse_soak_test.cpp
/// \brief Seeded mutation soak over the text readers: byte flips, deletions,
/// token insertions and spliced lines over the committed BLIF fixtures and
/// two PLA seeds. Every mutant either parses or throws std::runtime_error —
/// no crash, hang, other exception or runaway allocation.

#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/blif.hpp"
#include "net/pla.hpp"

namespace hyde::net {
namespace {

std::string read_fixture(const std::string& name) {
  std::ifstream in(std::string(HYDE_BLIF_FIXTURE_DIR) + "/" + name);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

constexpr const char* kPlaSeeds[] = {
    "# two-output example\n.i 3\n.o 2\n.ilb a b c\n.ob f g\n.p 4\n"
    "11- 10\n--1 10\n1-1 01\n010 01\n.e\n",
    ".i 4\n.o 3\n.type fd\n.p 5\n1-0- 1-0\n0-11 -10\n"
    "11-1 01-\n---0 ~01\n0000 2-1\n.e\n",
};

/// Tokens of both formats, plus counts that overflow an int or exceed every
/// reader limit.
const std::vector<std::string>& vocabulary() {
  static const std::vector<std::string> tokens = {
      ".names", ".inputs", ".outputs", ".latch", ".exdc", ".end", ".model",
      ".subckt", ".i", ".o", ".p", ".ilb", ".ob", ".type", ".e", "fr",
      "0", "1", "-", "2", "~", "11", "-0", "\\", "#", "\n", " ",
      "n1", "pi0", "po0", "65536", "2147483648", "9999999999994"};
  return tokens;
}

/// One seeded mutation of \p text: a byte flip, a deleted run, an inserted
/// vocabulary token, or a line of the text spliced in elsewhere.
std::string mutate(const std::string& text, std::mt19937_64& rng, int kind) {
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::string out = text;
  const std::size_t at = below(out.size());
  switch (kind) {
    case 0:  // single-bit flip
      out[at] = static_cast<char>(out[at] ^ (1 << below(8)));
      break;
    case 1:  // deleted run
      out.erase(at, 1 + below(32));
      break;
    case 2: {  // inserted token
      const auto& tokens = vocabulary();
      out.insert(at, " " + tokens[below(tokens.size())] + " ");
      break;
    }
    default: {  // a whole line of the text, spliced in at a line start
      const std::size_t from = out.rfind('\n', below(out.size()));
      const std::size_t begin = from == std::string::npos ? 0 : from + 1;
      const std::size_t end = out.find('\n', begin);
      const std::string line =
          out.substr(begin, end == std::string::npos ? std::string::npos
                                                     : end - begin + 1);
      const std::size_t to = out.rfind('\n', at);
      out.insert(to == std::string::npos ? 0 : to + 1, line + "\n");
    }
  }
  return out;
}

/// Runs \p parse over \p mutants mutations of \p seed and returns how many
/// were rejected. Any exception but std::runtime_error fails the test.
template <typename Parse>
int soak(const std::string& seed, int mutants, std::mt19937_64& rng,
         Parse parse) {
  int rejected = 0;
  for (int m = 0; m < mutants; ++m) {
    const std::string text = mutate(seed, rng, m % 4);
    try {
      parse(text);
    } catch (const std::runtime_error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutation " << m << ": " << e.what() << "\n" << text;
    }
  }
  return rejected;
}

TEST(ParserMutationSoak, BlifAndPlaEitherParseOrThrow) {
  std::mt19937_64 rng(0xB11F);
  BlifReadOptions options;
  options.latch_combinational = true;  // win_latch.blif is sequential
  int rejected = 0;
  for (const char* name : {"win_latch.blif", "win_mid.blif", "win_wide.blif"}) {
    const std::string seed = read_fixture(name);
    ASSERT_FALSE(seed.empty()) << name;
    rejected += soak(seed, 120, rng, [&options](const std::string& text) {
      const BlifModel model = read_blif_model_string(text, options);
      write_blif_string(model.network);  // topological walk of the result
    });
  }
  for (const char* seed : kPlaSeeds) {
    rejected += soak(seed, 400, rng, [](const std::string& text) {
      read_pla_string(text);
    });
  }
  // The mutations must reach the error paths, not only harmless bytes.
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace hyde::net

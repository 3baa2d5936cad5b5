#include "io/io.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "api/error.hpp"
#include "cec/cec.hpp"
#include "gen/arith.hpp"
#include "mig/algebra/algebra.hpp"
#include "mig/simulation.hpp"
#include "test_util.hpp"

namespace mighty::io {
namespace {

TEST(BlifTest, RoundTripPreservesFunction) {
  for (uint32_t seed = 0; seed < 10; ++seed) {
    const auto m = testutil::random_mig(5, 40, 4, 100 + seed);
    std::stringstream ss;
    write_blif(ss, m);
    const auto back = read_blif(ss);
    ASSERT_EQ(back.num_pis(), m.num_pis());
    ASSERT_EQ(back.num_pos(), m.num_pos());
    EXPECT_EQ(cec::check_equivalence(m, back).status, cec::CecStatus::equivalent)
        << "seed " << seed;
  }
}

TEST(BlifTest, RoundTripWithConstantsAndComplementedOutputs) {
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  m.create_po(!m.create_and(a, b));
  m.create_po(m.get_constant(true));
  m.create_po(m.create_or(m.get_constant(false), a));  // collapses to a
  std::stringstream ss;
  write_blif(ss, m);
  const auto back = read_blif(ss);
  EXPECT_EQ(cec::check_equivalence(m, back).status, cec::CecStatus::equivalent);
}

TEST(BlifTest, ReadsForeignBlif) {
  // A hand-written BLIF with a 3-input table and don't-cares.
  const std::string text = R"(
# a comment
.model test
.inputs a b c
.outputs f g
.names a b t
11 1
.names t c f
1- 1
-1 1
.names a g
0 1
.end
)";
  std::stringstream ss(text);
  const auto m = read_blif(ss);
  ASSERT_EQ(m.num_pis(), 3u);
  ASSERT_EQ(m.num_pos(), 2u);
  const auto tts = mig::output_truth_tables(m);
  const auto ta = tt::TruthTable::projection(3, 0);
  const auto tb = tt::TruthTable::projection(3, 1);
  const auto tc = tt::TruthTable::projection(3, 2);
  EXPECT_EQ(tts[0], (ta & tb) | tc);
  EXPECT_EQ(tts[1], ~ta);
}

TEST(BlifTest, ReadsCrlfLineEndings) {
  // The same model as ReadsForeignBlif, exported with \r\n line endings and
  // a backslash continuation followed by a carriage return — the shape
  // Windows tools produce.
  const std::string text =
      ".model test\r\n"
      ".inputs a \\\r\n"
      "b c\r\n"
      ".outputs f\r\n"
      ".names a b t\r\n"
      "11 1\r\n"
      ".names t c f\r\n"
      "1- 1\r\n"
      "-1 1\r\n"
      ".end\r\n";
  std::stringstream ss(text);
  const auto m = read_blif(ss);
  ASSERT_EQ(m.num_pis(), 3u);
  ASSERT_EQ(m.num_pos(), 1u);
  const auto tts = mig::output_truth_tables(m);
  const auto ta = tt::TruthTable::projection(3, 0);
  const auto tb = tt::TruthTable::projection(3, 1);
  const auto tc = tt::TruthTable::projection(3, 2);
  EXPECT_EQ(tts[0], (ta & tb) | tc);
}

TEST(BlifTest, ContinuationDoesNotFuseTokens) {
  // "a\" + newline + "b" lists two signals, not one called "ab"; trailing
  // whitespace after the backslash must not defeat the continuation.
  const std::string text =
      ".model test\n"
      ".inputs a\\ \n"
      "b\n"
      ".outputs f\n"
      ".names a b f\n"
      "11 1\n"
      ".end\n";
  std::stringstream ss(text);
  const auto m = read_blif(ss);
  EXPECT_EQ(m.num_pis(), 2u);
}

TEST(BlifTest, ErrorsCarryLineNumbers) {
  const auto message_of = [](const std::string& text) {
    std::stringstream ss(text);
    try {
      read_blif(ss);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("(no error)");
  };
  EXPECT_NE(message_of(".model x\n.inputs a\n.outputs q\n.latch a q\n.end\n")
                .find("BLIF line 4"),
            std::string::npos);
  // Undriven output: the error points at the .outputs line that demands it.
  EXPECT_NE(message_of(".model x\n.inputs a\n.outputs q\n.end\n")
                .find("BLIF line 3"),
            std::string::npos);
  // Malformed cover row: attributed to the table's .names line.
  EXPECT_NE(message_of(".model x\n.inputs a b\n.outputs q\n.names a b q\n1 1\n.end\n")
                .find("BLIF line 4"),
            std::string::npos);
  EXPECT_NE(message_of(".model x\n.inputs a\n.outputs q\n.names a q\n1 1\n1\\\n"),
            "(no error)");
}

TEST(BlifTest, EveryRejectionCarriesCodeAndLine) {
  struct Case {
    const char* text;
    const char* expected;  ///< "BLIF line N: " plus the start of the reason
  };
  const Case cases[] = {
      {".model x\n.inputs a\n.outputs q\n.names\n.end\n",
       "BLIF line 4: .names without signals"},
      {".model x\n.inputs a b\n.outputs q\n.names a b q\n11 1 1\n.end\n",
       "BLIF line 4: trailing tokens in cover row of table 'q': 11 1 1"},
      {".model x\n.inputs a b\n.outputs q\n.names a b q\n111 1\n.end\n",
       "BLIF line 4: cover row width mismatch in table 'q': 111 1"},
      {".model x\n.inputs a b c d e\n.outputs q\n.names a b c d e q\n11111 1\n.end\n",
       "BLIF line 4: table with more than 4 inputs: q"},
      {".model x\n.inputs a\n.outputs q\n.names a p q\n11 1\n.names q p\n1 1\n.end\n",
       "BLIF line 4: combinational cycle through signal: q"},  // the table re-entered
      {".model x\n.inputs a\n.outputs q\n11 1\n.names a q\n1 1\n.end\n",
       "BLIF line 4: cover row outside .names"},
      {".model x\n.inputs a\n.outputs q\n.names a q\n1 1\n.end \\\n",
       "BLIF line 6: backslash continuation at end of file"},
  };
  for (const auto& c : cases) {
    try {
      read_blif(std::string_view(c.text));
      ADD_FAILURE() << "accepted: " << c.text;
    } catch (const api::Error& e) {
      EXPECT_EQ(e.code(), api::ErrorCode::invalid_network) << c.text;
      EXPECT_EQ(std::string(e.what()).rfind(c.expected, 0), 0u)
          << "got: " << e.what() << "\nwant: " << c.expected;
    }
  }
}

TEST(BlifTest, FileErrorsNameTheFile) {
  // Unique per process: concurrent suite runs (Debug + TSan trees on one
  // machine) must not race on a shared fixture file.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("mighty_io_bad_" + std::to_string(::getpid()) + ".blif"))
          .string();
  std::ofstream os(path);
  os << ".model x\n.inputs a\n.outputs q\n.end\n";
  os.close();
  try {
    read_blif_file(path);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("BLIF line"), std::string::npos);
  }
  std::filesystem::remove(path);
}

TEST(BlifTest, RejectsLatches) {
  std::stringstream ss(".model x\n.inputs a\n.outputs q\n.latch a q\n.end\n");
  EXPECT_THROW(read_blif(ss), std::runtime_error);
}

TEST(BlifTest, RejectsUndrivenSignal) {
  std::stringstream ss(".model x\n.inputs a\n.outputs q\n.end\n");
  EXPECT_THROW(read_blif(ss), std::runtime_error);
}

TEST(VerilogTest, EmitsStructuralMajority) {
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  m.create_po(!m.create_maj(a, b, c));
  std::stringstream ss;
  write_verilog(ss, m, "test_mod");
  const std::string v = ss.str();
  EXPECT_NE(v.find("module test_mod"), std::string::npos);
  EXPECT_NE(v.find("(x0 & x1) | (x0 & x2) | (x1 & x2)"), std::string::npos);
  EXPECT_NE(v.find("assign y0 = ~n"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
}

TEST(DotTest, EmitsGraph) {
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  m.create_po(m.create_and(a, !b));
  std::stringstream ss;
  write_dot(ss, m);
  const std::string d = ss.str();
  EXPECT_NE(d.find("digraph mig"), std::string::npos);
  EXPECT_NE(d.find("MAJ"), std::string::npos);
  EXPECT_NE(d.find("style=dashed"), std::string::npos);
}

TEST(BlifTest, FileRoundTrip) {
  const auto m = gen::make_adder_n(4);
  const std::string path = "/tmp/mighty_io_test.blif";
  write_blif_file(path, m);
  const auto back = read_blif_file(path);
  EXPECT_EQ(cec::check_equivalence(m, back).status, cec::CecStatus::equivalent);
}

// write_blif -> read_blif on the benchmark's starting points (generator
// output, depth-optimized): any change in resolution order or table
// decomposition moves the node count or the re-written bytes.
TEST(BlifPinTest, RoundTripMatchesRecordedValues) {
  struct Pin {
    const char* name;
    mig::Mig (*make)(uint32_t);
    uint32_t width;
    uint32_t num_nodes;
    uint64_t blif_hash;
  };
  const Pin pins[] = {
      {"adder", gen::make_adder_n, 8, 113, 10244378767897534332ull},
      {"multiplier", gen::make_multiplier_n, 4, 136, 436364781165268218ull},
      {"max", gen::make_max_n, 8, 498, 8554786631790861108ull},
      {"sine", gen::make_sine_n, 4, 223, 16813569376554190145ull},
  };
  for (const auto& pin : pins) {
    std::stringstream ss;
    write_blif(ss, algebra::depth_optimize(pin.make(pin.width)));
    const auto back = read_blif(ss);
    std::ostringstream again;
    write_blif(again, back);
    testutil::Fnv1a h;
    h.add(again.str());
    EXPECT_EQ(back.num_nodes(), pin.num_nodes) << pin.name << pin.width;
    EXPECT_EQ(h.value, pin.blif_hash) << pin.name << pin.width;
  }
}

}  // namespace
}  // namespace mighty::io

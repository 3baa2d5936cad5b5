// Reproduces Table II of the paper: complexity of 4-variable MIGs.  Three
// distributions over the 222 NPN classes:
//   C(f) combinational complexity (minimum gate count; from Table I's DB),
//   L(f) minimum formula length (function-space dynamic programming),
//   D(f) minimum depth (function-space depth table).
//
// Paper reference (classes / functions):
//   C: 2/10 2/80 5/640 18/3300 42/10352 117/40064 35/11058 1/32
//   L: 2/10 2/80 5/640 18/3300 37/9312 84/28680 63/22568 7/832 2/80 2/34
//   D: 2/10 2/80 48/10260 169/55184 1/2

#include "bench_util.hpp"
#include "exact/complexity.hpp"

using namespace mighty;

namespace {

void print_rows(const char* measure, const std::vector<exact::ComplexityRow>& rows) {
  printf("%-5s %8s %10s\n", measure, "Classes", "Functions");
  bench::print_rule(26);
  uint32_t classes = 0;
  uint64_t functions = 0;
  for (const auto& row : rows) {
    printf("%-5u %8u %10lu\n", row.value, row.classes,
           static_cast<unsigned long>(row.functions));
    classes += row.classes;
    functions += row.functions;
  }
  bench::print_rule(26);
  printf("%-5s %8u %10lu\n\n", "Sum", classes, static_cast<unsigned long>(functions));
}

}  // namespace

int main() {
  printf("Table II: complexity of 4-variable MIGs\n\n");
  const auto db = exact::Database::load_or_build(exact::default_database_path());

  bench::Stopwatch sw;
  const auto c_rows = exact::size_distribution(db);
  printf("C(f) computed in %.2fs (database cached)\n", sw.seconds());
  print_rows("C(f)", c_rows);

  sw.reset();
  const auto lengths = exact::compute_formula_lengths(4);
  const auto l_rows = exact::length_distribution(lengths);
  printf("L(f) computed in %.2fs (function-space DP over 65536 functions)\n",
         sw.seconds());
  print_rows("L(f)", l_rows);

  sw.reset();
  const auto d_rows = exact::depth_distribution();
  printf("D(f) computed in %.2fs (function-space depth table)\n", sw.seconds());
  print_rows("D(f)", d_rows);

  const bool c_ok = c_rows.size() == 8 && c_rows[7].classes == 1;
  const bool l_ok = l_rows.size() == 10 && l_rows[9].functions == 34;
  const bool d_ok = d_rows.size() == 5 && d_rows[4].classes == 1 &&
                    d_rows[4].functions == 2 && d_rows[2].classes == 48 &&
                    d_rows[3].classes == 169;
  printf("matches paper Table II: C %s, L %s, D %s\n", c_ok ? "yes" : "NO",
         l_ok ? "yes" : "NO", d_ok ? "yes" : "NO");
  return (c_ok && l_ok && d_ok) ? 0 : 1;
}

#include <ostream>

#include "io/io.hpp"

namespace mighty::io {

namespace {

std::string signal_expr(const mig::Mig& mig, mig::Signal s) {
  if (mig.is_constant(s.index())) {
    return s.is_complemented() ? "1'b1" : "1'b0";
  }
  // Built by append, not operator+(const char*, string&&): that overload
  // trips a GCC 12 -Wrestrict false positive.
  const bool pi = mig.is_pi(s.index());
  std::string expr = s.is_complemented() ? "~" : "";
  expr += pi ? 'x' : 'n';
  expr += std::to_string(pi ? mig.pi_index(s.index()) : s.index());
  return expr;
}

}  // namespace

void write_verilog(std::ostream& os, const mig::Mig& mig, const std::string& module_name) {
  os << "module " << module_name << "(";
  for (uint32_t i = 0; i < mig.num_pis(); ++i) os << "x" << i << ", ";
  for (uint32_t o = 0; o < mig.num_pos(); ++o) {
    os << "y" << o << (o + 1 < mig.num_pos() ? ", " : "");
  }
  os << ");\n";
  for (uint32_t i = 0; i < mig.num_pis(); ++i) os << "  input x" << i << ";\n";
  for (uint32_t o = 0; o < mig.num_pos(); ++o) os << "  output y" << o << ";\n";

  const auto live = mig.live_mask();
  for (uint32_t n = 0; n < mig.num_nodes(); ++n) {
    if (!live[n] || !mig.is_gate(n)) continue;
    os << "  wire n" << n << ";\n";
  }
  for (uint32_t n = 0; n < mig.num_nodes(); ++n) {
    if (!live[n] || !mig.is_gate(n)) continue;
    const auto& f = mig.fanins(n);
    const std::string a = signal_expr(mig, f[0]);
    const std::string b = signal_expr(mig, f[1]);
    const std::string c = signal_expr(mig, f[2]);
    os << "  assign n" << n << " = (" << a << " & " << b << ") | (" << a << " & " << c
       << ") | (" << b << " & " << c << ");\n";
  }
  for (uint32_t o = 0; o < mig.num_pos(); ++o) {
    os << "  assign y" << o << " = " << signal_expr(mig, mig.output(o)) << ";\n";
  }
  os << "endmodule\n";
}

}  // namespace mighty::io

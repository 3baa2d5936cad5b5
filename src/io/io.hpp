#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "mig/mig.hpp"

/// \file io.hpp
/// \brief Interchange formats: BLIF (read/write), structural Verilog (write)
/// and Graphviz DOT (write) for MIGs.
///
/// BLIF models every majority gate as a three-input `.names` table; the
/// reader accepts arbitrary single-output tables of up to four inputs and
/// rebuilds them through majority decompositions, so round-tripping and
/// importing foreign combinational BLIF both work.

namespace mighty::io {

void write_blif(std::ostream& os, const mig::Mig& mig,
                const std::string& model_name = "mig");
void write_blif_file(const std::string& path, const mig::Mig& mig,
                     const std::string& model_name = "mig");

/// Parses a combinational BLIF model.  Accepts CRLF line endings and
/// backslash line-continuations (as exported by common tools).  Throws
/// api::Error (invalid_network, a std::runtime_error) on unsupported
/// constructs (latches, tables over 4 inputs) and malformed input; messages
/// carry the offending line number.
mig::Mig read_blif(std::string_view text);
/// Reads the whole stream, then parses it as read_blif(std::string_view).
mig::Mig read_blif(std::istream& is);
/// Like read_blif; error messages are prefixed with `path`.
mig::Mig read_blif_file(const std::string& path);

void write_verilog(std::ostream& os, const mig::Mig& mig,
                   const std::string& module_name = "mig");

void write_dot(std::ostream& os, const mig::Mig& mig);

}  // namespace mighty::io

#pragma once

#include <string>
#include <vector>

/// \file compile_commands.hpp
/// \brief Translation-unit discovery from a CMake compilation database.
///
/// The top-level CMakeLists exports compile_commands.json on every configure
/// (CMAKE_EXPORT_COMPILE_COMMANDS ON), so mighty-lint, clang-tidy and
/// editors all share one database.  mighty-lint only needs the "file"
/// entries; this is a purpose-built extractor, not a JSON library — it
/// understands exactly the array-of-objects shape CMake emits.

namespace mighty::lint {

/// Returns the "file" values of `<build_dir>/compile_commands.json`.
/// Throws std::runtime_error when the file is missing or unreadable.
std::vector<std::string> compile_commands_files(const std::string& build_dir);

}  // namespace mighty::lint

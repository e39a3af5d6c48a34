// Minimal command-line parsing for the uavres CLI.
//
// Grammar: `uavres <command> [positional...] [--flag value | --flag]`.
// Kept dependency-free and testable; the CLI front-end (apps/uavres.cpp)
// maps parsed commands onto the library API.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace uavres::app {

/// A command-line value no reader accepts, or a flag the command does not
/// take. The CLI prints it and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Result of tokenizing argv.
struct CommandLine {
  std::string command;                         ///< first non-flag token
  std::vector<std::string> positionals;        ///< after the command
  std::map<std::string, std::string> flags;    ///< --key value / --key

  bool HasFlag(const std::string& name) const { return flags.contains(name); }

  /// Flag value as string; empty optional when absent.
  std::optional<std::string> Flag(const std::string& name) const;

  /// Flag parsed as a number, or `def` when absent. A value that is empty
  /// or does not parse in full (range included) throws UsageError.
  double FlagDouble(const std::string& name, double def) const;
  int FlagInt(const std::string& name, int def) const;
  std::uint64_t FlagUint64(const std::string& name, std::uint64_t def) const;

  /// `on|1` or `off|0`, and the bare flag means on; `def` when absent. Any
  /// other value throws UsageError.
  bool FlagOnOff(const std::string& name, bool def) const;

  /// The flag's value, which must be one of `words`; `words[0]` when absent.
  std::string FlagWord(const std::string& name,
                       std::initializer_list<std::string_view> words) const;

  /// Throws UsageError for a flag `synopsis` does not name, and for one it
  /// shows with a value (`--seed N`) that came without one. A value in
  /// brackets (`--recovery [on|off]`) may be left out; a flag shown alone
  /// (`[--oracle]`) takes no value.
  void CheckFlags(std::string_view synopsis) const;

  /// Positional by index with a default.
  std::string Positional(std::size_t index, const std::string& def = "") const;
};

/// Parse argv (excluding argv[0]). A token starting with "--" opens a flag;
/// if the next token is not itself a flag it becomes the value, else the
/// flag is boolean. Everything else is the command (first) or a positional.
CommandLine ParseCommandLine(const std::vector<std::string>& args);

/// `s` parsed in full as a double; throws UsageError naming `what` when it
/// is empty or does not parse.
double ParseDouble(const std::string& s, const std::string& what);

/// Comma-separated list of doubles ("2,5,10"); an empty or malformed cell
/// throws UsageError. The empty string is the empty list.
std::vector<double> ParseDoubleList(const std::string& csv);

}  // namespace uavres::app

// Configuration precedence (single source of truth for every command):
//
//   CLI flag  >  environment variable  >  built-in default
//
// Commands materialize this by starting from the defaults, layering
// environment overrides (CampaignConfig::FromEnvironment reads UAVRES_FAST /
// UAVRES_MISSIONS / UAVRES_THREADS / UAVRES_CACHE_DIR, warning once per
// set-but-ineffective variable), and finally applying parsed flags on top —
// typically through CampaignConfig::Builder, whose Build() validates the
// combined result. A flag the user passes therefore always wins over an
// environment variable, which always wins over a default; nothing else
// consults the environment.
#include "app/command_line.h"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <sstream>

namespace uavres::app {

namespace {

/// `s` parsed in full as a T; throws UsageError naming `what` otherwise.
template <class T>
T Parse(const std::string& s, const std::string& what, const char* kind) {
  T value{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (s.empty() || ec != std::errc{} || end != s.data() + s.size()) {
    throw UsageError(what + " expects " + kind + ", got '" + s + "'");
  }
  return value;
}

}  // namespace

std::optional<std::string> CommandLine::Flag(const std::string& name) const {
  const auto it = flags.find(name);
  if (it == flags.end()) return std::nullopt;
  return it->second;
}

double CommandLine::FlagDouble(const std::string& name, double def) const {
  const auto v = Flag(name);
  return v ? Parse<double>(*v, "--" + name, "a number") : def;
}

int CommandLine::FlagInt(const std::string& name, int def) const {
  const auto v = Flag(name);
  return v ? Parse<int>(*v, "--" + name, "an integer") : def;
}

std::uint64_t CommandLine::FlagUint64(const std::string& name, std::uint64_t def) const {
  const auto v = Flag(name);
  return v ? Parse<std::uint64_t>(*v, "--" + name, "a non-negative integer") : def;
}

bool CommandLine::FlagOnOff(const std::string& name, bool def) const {
  const auto v = Flag(name);
  if (!v) return def;
  if (v->empty() || *v == "on" || *v == "1") return true;
  if (*v == "off" || *v == "0") return false;
  throw UsageError("--" + name + " expects on|1 or off|0, got '" + *v + "'");
}

std::string CommandLine::FlagWord(const std::string& name,
                                  std::initializer_list<std::string_view> words) const {
  const auto v = Flag(name);
  if (!v) return std::string(*words.begin());
  if (std::find(words.begin(), words.end(), *v) != words.end()) return *v;
  std::string expected;
  for (std::string_view w : words) {
    if (!expected.empty()) expected += '|';
    expected += w;
  }
  throw UsageError("--" + name + " expects " + expected + ", got '" + *v + "'");
}

void CommandLine::CheckFlags(std::string_view synopsis) const {
  enum class Value { kNone, kOptional, kRequired };
  std::istringstream text{std::string(synopsis)};
  const std::vector<std::string> tokens{std::istream_iterator<std::string>(text), {}};
  std::map<std::string, Value, std::less<>> declared;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    std::string_view t = tokens[i];
    t.remove_prefix(std::min(t.find_first_not_of('['), t.size()));
    if (!t.starts_with("--")) continue;
    std::string_view name = t.substr(2);
    while (name.ends_with(']')) name.remove_suffix(1);
    const std::string_view next =
        i + 1 < tokens.size() ? std::string_view(tokens[i + 1]) : std::string_view("--");
    Value value = Value::kRequired;
    if (t.ends_with(']') || next.starts_with("--") || next == "|") {
      value = Value::kNone;
    } else if (next.starts_with('[')) {
      value = Value::kOptional;
    }
    declared.emplace(name, value);
  }
  for (const auto& [name, value] : flags) {
    const auto it = declared.find(name);
    if (it == declared.end()) throw UsageError("unknown flag --" + name);
    if (it->second == Value::kRequired && value.empty()) {
      throw UsageError("--" + name + " expects a value");
    }
    if (it->second == Value::kNone && !value.empty()) {
      throw UsageError("--" + name + " takes no value, got '" + value + "'");
    }
  }
}

std::string CommandLine::Positional(std::size_t index, const std::string& def) const {
  return index < positionals.size() ? positionals[index] : def;
}

CommandLine ParseCommandLine(const std::vector<std::string>& args) {
  CommandLine out;
  std::size_t i = 0;
  for (; i < args.size(); ++i) {
    const std::string& tok = args[i];
    if (tok.rfind("--", 0) == 0) {
      const std::string name = tok.substr(2);
      if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
        out.flags[name] = args[i + 1];
        ++i;
      } else {
        out.flags[name] = "";  // boolean flag
      }
    } else if (out.command.empty()) {
      out.command = tok;
    } else {
      out.positionals.push_back(tok);
    }
  }
  return out;
}

double ParseDouble(const std::string& s, const std::string& what) {
  return Parse<double>(s, what, "a number");
}

std::vector<double> ParseDoubleList(const std::string& csv) {
  std::vector<double> out;
  if (csv.empty()) return out;
  std::stringstream ss(csv + ",");  // the sentinel makes a trailing empty cell visible
  std::string cell;
  while (std::getline(ss, cell, ',')) out.push_back(ParseDouble(cell, "list cell"));
  return out;
}

}  // namespace uavres::app

#include "telemetry/binary_io.h"

#include <fstream>

namespace uavres::telemetry {

std::optional<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) return std::nullopt;
  const std::streamoff size = is.tellg();
  std::string bytes(size > 0 ? static_cast<std::size_t>(size) : 0, '\0');
  is.seekg(0);
  is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  bytes.resize(static_cast<std::size_t>(is.gcount()));
  return bytes;
}

}  // namespace uavres::telemetry

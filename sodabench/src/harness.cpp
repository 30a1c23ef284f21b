#include "harness.hpp"

#include <fstream>
#include <stdexcept>
#include <string>

#include "util/json_writer.hpp"

namespace sodabench {

double PeakRssMb() {
  // VmHWM is this process's own high-water mark. getrusage's ru_maxrss is
  // not: Linux carries the parent's peak across fork and exec, so under
  // run.py it would read at least the Python interpreter's footprint.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

bool Tracer::WriteJson(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& manifest) const {
  std::ofstream out(path);
  if (!out.good()) return false;
  soda::util::JsonWriter json(out);
  json.BeginObject();
  json.Key("manifest").BeginObject();
  for (const auto& [key, value] : manifest) json.Key(key).String(value);
  json.EndObject();
  json.Key("aggregates").BeginObject();
  for (const auto& [name, agg] : aggregates_) {
    json.Key(name).BeginObject();
    json.Key("count").Int(static_cast<std::int64_t>(agg.count));
    json.Key("ns").Int(agg.ns);
    json.EndObject();
  }
  json.EndObject();
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  json.Key("spans").BeginArray();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    json.BeginObject();
    json.Key("id").Int(static_cast<std::int64_t>(i));
    json.Key("name").String(span.name);
    json.Key("start_ns").Int(span.start_ns - origin);
    json.Key("end_ns").Int(span.end_ns - origin);
    json.Key("parent").Int(span.parent);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  out << '\n';
  return out.good();
}

}  // namespace sodabench

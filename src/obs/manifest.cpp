#include "obs/manifest.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "obs/trace_export.hpp"

namespace wormsched::obs {

namespace {

std::string fmt_number(double v) {
  char buf[64];
  if (std::nearbyint(v) == v && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.6g", v);
  }
  return buf;
}

}  // namespace

std::string current_git_sha() {
  const char* env = std::getenv("WORMSCHED_GIT_SHA");
  if (env != nullptr && *env != '\0') return env;
  // Starting git costs milliseconds and a checkpoint save asks twice, so
  // the answer is resolved once per process.
  static const std::string resolved = [] {
    FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r");
    if (pipe == nullptr) return std::string("unknown");
    char buf[128] = {};
    std::string sha;
    if (std::fgets(buf, sizeof buf, pipe) != nullptr) sha = buf;
    ::pclose(pipe);
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
      sha.pop_back();
    return sha.empty() ? std::string("unknown") : sha;
  }();
  return resolved;
}

void RunManifest::write(std::ostream& os) const {
  os << "{\n";
  os << "  \"schema\": \"wormsched-manifest-v1\",\n";
  os << "  \"tool\": \"" << json_escape(tool) << "\",\n";
  os << "  \"git_sha\": \"" << json_escape(git_sha) << "\",\n";
  os << "  \"seed\": " << seed << ",\n";
  os << "  \"config\": {";
  bool first = true;
  for (const auto& [key, value] : config) {
    if (!first) os << ",";
    first = false;
    os << "\n    \"" << json_escape(key) << "\": \"" << json_escape(value)
       << "\"";
  }
  os << (config.empty() ? "" : "\n  ") << "},\n";
  os << "  \"counters\": {";
  first = true;
  for (const auto& [key, value] : counters) {
    if (!first) os << ",";
    first = false;
    os << "\n    \"" << json_escape(key) << "\": " << fmt_number(value);
  }
  os << (counters.empty() ? "" : "\n  ") << "},\n";
  os << "  \"violations\": " << violations << ",\n";
  if (trace_path.empty()) {
    os << "  \"trace\": null\n";
  } else {
    os << "  \"trace\": {\"path\": \"" << json_escape(trace_path)
       << "\", \"recorded\": " << trace_recorded
       << ", \"dropped\": " << trace_dropped << "}\n";
  }
  os << "}\n";
}

void RunManifest::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  write(out);
}

}  // namespace wormsched::obs

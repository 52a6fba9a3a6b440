#include "benchsupport/json_report.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace spi::bench {

namespace {

std::string escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  for (char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void JsonObject::set(std::string key, double value) {
  // JSON has no NaN/Inf; a bench with no samples reports null.
  char buf[64];
  if (std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), "%.6g", value);
  } else {
    std::snprintf(buf, sizeof(buf), "null");
  }
  fields_.emplace_back(std::move(key), buf);
}

void JsonObject::set(std::string key, std::int64_t value) {
  fields_.emplace_back(std::move(key), std::to_string(value));
}

void JsonObject::set(std::string key, std::string value) {
  std::string quoted = "\"";
  quoted += escape(value);
  quoted += '"';
  fields_.emplace_back(std::move(key), std::move(quoted));
}

std::string JsonObject::encode() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += escape(fields_[i].first);
    out += "\": ";
    out += fields_[i].second;
  }
  out += "}";
  return out;
}

JsonReport::JsonReport(std::string name) : name_(std::move(name)) {
  top_.set("bench", name_);
}

JsonObject& JsonReport::add_row() { return rows_.emplace_back(); }

std::string JsonReport::write() const {
  std::string directory = ".";
  if (const char* env = std::getenv("SPI_BENCH_JSON_DIR")) {
    if (*env != '\0') directory = env;
  }
  const std::string path = directory + "/BENCH_" + name_ + ".json";

  // Re-encode the top object with the rows array appended.
  std::string body = top_.encode();
  body.pop_back();  // trailing '}'
  body += ", \"rows\": [";
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (i > 0) body += ", ";
    body += rows_[i].encode();
  }
  body += "]}\n";

  std::ofstream out(path, std::ios::trunc);
  out << body;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    return {};
  }
  return path;
}

}  // namespace spi::bench

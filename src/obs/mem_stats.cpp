#include "obs/mem_stats.hpp"

#include <cstdio>
#include <string>

namespace marcopolo::obs {

std::optional<std::uint64_t> parse_proc_status_kb(
    std::string_view status_text, std::string_view key) {
  // Lines look like "VmRSS:      1234 kB". Match the key at line start
  // only, so e.g. "RssAnon" never matches a search for "Rss".
  std::size_t pos = 0;
  while (pos < status_text.size()) {
    std::size_t eol = status_text.find('\n', pos);
    if (eol == std::string_view::npos) eol = status_text.size();
    std::string_view line = status_text.substr(pos, eol - pos);
    if (line.size() > key.size() && line.substr(0, key.size()) == key &&
        line[key.size()] == ':') {
      std::string_view rest = line.substr(key.size() + 1);
      std::size_t i = 0;
      while (i < rest.size() && (rest[i] == ' ' || rest[i] == '\t')) ++i;
      std::uint64_t value = 0;
      bool any = false;
      while (i < rest.size() && rest[i] >= '0' && rest[i] <= '9') {
        value = value * 10 + static_cast<std::uint64_t>(rest[i] - '0');
        any = true;
        ++i;
      }
      if (any) return value;
      return std::nullopt;
    }
    pos = eol + 1;
  }
  return std::nullopt;
}

MemorySample read_memory_sample() {
  MemorySample sample;
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return sample;
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  auto rss = parse_proc_status_kb(text, "VmRSS");
  auto hwm = parse_proc_status_kb(text, "VmHWM");
  if (!rss || !hwm) return sample;
  sample.rss_kb = *rss;
  sample.peak_rss_kb = *hwm;
  sample.valid = true;
  return sample;
}

}  // namespace marcopolo::obs

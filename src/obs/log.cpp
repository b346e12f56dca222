#include "obs/log.hpp"

#include <chrono>
#include <cstdio>
#include <ctime>

#include <algorithm>

namespace marcopolo::obs {

namespace {

/// Render the live line: leading \r, left-justified and padded to blank
/// a longer predecessor, newline only on the final update. Caller holds
/// the guard mutex.
void render_live(std::FILE* out, std::string_view line, int* last_len,
                 bool final) {
  const int len = static_cast<int>(line.size());
  const int width = std::max(len, *last_len);
  *last_len = final ? 0 : len;
  std::fprintf(out, "\r%-*.*s%s", width, len, line.data(), final ? "\n" : "");
  std::fflush(out);
}

}  // namespace

void LineGuard::live_line(std::string_view line, bool final) {
  std::scoped_lock lock(mutex_);
  render_live(out_, line, &last_len_, final);
  live_ = final ? std::string() : std::string(line);
}

void LineGuard::println(std::string_view text) {
  std::scoped_lock lock(mutex_);
  if (last_len_ > 0) {
    // Blank the live line so the log line starts at column 0 instead of
    // splicing mid-line, then return the cursor for the write below.
    std::fprintf(out_, "\r%-*s\r", last_len_, "");
    last_len_ = 0;
  }
  std::fprintf(out_, "%.*s\n", static_cast<int>(text.size()), text.data());
  if (!live_.empty()) render_live(out_, live_, &last_len_, /*final=*/false);
  std::fflush(out_);
}

void LineGuard::finish_live_line() {
  std::scoped_lock lock(mutex_);
  if (live_.empty()) {
    last_len_ = 0;
    return;
  }
  std::string line = std::move(live_);
  live_.clear();
  render_live(out_, line, &last_len_, /*final=*/true);
}

LineGuard& LineGuard::stderr_guard() {
  static LineGuard instance(stderr);
  return instance;
}

Logger& Logger::global() {
  static Logger instance;
  return instance;
}

void Logger::set_stderr_sink(LogLevel level, bool timestamps) {
  set_level(level);
  // Both sinks format the whole line into a buffer and hand it to the
  // shared stderr LineGuard, so log lines scroll cleanly above a live
  // status line instead of corrupting it.
  if (!timestamps) {
    set_sink([](LogLevel lvl, std::string_view message) {
      char buf[512];
      const int len =
          std::snprintf(buf, sizeof buf, "[%s] %.*s", to_cstring(lvl),
                        static_cast<int>(message.size()), message.data());
      if (len < 0) return;
      LineGuard::stderr_guard().println(
          std::string_view(buf, std::min<std::size_t>(
                                    static_cast<std::size_t>(len),
                                    sizeof buf - 1)));
    });
    return;
  }
  set_sink([](LogLevel lvl, std::string_view message) {
    const auto now = std::chrono::system_clock::now();
    const std::time_t secs = std::chrono::system_clock::to_time_t(now);
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        now.time_since_epoch())
                        .count() %
                    1000;
    std::tm tm{};
#if defined(_WIN32)
    localtime_s(&tm, &secs);
#else
    localtime_r(&secs, &tm);
#endif
    char buf[512];
    const int len = std::snprintf(
        buf, sizeof buf, "%02d:%02d:%02d.%03d [%s] %.*s", tm.tm_hour,
        tm.tm_min, tm.tm_sec, static_cast<int>(ms), to_cstring(lvl),
        static_cast<int>(message.size()), message.data());
    if (len < 0) return;
    LineGuard::stderr_guard().println(
        std::string_view(buf, std::min<std::size_t>(
                                  static_cast<std::size_t>(len),
                                  sizeof buf - 1)));
  });
}

}  // namespace marcopolo::obs

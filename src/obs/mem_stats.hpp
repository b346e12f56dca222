// Process memory accounting: RSS snapshots from /proc/self/status.
//
// The campaign's memory story is phase-shaped — the 50k-AS testbed build
// allocates a path arena the delta-replay phase then mutates in place —
// so consumers report memory per phase, not per process: the
// campaign_wallclock bench samples at each gated phase's entry and exit
// and reports the RSS delta plus the process peak (VmHWM high-water,
// which only the kernel tracks reliably across frees); the telemetry hub
// samples once per tick, and perfbench reads the peak for `peak_rss_mb`.
//
// Sampling reads /proc/self/status, one syscall + a short parse (~5µs):
// cheap enough for bench phases and ticks, far too hot for per-task
// scopes — the campaign workers never sample memory.
//
// When /proc is absent (non-Linux, restricted mounts) samples come back
// `valid == false` and every consumer renders the fields as unavailable;
// nothing throws and nothing changes behavior — the same off/unavailable
// contract as the flight recorder.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace marcopolo::obs {

/// One point-in-time memory reading.
struct MemorySample {
  std::uint64_t rss_kb = 0;       ///< VmRSS: resident set right now.
  std::uint64_t peak_rss_kb = 0;  ///< VmHWM: process-lifetime high-water.
  bool valid = false;             ///< False when /proc/self/status is absent.
};

/// Read VmRSS/VmHWM from /proc/self/status. Never throws; an unreadable
/// or unparsable file yields an invalid (all-zero) sample.
[[nodiscard]] MemorySample read_memory_sample();

/// Extract the kB value of one `Key:  <n> kB` line from /proc/self/status
/// text. Exposed for tests (the parser must not depend on a live /proc).
[[nodiscard]] std::optional<std::uint64_t> parse_proc_status_kb(
    std::string_view status_text, std::string_view key);

}  // namespace marcopolo::obs

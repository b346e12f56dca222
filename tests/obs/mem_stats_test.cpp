// mem_stats: the /proc/self/status parser and the live RSS sample that
// bench phase rows, telemetry ticks and perfbench's peak_rss_mb read.
#include "obs/mem_stats.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>

namespace marcopolo::obs {
namespace {

TEST(MemStats, ParsesProcStatusFields) {
  const std::string status =
      "Name:\tcampaign_wallcl\n"
      "VmPeak:\t  123456 kB\n"
      "VmRSS:\t   65536 kB\n"
      "VmHWM:\t  100000 kB\n"
      "NotVmRSS:\t 999 kB\n";
  EXPECT_EQ(parse_proc_status_kb(status, "VmRSS"),
            std::optional<std::uint64_t>{65'536});
  EXPECT_EQ(parse_proc_status_kb(status, "VmHWM"),
            std::optional<std::uint64_t>{100'000});
  EXPECT_EQ(parse_proc_status_kb(status, "VmPeak"),
            std::optional<std::uint64_t>{123'456});
  // A missing key is nullopt, not zero — and "NotVmRSS" must not match a
  // "VmRSS" lookup (keys anchor at line starts).
  EXPECT_EQ(parse_proc_status_kb(status, "VmSwap"), std::nullopt);
  EXPECT_EQ(parse_proc_status_kb("", "VmRSS"), std::nullopt);
}

TEST(MemStats, ReadsLiveProcessMemory) {
  const MemorySample sample = read_memory_sample();
#if defined(__linux__)
  ASSERT_TRUE(sample.valid);
  EXPECT_GT(sample.rss_kb, 0u);
  // The high-water mark can never sit below current RSS.
  EXPECT_GE(sample.peak_rss_kb, sample.rss_kb);
#else
  (void)sample;
#endif
}

}  // namespace
}  // namespace marcopolo::obs

// obs::parse_session_args: every accepted form of the shared observer
// flags parses, and every malformed value is an error (the binaries print
// it with their usage and exit 2) instead of a silently different run —
// a wrapped port, a kernel-assigned port for "abc", a truncated rate.
#include "obs/session.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

namespace marcopolo::obs {
namespace {

SessionArgs parse(const std::vector<std::string>& args,
                  unsigned accepted = kAllSessionFlags) {
  std::vector<const char*> argv{"tool"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  return parse_session_args(static_cast<int>(argv.size()), argv.data(),
                            accepted);
}

auto fields(const SessionOptions& o) {
  return std::tie(o.metrics_out, o.trace_out, o.progress, o.verbose,
                  o.profile_hz, o.telemetry_out, o.serve_port, o.tick_ms);
}

TEST(SessionArgs, ParsesEveryValidForm) {
  const auto with = [](auto set) {
    SessionOptions o;
    set(o);
    return o;
  };
  const struct {
    std::vector<std::string> args;
    SessionOptions want;
  } cases[] = {
      {{}, SessionOptions{}},
      {{"--metrics-out", "m.json"},
       with([](SessionOptions& o) { o.metrics_out = "m.json"; })},
      {{"--trace-out", "bundle"},
       with([](SessionOptions& o) { o.trace_out = "bundle"; })},
      {{"--progress"}, with([](SessionOptions& o) { o.progress = true; })},
      {{"--verbose"}, with([](SessionOptions& o) { o.verbose = true; })},
      {{"--profile"},
       with([](SessionOptions& o) { o.profile_hz = kDefaultProfileHz; })},
      {{"--profile=250"}, with([](SessionOptions& o) { o.profile_hz = 250; })},
      {{"--telemetry-out", "ts.ndjson"},
       with([](SessionOptions& o) { o.telemetry_out = "ts.ndjson"; })},
      {{"--serve-metrics", "0"},
       with([](SessionOptions& o) { o.serve_port = 0; })},
      {{"--serve-metrics", "65535"},
       with([](SessionOptions& o) { o.serve_port = 65535; })},
      {{"--tick-ms", "20"}, with([](SessionOptions& o) { o.tick_ms = 20; })},
  };
  for (const auto& c : cases) {
    const SessionArgs got = parse(c.args);
    const std::string label = c.args.empty() ? "(none)" : c.args.front();
    EXPECT_EQ(got.error, "") << label;
    EXPECT_TRUE(fields(got.options) == fields(c.want)) << label;
    EXPECT_TRUE(got.rest.empty()) << label;
  }
}

TEST(SessionArgs, LeavesOtherArgumentsInOrder) {
  const SessionArgs got = parse(
      {"--attacks", "all", "--progress", "out.json", "--tick-ms", "5", "4"});
  EXPECT_EQ(got.error, "");
  EXPECT_TRUE(got.options.progress);
  EXPECT_EQ(got.options.tick_ms, 5);
  EXPECT_EQ(got.rest,
            (std::vector<std::string>{"--attacks", "all", "out.json", "4"}));
}

TEST(SessionArgs, RejectsMalformedAndUnacceptedFlags) {
  const struct {
    std::vector<std::string> args;
    unsigned accepted;
    const char* flag;  ///< The error must name it.
  } cases[] = {
      {{"--serve-metrics", "70000"}, kAllSessionFlags, "--serve-metrics"},
      {{"--serve-metrics", "abc"}, kAllSessionFlags, "--serve-metrics"},
      {{"--serve-metrics", "-7"}, kAllSessionFlags, "--serve-metrics"},
      {{"--serve-metrics", "80 "}, kAllSessionFlags, "--serve-metrics"},
      {{"--profile=5x"}, kAllSessionFlags, "--profile"},
      {{"--profile=0"}, kAllSessionFlags, "--profile"},
      {{"--profile="}, kAllSessionFlags, "--profile"},
      {{"--tick-ms", "20ms"}, kAllSessionFlags, "--tick-ms"},
      {{"--tick-ms", "0"}, kAllSessionFlags, "--tick-ms"},
      {{"--tick-ms", "-5"}, kAllSessionFlags, "--tick-ms"},
      {{"--trace-out"}, kAllSessionFlags, "--trace-out"},
      {{"--serve-metrics"}, kAllSessionFlags, "--serve-metrics"},
      {{"--metrics-out", "m.json"}, kTraceOutFlag | kProfileFlag,
       "--metrics-out"},
      {{"--progress"}, kAllSessionFlags & ~kProgressFlag, "--progress"},
  };
  for (const auto& c : cases) {
    const SessionArgs got = parse(c.args, c.accepted);
    const std::string label =
        c.args.front() + (c.args.size() > 1 ? " " + c.args[1] : "");
    EXPECT_NE(got.error.find(c.flag), std::string::npos)
        << label << " -> \"" << got.error << "\"";
  }
}

TEST(SessionArgs, UsageListsOnlyAcceptedFlags) {
  EXPECT_EQ(session_usage(kTraceOutFlag | kProfileFlag),
            "[--trace-out <dir>] [--profile[=hz]]");
  const std::string all = session_usage(kAllSessionFlags);
  for (const char* flag :
       {"--metrics-out", "--trace-out", "--progress", "--verbose",
        "--profile", "--telemetry-out", "--serve-metrics", "--tick-ms"}) {
    EXPECT_NE(all.find(flag), std::string::npos) << flag;
  }
}

}  // namespace
}  // namespace marcopolo::obs

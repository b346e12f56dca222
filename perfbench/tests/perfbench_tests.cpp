// Unit tests for the benchmark's own logic: span self time, the tail
// rule, metric naming, the seed -> inputs mapping, and the traced
// campaign driver's equivalence with run_fast_campaign.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "bgp/attack_model.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

Span make_span(SpanId id, SpanId parent, std::uint64_t start,
               std::uint64_t end) {
  return Span{id, parent, 0, 1, start, end};
}

TEST(SelfTime, NestedChildrenSubtractOnlyDirectChildren) {
  const std::vector<Span> spans = {
      make_span(1, kNoSpan, 0, 100),
      make_span(2, 1, 10, 40),
      make_span(3, 2, 20, 30),
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 70u);
  EXPECT_EQ(self[1], 20u);
  EXPECT_EQ(self[2], 10u);
}

TEST(SelfTime, OverlappingChildrenCountTheirUnionOnce) {
  // Two worker lanes under one job span: [10,50) and [30,70) overlap, so
  // they cover 60 of the parent's 100, not 80.
  const std::vector<Span> spans = {
      make_span(1, kNoSpan, 0, 100),
      make_span((SpanId{1} << 32) | 0, 1, 10, 50),
      make_span((SpanId{2} << 32) | 0, 1, 30, 70),
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 40u);
  EXPECT_EQ(self[1], 40u);
  EXPECT_EQ(self[2], 40u);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  const std::vector<Span> spans = {
      make_span(1, kNoSpan, 0, 100),
      make_span(2, 1, 90, 120),
      make_span(3, 1, 95, 99),  // inside the first child's interval
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 90u);
}

TEST(SelfTime, LaneRecordsParentsAndJobs) {
  Tracer tracer(2);
  const std::uint32_t outer = tracer.intern("job");
  const std::uint32_t inner = tracer.intern("bgp.baseline");
  EXPECT_EQ(tracer.intern("job"), outer);
  Lane& main = tracer.lane(0);
  main.set_job(7);
  SpanId job_id = kNoSpan;
  {
    const ScopedSpan job(main, outer);
    job_id = job.id();
    Lane& worker = tracer.lane(1);
    worker.set_job(main.job());
    worker.set_root_parent(main.current());
    const ScopedSpan child(worker, inner);
  }
  const std::vector<Span> spans = tracer.drain();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].id, job_id);
  EXPECT_EQ(spans[0].parent, kNoSpan);
  EXPECT_EQ(spans[1].parent, job_id);
  EXPECT_EQ(spans[1].job, 7u);
  EXPECT_GE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_LE(spans[1].end_ns, spans[0].end_ns);
  EXPECT_TRUE(tracer.drain().empty());
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Tail, OmittedBelowTwentySamples) {
  EXPECT_FALSE(tail_stat(one_to(19)).has_value());
  EXPECT_FALSE(tail_stat({}).has_value());
  LogHistogram h;
  for (int i = 0; i < 19; ++i) h.add(100);
  EXPECT_FALSE(h.tail().has_value());
}

TEST(Tail, KeepsTenSamplesBeyondAndReportsTheCount) {
  const auto twenty = tail_stat(one_to(20));
  ASSERT_TRUE(twenty.has_value());
  EXPECT_EQ(twenty->value, 10.0);  // 11..20 lie beyond it
  EXPECT_EQ(twenty->percentile, 50.0);
  EXPECT_EQ(twenty->samples, 20u);

  const auto many = tail_stat(one_to(200));
  ASSERT_TRUE(many.has_value());
  EXPECT_EQ(many->value, 190.0);
  EXPECT_EQ(many->percentile, 95.0);
  EXPECT_EQ(many->samples, 200u);
}

TEST(Tail, HistogramAppliesTheSameRule) {
  LogHistogram h;
  for (std::uint64_t v = 1; v <= 40; ++v) h.add(v);
  const auto tail = h.tail();
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->value, 30.0);  // exact buckets below 64 ns
  EXPECT_EQ(tail->percentile, 75.0);
  EXPECT_EQ(tail->samples, 40u);
  EXPECT_EQ(h.median(), 20.0);
}

TEST(Histogram, BucketsStayWithinTwoPercent) {
  for (const std::uint64_t v :
       {std::uint64_t{63}, std::uint64_t{64}, std::uint64_t{1000},
        std::uint64_t{123456}, std::uint64_t{987654321}}) {
    const double mid = LogHistogram::bucket_mid(LogHistogram::bucket_of(v));
    EXPECT_LE(std::abs(mid - static_cast<double>(v)) / static_cast<double>(v),
              0.016)
        << v;
  }
}

TEST(Stats, MedianUsesTheEvenRule) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Stats, JobTimeAveragesTheDrawsFastestJobs) {
  EXPECT_EQ(draw_job_s({one_to(10), {4.0, 5.0, 6.0}}), 2.5);
  EXPECT_EQ(draw_job_s({}), 0.0);
  EndToEndInputs in;
  in.job_s = {{2.0, 3.0}, {4.0}};
  in.work_per_job = {10.0, 20.0};
  const auto m = end_to_end_metrics(in);
  EXPECT_EQ(m[0].name, "job_s");
  EXPECT_EQ(m[0].value, 3.0);
  EXPECT_EQ(m[2].name, "work_per_s");
  EXPECT_EQ(m[2].value, 5.0);  // 30 units per 6 s pass over the draws
}

TEST(Names, EveryEmittedNameIsValid) {
  std::vector<std::string> names;
  for (const Metric& m : end_to_end_metrics(EndToEndInputs{})) {
    names.push_back(m.name);
  }
  for (const Metric& m : per_layer_metrics(LayerInputs{})) {
    names.push_back(m.name);
  }
  Tracer tracer(1);
  const TraceNames spans(tracer);
  for (std::uint32_t i = 0; i < tracer.name_count(); ++i) {
    names.push_back(tracer.name(i));
  }
  for (const Workload w : kWorkloads) names.emplace_back(workload_name(w));
  std::set<std::string> seen;
  for (const std::string& n : names) {
    EXPECT_TRUE(valid_metric_name(n)) << n;
    seen.insert(n);
  }
  EXPECT_EQ(seen.size(), names.size()) << "a name is emitted twice";
}

TEST(Names, RejectsNamesOutsideTheAlphabet) {
  EXPECT_TRUE(valid_metric_name("bgp.replay_s.sub-prefix"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/name"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(Json, ResultLineHasExactlyTheContractKeys) {
  const std::string line =
      result_json(true, 3, 0, {{"job_s", 0.25, "s"}, {"n", 7.0, "count"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"job_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"n\": {\"value\": "
            "7, \"unit\": \"count\"}}}");
  EXPECT_EQ(format_number(std::nan("")), "0");
}

std::uint64_t campaign_digest(std::uint64_t seed, std::uint64_t* ases) {
  const SeededInputs in = seeded_inputs(seed);
  const core::Testbed testbed(testbed_config(Workload::PaperDefault, in));
  *ases = testbed.internet().graph().size();
  const CampaignSpec spec{{bgp::AttackType::EquallySpecific},
                          in.tie_break_seed, 1};
  return store_digest(core::run_fast_campaign(testbed, fast_config(spec)));
}

TEST(Seeds, SameSeedSameInputsDifferentSeedDifferentDigest) {
  const SeededInputs a = seeded_inputs(11);
  const SeededInputs b = seeded_inputs(11);
  EXPECT_EQ(a.internet_seed, b.internet_seed);
  EXPECT_EQ(a.vultr_seed, b.vultr_seed);
  EXPECT_EQ(a.tie_break_seed, b.tie_break_seed);
  EXPECT_NE(seeded_inputs(12).internet_seed, a.internet_seed);
  EXPECT_NE(seeded_inputs(11, 1).internet_seed, a.internet_seed);
  EXPECT_EQ(seeded_inputs(11, 1).vultr_seed, seeded_inputs(11, 1).vultr_seed);

  std::uint64_t ases1 = 0;
  std::uint64_t ases1_again = 0;
  std::uint64_t ases2 = 0;
  const std::uint64_t d1 = campaign_digest(11, &ases1);
  const std::uint64_t d1_again = campaign_digest(11, &ases1_again);
  const std::uint64_t d2 = campaign_digest(12, &ases2);
  EXPECT_EQ(ases1, ases1_again);
  EXPECT_GT(ases1, 0u);
  EXPECT_EQ(d1, d1_again);
  EXPECT_NE(d1, d2);
}

TEST(TracedCampaign, MatchesRunFastCampaignByteForByte) {
  // Every attack type, two workers: the traced re-drive must write the
  // same CSV (diagonal included) as the public call and count its calls.
  const SeededInputs in = seeded_inputs(5);
  const core::Testbed testbed(testbed_config(Workload::PaperDefault, in));
  const auto all = bgp::all_attack_types();
  const CampaignSpec spec{std::vector<bgp::AttackType>(all.begin(), all.end()),
                          in.tie_break_seed, 2};
  Tracer tracer(3);
  const TraceNames names(tracer);
  std::vector<LaneCounters> counters(3);
  tracer.lane(0).set_job(1);
  core::ResultStore traced;
  {
    const ScopedSpan job(tracer.lane(0), names.job);
    traced = traced_campaign(testbed, spec, tracer, names, counters);
  }
  const core::ResultStore expected =
      core::run_fast_campaign(testbed, fast_config(spec));
  EXPECT_EQ(store_csv(traced), store_csv(expected));

  LaneCounters total;
  for (const LaneCounters& c : counters) total.merge(c);
  const std::uint64_t n = testbed.sites().size();
  const std::uint64_t p = testbed.perspectives().size();
  EXPECT_EQ(total.baseline_calls, n);
  for (const bgp::AttackType t : all) {
    EXPECT_EQ(total.replay_calls[static_cast<std::size_t>(t)], n * (n - 1));
  }
  EXPECT_EQ(total.classify_calls, n * (n - 1) * all.size() * p);
  EXPECT_EQ(total.rows, total.classify_calls);
  // Per-call latency is sampled: one attack in 8 per worker is timed.
  EXPECT_GE(total.classify_ns.count(), total.classify_calls / 8);
  EXPECT_LT(total.classify_ns.count(), total.classify_calls / 4);

  const JobTrace job = fold_job(tracer.drain(), tracer);
  EXPECT_GT(job.wall_s, 0.0);
  EXPECT_GT(job.layer_s, 0.0);
  EXPECT_LE(job.layer_s, job.thread_s);
  EXPECT_GE(job.task_imbalance, 1.0);
  EXPECT_GT(job.self_s.at("bgp.replay.sub-prefix"), 0.0);
}

}  // namespace
}  // namespace perfbench

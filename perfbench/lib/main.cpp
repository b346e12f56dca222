// mpbench: closed-loop batch driver for one MarcoPolo workload.
//
//   mpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--spans-out <file>]
//
// One client runs jobs back to back, each one public-API call a user
// would make, until --seconds have elapsed (at least one job). Inputs
// derive from --seed only. With --trace 0 the jobs run untraced and the
// end-to-end metrics are reported. With --trace 1 every untraced job is
// followed by the same job re-driven with spans around every call into a
// library module (the untraced one is the reference for trace overhead and
// for the traced stores); the per-layer metrics are reported. Every metric
// is printed by name with its unit; the last stdout line is one JSON
// object. Any failed check makes the exit code 1.
#include <charconv>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "obs/mem_stats.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

/// Writer timings (save_csv / save_binary) are the median of this many.
constexpr std::size_t kWriterReps = 3;

struct Args {
  Workload workload = Workload::PaperDefault;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_out;
};

bool parse_u64(const char* s, std::uint64_t& out) {
  const char* end = s + std::strlen(s);
  const auto res = std::from_chars(s, end, out);
  return res.ec == std::errc() && res.ptr == end;
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      const auto w = workload_from_name(value);
      if (!w) return std::nullopt;
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed" && parse_u64(value, n)) {
      args.seed = n;
      have_seed = true;
    } else if (flag == "--seconds" && parse_u64(value, n) && n > 0) {
      args.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace" && parse_u64(value, n) && n <= 1) {
      args.trace = n == 1;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds) {
    return std::nullopt;
  }
  return args;
}

double elapsed_s(std::uint64_t since) {
  return static_cast<double>(now_ns() - since) * 1e-9;
}

void print_metric(const char* kind, const Metric& m, const std::string& note = {}) {
  std::cout << kind << "  " << std::left << std::setw(36) << m.name << ' '
            << std::setw(14) << format_number(m.value) << ' ' << m.unit;
  if (!note.empty()) std::cout << "  (" << note << ')';
  std::cout << '\n';
}

std::string fixed(double v, int digits) {
  std::ostringstream s;
  s << std::fixed << std::setprecision(digits) << v;
  return s.str();
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = parse_args(argc, argv);
  if (!parsed) {
    std::cerr << "usage: mpbench --workload <paper_default|internet_50k_sweep|"
                 "deploy_search> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans-out <file>]\n";
    return 2;
  }
  const Args& args = *parsed;
  try {
    std::unique_ptr<WorkloadRunner> runner = make_runner(args.workload, args.seed);
    const SetupTiming setup = runner->setup();
    runner->prepare_oracle();
#if defined(__GLIBC__)
    // Hand the oracle's freed heap back to the kernel, so that peak_rss_mb
    // is set by the jobs rather than by how the oracle fragmented the heap
    // (which varied by ~10 MB from seed to seed on the 50k-AS testbed).
    malloc_trim(0);
#endif
    // Setup and the oracle may have set a higher VmHWM than the jobs ever
    // reach; reset the high-water mark to the current RSS (Linux), so the
    // peak read at exit belongs to the jobs.
    std::ofstream("/proc/self/clear_refs") << "5";

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    const auto record = [&](const JobResult& r, std::vector<double>& times) {
      ++attempted;
      if (r.ok) {
        times.push_back(r.seconds);
      } else if (++failed == 1) {
        std::cerr << "mpbench: job " << attempted << " failed: " << r.failure
                  << '\n';
      }
    };

    // Closed loop: the next job starts when the previous one (and its
    // untimed checks) completed. Jobs cycle through the workload's draws,
    // and a run always ends on a whole cycle. A traced run alternates an
    // untraced and a traced job on each draw, so both see the same host
    // conditions and their difference is the trace overhead.
    const std::size_t draws = runner->draws();
    const std::size_t threads = runner->worker_threads();
    Tracer tracer(threads == 1 ? 1 : threads + 1);
    const TraceNames names(tracer);
    std::vector<LaneCounters> counters(tracer.lane_count());
    TraceContext ctx{tracer, names, counters};
    LayerInputs layer_in;
    std::vector<std::vector<double>> job_s(draws);
    std::vector<double> traced_s;
    std::vector<Span> first_spans;
    const std::uint64_t start = now_ns();
    std::uint32_t cycle_job = 0;
    do {
      const std::size_t draw = cycle_job++ % draws;
      record(runner->run_job(draw), job_s[draw]);
      if (!args.trace) continue;
      tracer.lane(0).set_job(cycle_job);
      const JobResult r = runner->run_traced_job(ctx, draw);
      std::vector<Span> spans = tracer.drain();
      record(r, traced_s);
      layer_in.jobs.push_back(fold_job(spans, tracer));
      layer_in.jobs.back().draw = draw;
      if (first_spans.empty()) first_spans = std::move(spans);
    } while (elapsed_s(start) < args.seconds || cycle_job % draws != 0);
    std::vector<double> all_job_s;
    for (const auto& times : job_s) {
      all_job_s.insert(all_job_s.end(), times.begin(), times.end());
    }

    std::cout << "workload " << workload_name(args.workload) << "  seed "
              << args.seed << "  seconds " << args.seconds << "  trace "
              << (args.trace ? 1 : 0) << "  worker_threads " << threads
              << "  setup_reps " << setup.setup_s.size() << '\n';

    std::vector<Metric> e2e;
    {
      EndToEndInputs in;
      in.job_s = job_s;
      in.setup_s = setup.setup_s;
      for (std::size_t d = 0; d < draws; ++d) {
        in.work_per_job.push_back(runner->work_per_job(d));
      }
      in.peak_rss_mb =
          static_cast<double>(marcopolo::obs::read_memory_sample().peak_rss_kb) /
          1024.0;
      e2e = end_to_end_metrics(in);
    }

    std::vector<Metric> layers;
    if (args.trace) {
      for (const LaneCounters& c : counters) layer_in.counters.merge(c);
      layer_in.testbed_build_s = setup.testbed_build_s;
      layer_in.ases = runner->testbed().internet().graph().size();
      layer_in.analysis = runner->analysis_counters();
      layer_in.untraced_job_s = e2e.front().value;
      const core::ResultStore& store = runner->result_store();
      std::vector<double> csv_s;
      std::vector<double> mprs_s;
      for (std::size_t r = 0; r < kWriterReps; ++r) {
        std::uint64_t t0 = now_ns();
        layer_in.csv_bytes = store_csv(store).size();
        csv_s.push_back(elapsed_s(t0));
        t0 = now_ns();
        layer_in.mprs_bytes = store_mprs(store).size();
        mprs_s.push_back(elapsed_s(t0));
      }
      layer_in.save_csv_s = median(csv_s);
      layer_in.save_mprs_s = median(mprs_s);
      layers = per_layer_metrics(layer_in);

      if (!args.spans_out.empty()) {
        std::ofstream out(args.spans_out);
        write_spans(out, first_spans, tracer);
        if (!out) std::cerr << "mpbench: could not write " << args.spans_out << '\n';
      }
    }

    const double fail_frac =
        static_cast<double>(failed) / static_cast<double>(attempted);
    for (const Metric& m : e2e) {
      std::string note;
      if (m.name == "work_per_s") note = std::string(runner->work_name());
      print_metric("end_to_end", m, note);
    }
    print_metric("end_to_end", {"job_p50_s", median(all_job_s), "s"},
                 std::to_string(all_job_s.size()) + " jobs over " +
                     std::to_string(draws) + " draws");
    if (const auto tail = tail_stat(all_job_s)) {
      print_metric("end_to_end", {"job_tail_s", tail->value, "s"},
                   "p" + fixed(tail->percentile, 1) + " of " +
                       std::to_string(tail->samples) + " jobs");
    }
    print_metric("end_to_end", {"fail_frac", fail_frac, "frac"},
                 std::to_string(failed) + " of " + std::to_string(attempted) +
                     " jobs");
    double thread_s = 0.0;
    for (const Metric& m : layers) {
      if (m.name == "obs.job_thread_s") thread_s = m.value;
    }
    for (const Metric& m : layers) {
      // Layer self times inside the job also print as a share of the job's
      // thread time (setup and the writer timings are outside the job).
      const bool in_job = m.unit == "s" && is_layer_span(m.name) &&
                          m.name.rfind("topo.", 0) != 0 &&
                          m.name.rfind("store.save", 0) != 0;
      std::string note;
      if (in_job && thread_s > 0.0) {
        note = fixed(100.0 * m.value / thread_s, 1) + "% of job thread time";
      }
      print_metric("per_layer", m, note);
    }

    std::vector<Metric> emitted = args.trace ? layers : e2e;
    for (const Metric& m : emitted) {
      if (!valid_metric_name(m.name)) {
        std::cerr << "mpbench: invalid metric name " << m.name << '\n';
        return 1;
      }
    }
    std::cout << result_json(failed == 0, attempted, failed, emitted)
              << std::endl;
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "mpbench: " << e.what() << '\n';
    return 1;
  }
}

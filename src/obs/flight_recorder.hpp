// Campaign flight recorder: a structured, low-overhead event journal.
//
// Where the sharded MetricsRegistry answers "how many / how long in
// aggregate", the flight recorder answers per-request questions: why did
// perspective P route to the adversary in attack (v, a)? which worker ran
// that task, and when? did the route-age coin (§4.4.4) decide the
// outcome, so a rerun could flip it?
//
// Design, mirroring the metrics layer's contract:
//   - Null by default. Pipelines carry a `FlightRecorder*` that defaults
//     to nullptr; every emit site is guarded by one predictable branch,
//     and with no recorder attached the hot path reads no clock.
//   - Per-thread buffers. A worker calls open_buffer() once at startup
//     and appends plain structs to its private FlightBuffer — no locks,
//     no atomics on the emit path. The recorder owns the buffers, so
//     records from joined workers survive into drain().
//   - Pure observer. Recording may not perturb results: the ResultStore
//     is byte-identical with recording on or off (asserted by tests).
//
// Records carry two clock domains. Fast-campaign task spans and
// propagation runs use wall-clock steady nanoseconds (one Chrome-trace
// lane per worker thread); orchestrator attack spans use virtual
// simulation microseconds (one lane per prefix lane). trace_export.hpp
// turns a drained FlightJournal into Chrome trace_event JSON and an
// NDJSON journal.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

namespace marcopolo::obs {

class LineGuard;  // obs/log.hpp

/// Which decision point produced a perspective verdict. Values 0..4
/// mirror bgp::DecisionStep (static_asserted at the emit sites); the
/// journal-only sentinels cover outcomes no comparator decided.
enum class VerdictStep : std::uint8_t {
  LocalPref = 0,   ///< Business relationship split the origins.
  PathLength = 1,  ///< Shorter AS path.
  RouteAge = 2,    ///< The "heard first" coin — rerun-sensitive (§4.4.4).
  NeighborAsn = 3, ///< Lowest neighbor ASN.
  IngressPop = 4,  ///< Egress geography (ingress-POP proximity).
  MoreSpecific,    ///< Longest-prefix match on a sub-prefix hijack.
  Unopposed,       ///< Only one origin's routes reached the ingress AS.
};

[[nodiscard]] constexpr const char* to_cstring(VerdictStep step) {
  switch (step) {
    case VerdictStep::LocalPref: return "local_pref";
    case VerdictStep::PathLength: return "path_length";
    case VerdictStep::RouteAge: return "route_age";
    case VerdictStep::NeighborAsn: return "neighbor_asn";
    case VerdictStep::IngressPop: return "ingress_pop";
    case VerdictStep::MoreSpecific: return "more_specific";
    case VerdictStep::Unopposed: return "unopposed";
  }
  return "?";
}

/// Inverse of to_cstring (the journal reader's decoder). Returns false
/// and leaves `step` untouched on an unrecognized name.
[[nodiscard]] constexpr bool verdict_step_from_string(std::string_view name,
                                                      VerdictStep& step) {
  for (const VerdictStep candidate :
       {VerdictStep::LocalPref, VerdictStep::PathLength, VerdictStep::RouteAge,
        VerdictStep::NeighborAsn, VerdictStep::IngressPop,
        VerdictStep::MoreSpecific, VerdictStep::Unopposed}) {
    if (name == to_cstring(candidate)) {
      step = candidate;
      return true;
    }
  }
  return false;
}

/// One fast-campaign task: the (announcer, adversary) propagation plus
/// classification and row recording, timed on the worker's wall clock.
struct TaskSpanRecord {
  std::uint32_t announcer = 0;
  std::uint32_t adversary = 0;
  std::uint32_t victim_rows = 0;  ///< Store rows written by this task.
  bool total_capture = false;     ///< DNS host == adversary, no propagation.
  std::uint64_t start_ns = 0;     ///< Steady-clock epoch.
  std::uint64_t duration_ns = 0;
  std::uint64_t propagate_ns = 0;
  std::uint64_t classify_ns = 0;
  std::uint64_t record_ns = 0;
  /// bgp::AttackType value of the attack this task evaluated (0 =
  /// equally-specific, the only type pre-multi-attack journals could
  /// carry). Omitted from the journal when 0, so single-attack runs stay
  /// byte-identical to pre-attack-tag output.
  std::uint8_t attack = 0;
};

/// One propagation-engine run. A full-engine task records one flood, or
/// two when its attack also floods the victim-only baseline (route leak)
/// or a separate more-specific (sub-prefix). An incremental campaign
/// records one run per announcer baseline and one per delta replay; a
/// sub-prefix pair replays nothing and records none (its more-specific is
/// a reachability query, not a flood).
struct PropagationRunRecord {
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  std::uint64_t delivered = 0;
  std::uint64_t loop_dropped = 0;
  std::uint64_t rov_dropped = 0;
  /// Comparisons resolved per bgp::DecisionStep value.
  std::array<std::uint64_t, 5> decided{};
};

/// Decision provenance of one perspective verdict: which rule of the
/// decision process picked the winning origin at the perspective's
/// ingress AS. `contested` means both origins' routes survived to the
/// ingress RIB; an uncontested verdict is `Unopposed` by definition.
struct VerdictRecord {
  std::uint16_t victim = 0;
  std::uint16_t adversary = 0;
  std::uint16_t perspective = 0;
  std::uint8_t outcome = 0;  ///< bgp::OriginReached value (0 none/1 victim/2 adversary).
  /// bgp::AttackType value; 0 (equally-specific) is omitted from the
  /// journal so single-attack runs keep their pre-attack-tag bytes.
  std::uint8_t attack = 0;
  VerdictStep decided_by = VerdictStep::Unopposed;
  bool contested = false;

  [[nodiscard]] bool route_age_sensitive() const {
    return contested && decided_by == VerdictStep::RouteAge;
  }
};

/// One orchestrator attack attempt in virtual simulation time:
/// announce -> (propagation wait) -> DCV fan-out -> conclusion.
struct AttackSpanRecord {
  std::uint32_t lane = 0;
  std::uint16_t victim = 0;
  std::uint16_t adversary = 0;
  std::uint8_t attempt = 0;
  bool complete = false;  ///< Every perspective recorded after this attempt.
  std::uint64_t announce_us = 0;  ///< Virtual time since sim epoch.
  std::uint64_t dcv_us = 0;
  std::uint64_t conclude_us = 0;
};

/// One MPIC system's quorum decision for an attack (virtual time).
struct QuorumRecord {
  const char* system = "";  ///< Static-storage system name.
  std::uint32_t lane = 0;
  std::uint16_t victim = 0;
  std::uint16_t adversary = 0;
  bool corroborated = false;
  std::uint64_t virtual_us = 0;
};

/// Steady-clock nanoseconds (the wall-record time base).
[[nodiscard]] inline std::uint64_t flight_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class FlightRecorder;

/// One thread's private append buffer. Not thread-safe: exactly one
/// worker appends to a given buffer, and drain() happens after workers
/// finish (the recorder owns the storage either way).
class FlightBuffer {
 public:
  void record_task(const TaskSpanRecord& rec) { tasks_.push_back(rec); }
  void record_propagation(const PropagationRunRecord& rec) {
    propagations_.push_back(rec);
  }
  void record_verdict(const VerdictRecord& rec) { verdicts_.push_back(rec); }
  void record_attack(const AttackSpanRecord& rec) { attacks_.push_back(rec); }
  void record_quorum(const QuorumRecord& rec) { quorums_.push_back(rec); }

  [[nodiscard]] std::uint32_t worker_id() const { return worker_id_; }

 private:
  friend class FlightRecorder;
  std::uint32_t worker_id_ = 0;
  std::vector<TaskSpanRecord> tasks_;
  std::vector<PropagationRunRecord> propagations_;
  std::vector<VerdictRecord> verdicts_;
  std::vector<AttackSpanRecord> attacks_;
  std::vector<QuorumRecord> quorums_;
};

/// Everything one run recorded, merged per worker lane. Wall-clock
/// records keep their per-worker grouping (one trace lane each); the
/// virtual-time records are merged flat (their lane id is explicit).
struct FlightJournal {
  struct WorkerLane {
    std::uint32_t worker = 0;
    std::vector<TaskSpanRecord> tasks;
    std::vector<PropagationRunRecord> propagations;
    std::vector<VerdictRecord> verdicts;
  };
  std::vector<WorkerLane> workers;
  std::vector<AttackSpanRecord> attacks;
  std::vector<QuorumRecord> quorums;
  /// Earliest wall-clock start across all records (trace time zero);
  /// 0 when no wall record exists.
  std::uint64_t epoch_ns = 0;

  [[nodiscard]] std::size_t task_count() const;
  [[nodiscard]] std::size_t verdict_count() const;
  [[nodiscard]] std::size_t adversary_verdict_count() const;
};

/// Owns the per-thread buffers plus a pair of live counters cheap enough
/// for the progress reporter to poll mid-run.
class FlightRecorder {
 public:
  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Open a new lane. Each worker thread calls this once and appends to
  /// the returned buffer without synchronization; the recorder keeps
  /// ownership, so the pointer stays valid after the worker joins.
  [[nodiscard]] FlightBuffer* open_buffer();

  /// Live verdict tally for progress reporting. Workers flush locally
  /// accumulated counts once per task, so this is two relaxed adds per
  /// task, not per verdict.
  void note_verdicts(std::uint64_t total, std::uint64_t adversary) {
    if (total != 0) verdicts_.fetch_add(total, std::memory_order_relaxed);
    if (adversary != 0) {
      adversary_verdicts_.fetch_add(adversary, std::memory_order_relaxed);
    }
  }
  [[nodiscard]] std::uint64_t verdicts() const {
    return verdicts_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t adversary_verdicts() const {
    return adversary_verdicts_.load(std::memory_order_relaxed);
  }

  /// Merge every buffer into one journal and reset the recorder. Call
  /// after all writers have finished their final task.
  [[nodiscard]] FlightJournal drain();

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<FlightBuffer>> buffers_;
  std::atomic<std::uint64_t> verdicts_{0};
  std::atomic<std::uint64_t> adversary_verdicts_{0};
};

/// Periodic stderr progress line driven from the campaign progress hook
/// and, when a recorder is attached, its live verdict counters:
///
///   [campaign] 512/992 tasks (51.6%)  324.1 tasks/s  ETA 1.5s  hijacked 34.2%
///
/// Thread-safe and rate-limited (at most one update per interval). Live
/// updates overwrite a single line via \r; completion always emits a
/// newline-terminated 100% summary line, so the terminal is never left
/// with a stale partial line. Null-cost when never called.
class ProgressReporter {
 public:
  explicit ProgressReporter(const FlightRecorder* recorder = nullptr,
                            double min_interval_s = 0.5,
                            std::FILE* out = stderr);
  ~ProgressReporter();

  /// Report `done` of `total` tasks. Safe to call from any worker.
  void update(std::size_t done, std::size_t total);

 private:
  const FlightRecorder* recorder_;
  double min_interval_;
  std::chrono::steady_clock::time_point start_;
  std::mutex mutex_;
  /// When the last line was printed; empty until the first one, which is
  /// never rate-limited (a default time_point is the clock's epoch, which
  /// on steady_clock is host boot: "now - epoch" is just the uptime).
  std::optional<std::chrono::steady_clock::time_point> last_;
  bool printed_final_ = false;
  // Output goes through a LineGuard so verbose Logger lines blank and
  // redraw the live line instead of splicing into it. stderr shares the
  // process-wide guard with the Logger sink; other streams (tests write
  // to a tmpfile) get a private guard with identical byte behavior.
  LineGuard* guard_;
  std::unique_ptr<LineGuard> owned_guard_;
};

}  // namespace marcopolo::obs

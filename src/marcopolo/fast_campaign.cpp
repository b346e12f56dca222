#include "marcopolo/fast_campaign.hpp"

#include <atomic>
#include <thread>

#include "obs/log.hpp"
#include "obs/timer.hpp"

namespace marcopolo::core {

namespace {

/// Campaign-level metric handles, interned once per run (outside the
/// workers). All-null when the config carries no registry, which makes
/// every update below a single predictable branch.
struct CampaignMetrics {
  obs::Counter tasks_executed;
  obs::Counter propagations;
  obs::Counter baselines_computed;
  obs::Counter delta_replays;
  obs::Counter total_captures;
  obs::Counter dns_collapses;
  obs::Counter rows_recorded;
  obs::Counter worker_threads;
  obs::Histogram task_ns;
  obs::Histogram baseline_ns;
  obs::Histogram propagate_ns;
  obs::Histogram classify_ns;
  obs::Histogram record_ns;
  /// Pre-interned propagation-engine handles shared by every task (null
  /// when the campaign is uninstrumented), so per-scenario flushes never
  /// re-intern names.
  bgp::PropagationMetrics propagation;
  bool enabled = false;

  static CampaignMetrics create(obs::MetricsRegistry* reg) {
    CampaignMetrics m;
    m.propagation = bgp::PropagationMetrics::create(reg);
    m.enabled = reg != nullptr;
    m.tasks_executed = obs::MetricsRegistry::counter(reg, "campaign.tasks_executed");
    m.propagations = obs::MetricsRegistry::counter(reg, "campaign.propagations");
    m.baselines_computed =
        obs::MetricsRegistry::counter(reg, "campaign.baselines_computed");
    m.delta_replays =
        obs::MetricsRegistry::counter(reg, "campaign.delta_replays");
    m.total_captures =
        obs::MetricsRegistry::counter(reg, "campaign.total_capture_tasks");
    m.dns_collapses =
        obs::MetricsRegistry::counter(reg, "campaign.dns_dedup_collapses");
    m.rows_recorded =
        obs::MetricsRegistry::counter(reg, "campaign.rows_recorded");
    m.worker_threads =
        obs::MetricsRegistry::counter(reg, "campaign.worker_threads");
    m.task_ns = obs::MetricsRegistry::histogram(reg, "campaign.task_ns");
    m.baseline_ns =
        obs::MetricsRegistry::histogram(reg, "campaign.phase.baseline_ns");
    m.propagate_ns =
        obs::MetricsRegistry::histogram(reg, "campaign.phase.propagate_ns");
    m.classify_ns =
        obs::MetricsRegistry::histogram(reg, "campaign.phase.classify_ns");
    m.record_ns =
        obs::MetricsRegistry::histogram(reg, "campaign.phase.record_ns");
    return m;
  }
};

/// One unit of parallel work: every hijack of `announcer`'s prefix, one
/// attack per adversary. Announcer-major grouping lets a worker propagate
/// the announcer's victim-only baseline once and replay each adversary as
/// a delta over it (config.incremental); per-(announcer, adversary)
/// accounting — tasks_executed, task spans, telemetry — is unchanged.
/// Under the HTTP surface each victim is its own announcer; under the DNS
/// surface victims sharing a nameserver host collapse into one announcer —
/// the scenario cache the serial engine lacked.
struct CampaignTask {
  std::size_t announcer = 0;
  /// Victims (v != adversary is re-checked at write time) accounted to
  /// this announcer.
  std::vector<SiteIndex> victims;
};

/// Per-worker state: one propagation workspace, one reusable scenario and
/// one egress scratch, so a worker's steady state allocates nothing but
/// route-path churn.
class CampaignWorker {
 public:
  CampaignWorker(const Testbed& testbed, const FastCampaignConfig& config,
                 std::span<const bgp::AttackType> attacks,
                 const bgp::RoaRegistry* edge_roas, ResultStore& store,
                 const CampaignMetrics& metrics, obs::FlightRecorder* recorder,
                 obs::FlightBuffer* flight)
      : testbed_(testbed),
        config_(config),
        attacks_(attacks),
        edge_roas_(edge_roas),
        store_(store),
        metrics_(metrics),
        recorder_(recorder),
        flight_(flight),
        verdicts_(testbed.perspectives().size()) {}

  /// Run every adversary against this announcer, sweeping every attack
  /// type per pair. Returns the number of attacks executed — the
  /// campaign's telemetry/accounting unit, one per (announcer, adversary,
  /// attack) triple. The announcer's victim-only baseline is computed
  /// once and shared by every (adversary, attack) replay below.
  std::size_t run(const CampaignTask& task) {
    const auto& sites = testbed_.sites();
    if (config_.incremental) {
      // One victim-only propagation per announcer; every pair below
      // replays just the adversary's announcement over it. Valid across
      // the per-pair salted comparators because a single-role propagation
      // never reaches the route-age step (DESIGN.md §11).
      const bgp::PropagationConfig pc{
          config_.tie_break, config_.tie_break_seed, config_.roas,
          metrics_.enabled ? &metrics_.propagation : nullptr, flight_};
      {
        // The baseline's eager part only; its lazily decided routes are
        // paid inside the attacks' propagate/classify phases.
        obs::ScopedTimer baseline_timer(metrics_.baseline_ns);
        delta_.set_victim_baseline(testbed_.internet().graph(),
                                   sites[task.announcer].node,
                                   config_.victim_prefix(task.announcer), pc);
      }
      metrics_.baselines_computed.add(1);
    }
    for (std::size_t a = 0; a < sites.size(); ++a) {
      for (std::size_t ai = 0; ai < attacks_.size(); ++ai) {
        run_attack(task, a, ai);
      }
    }
    return sites.size() * attacks_.size();
  }

 private:
  void run_attack(const CampaignTask& task, const std::size_t adversary,
                  const std::size_t attack) {
    obs::ScopedTimer timer(metrics_.task_ns);
    metrics_.tasks_executed.add(1);
    const bool recording = flight_ != nullptr;
    const std::uint64_t t_start = recording ? obs::flight_now_ns() : 0;
    const auto& sites = testbed_.sites();
    const auto& perspectives = testbed_.perspectives();
    const bgp::AttackType type = attacks_[attack];
    const auto attack_tag = static_cast<std::uint8_t>(type);
    if (task.announcer == adversary) {
      // The adversary hosts the victim's DNS: every perspective resolves
      // through the adversary already; record total capture. That holds
      // for every attack type — no announcement is even needed — so each
      // plane gets the same rows.
      metrics_.total_captures.add(1);
      std::uint64_t rows = 0;
      for (const SiteIndex v : task.victims) {
        if (v == adversary) continue;
        ++rows;
        for (const PerspectiveRecord& rec : perspectives) {
          store_.record_unsynchronized(
              attack, v, static_cast<SiteIndex>(adversary), rec.index,
              bgp::OriginReached::Adversary);
          if (recording) {
            // No BGP decision involved: the verdict is unopposed by
            // construction (the adversary serves the victim's DNS).
            flight_->record_verdict(make_verdict(
                v, adversary, rec.index, attack_tag,
                bgp::OriginReached::Adversary, obs::VerdictStep::Unopposed,
                /*contested=*/false));
          }
        }
      }
      const std::uint64_t total = rows * perspectives.size();
      metrics_.rows_recorded.add(total);
      if (recording) {
        flight_->record_task(make_task_span(task.announcer, adversary,
                                            attack_tag, rows,
                                            /*total_capture=*/true, t_start, 0,
                                            0, t_start));
        recorder_->note_verdicts(total, total);
      }
      return;
    }
    const bgp::ScenarioConfig sc{
        type,          config_.tie_break, config_.tie_break_seed,
        config_.roas,  metrics_.enabled ? &metrics_.propagation : nullptr,
        flight_};
    {
      obs::ScopedTimer propagate_timer(metrics_.propagate_ns);
      if (config_.incremental) {
        scenario_.reset_incremental(delta_, sites[adversary].node, sc, ws_);
      } else {
        scenario_.reset(testbed_.internet().graph(),
                        sites[task.announcer].node, sites[adversary].node,
                        config_.victim_prefix(task.announcer), sc, ws_);
      }
    }
    const std::uint64_t t_propagated = recording ? obs::flight_now_ns() : 0;
    metrics_.propagations.add(1);
    if (config_.incremental) metrics_.delta_replays.add(1);
    // Resolve every perspective once per task; the outcome depends only on
    // (announcer, adversary), never on which victim the row belongs to.
    // Provenance comes with every verdict, so recording cannot change any
    // outcome.
    {
      obs::ScopedTimer classify_timer(metrics_.classify_ns);
      testbed_.resolve_all(scenario_, edge_roas_, egress_, verdicts_);
    }
    const std::uint64_t t_classified = recording ? obs::flight_now_ns() : 0;
    obs::ScopedTimer record_timer(metrics_.record_ns);
    std::uint64_t rows = 0;
    std::uint64_t adversary_verdicts = 0;
    for (const SiteIndex v : task.victims) {
      if (v == adversary) continue;
      ++rows;
      for (const PerspectiveRecord& rec : perspectives) {
        const cloud::ResolveExplanation& why = verdicts_[rec.index];
        store_.record_unsynchronized(attack, v,
                                     static_cast<SiteIndex>(adversary),
                                     rec.index, why.outcome);
        if (recording) {
          flight_->record_verdict(make_verdict(v, adversary, rec.index,
                                               attack_tag, why.outcome,
                                               why.decided_by,
                                               why.contested));
          if (why.outcome == bgp::OriginReached::Adversary) {
            ++adversary_verdicts;
          }
        }
      }
    }
    metrics_.rows_recorded.add(rows * perspectives.size());
    if (recording) {
      flight_->record_task(make_task_span(task.announcer, adversary,
                                          attack_tag, rows,
                                          /*total_capture=*/false, t_start,
                                          t_propagated, t_classified, t_start));
      recorder_->note_verdicts(rows * perspectives.size(), adversary_verdicts);
    }
  }

  [[nodiscard]] static obs::VerdictRecord make_verdict(
      std::size_t victim, std::size_t adversary, std::uint16_t perspective,
      std::uint8_t attack, bgp::OriginReached outcome,
      obs::VerdictStep decided_by, bool contested) {
    obs::VerdictRecord v;
    v.victim = static_cast<std::uint16_t>(victim);
    v.adversary = static_cast<std::uint16_t>(adversary);
    v.perspective = perspective;
    v.attack = attack;
    v.outcome = static_cast<std::uint8_t>(outcome);
    v.decided_by = decided_by;
    v.contested = contested;
    return v;
  }

  [[nodiscard]] static obs::TaskSpanRecord make_task_span(
      std::size_t announcer, std::size_t adversary, std::uint8_t attack,
      std::uint64_t rows, bool total_capture, std::uint64_t t_start,
      std::uint64_t t_propagated, std::uint64_t t_classified,
      std::uint64_t phase_base) {
    const std::uint64_t t_end = obs::flight_now_ns();
    obs::TaskSpanRecord rec;
    rec.announcer = static_cast<std::uint32_t>(announcer);
    rec.adversary = static_cast<std::uint32_t>(adversary);
    rec.attack = attack;
    rec.victim_rows = static_cast<std::uint32_t>(rows);
    rec.total_capture = total_capture;
    rec.start_ns = t_start;
    rec.duration_ns = t_end - t_start;
    if (!total_capture) {
      rec.propagate_ns = t_propagated - phase_base;
      rec.classify_ns = t_classified - t_propagated;
      rec.record_ns = t_end - t_classified;
    }
    return rec;
  }

  const Testbed& testbed_;
  const FastCampaignConfig& config_;
  std::span<const bgp::AttackType> attacks_;
  const bgp::RoaRegistry* edge_roas_;
  ResultStore& store_;
  const CampaignMetrics& metrics_;
  obs::FlightRecorder* recorder_;
  obs::FlightBuffer* flight_;
  bgp::PropagationWorkspace ws_;
  bgp::HijackScenario scenario_;
  bgp::DeltaPropagation delta_;
  cloud::EgressScratch egress_;
  std::vector<cloud::ResolveExplanation> verdicts_;  // by perspective
};

}  // namespace

ResultStore run_fast_campaign(const Testbed& testbed,
                              const FastCampaignConfig& config) {
  const auto& sites = testbed.sites();
  // One store plane per swept attack type (the ResultStore constructor
  // rejects duplicates).
  const std::vector<bgp::AttackType> attacks = config.attack_list();
  ResultStore store(sites.size(), testbed.perspectives().size(), attacks);

  const bgp::RoaRegistry* edge_roas =
      config.cloud_edge_rov ? config.roas : nullptr;
  if (config.surface == AttackSurface::Dns &&
      !config.dns_host_of_victim.empty() &&
      config.dns_host_of_victim.size() != sites.size()) {
    throw std::invalid_argument("dns_host_of_victim size != site count");
  }

  // Under the DNS surface the contested prefix belongs to the victim's
  // nameserver host; the resilience accounting still belongs to v.
  const bool dns_hosted = config.surface == AttackSurface::Dns &&
                          !config.dns_host_of_victim.empty();
  // Group victims by announcer so each distinct (announcer, adversary)
  // propagation runs exactly once.
  std::vector<std::vector<SiteIndex>> victims_of(sites.size());
  for (std::size_t v = 0; v < sites.size(); ++v) {
    const std::size_t announcer =
        dns_hosted ? config.dns_host_of_victim[v] : v;
    if (announcer >= sites.size()) {
      throw std::invalid_argument("dns_host_of_victim index out of range");
    }
    victims_of[announcer].push_back(static_cast<SiteIndex>(v));
  }

  const CampaignMetrics metrics =
      CampaignMetrics::create(config.observers.metrics);

  // One task per announcer; the worker iterates every adversary inside it
  // (baseline reuse). Accounting stays per (announcer, adversary) attack:
  // tasks_executed, task spans, and telemetry all count attacks, exactly as
  // when each attack was its own task.
  std::vector<CampaignTask> tasks;
  tasks.reserve(sites.size());
  for (std::size_t announcer = 0; announcer < sites.size(); ++announcer) {
    if (victims_of[announcer].empty()) continue;
    // Every victim beyond the first sharing this announcer rides an
    // existing propagation — the DNS-dedup collapse the serial engine
    // re-ran per victim (once per attack type in a multi-attack sweep).
    metrics.dns_collapses.add(
        (victims_of[announcer].size() - 1) * sites.size() * attacks.size());
    // announcer == adversary is still an attack (total-capture rows)
    // unless its only victim is the adversary itself.
    tasks.push_back(CampaignTask{announcer, victims_of[announcer]});
  }
  const std::size_t total_attacks =
      tasks.size() * sites.size() * attacks.size();

  const std::size_t hw =
      std::max<unsigned>(1, std::thread::hardware_concurrency());
  const std::size_t n_threads = std::max<std::size_t>(
      1, std::min(config.threads == 0 ? hw : config.threads, tasks.size()));
  metrics.worker_threads.add(n_threads);
  MARCOPOLO_LOG(Info) << "fast campaign"
                      << obs::field("attack", to_cstring(attacks.front()))
                      << obs::field("attack_types", attacks.size())
                      << obs::field("tasks", tasks.size())
                      << obs::field("attacks", total_attacks)
                      << obs::field("incremental", config.incremental)
                      << obs::field("threads", n_threads)
                      << obs::field("recording",
                                    config.observers.recorder != nullptr);

  // Workers pull tasks from a shared counter; any task order yields the
  // same store because every cell is written exactly once with a value
  // that is a pure function of the task (determinism invariant). Metrics
  // go to per-thread shards and results to disjoint cells, so neither
  // the thread count nor the registry being attached can perturb bytes.
  std::atomic<std::size_t> next{0};
  const obs::Observers& observers = config.observers;
  // The telemetry hub counts attacks.
  if (observers.telemetry != nullptr) {
    observers.telemetry->add_planned_tasks(total_attacks);
  }
  auto drain = [&] {
    // Lane opened on the worker thread itself so wall-clock records group
    // one-trace-lane-per-thread; the recorder keeps the buffer alive past
    // the join. The profiler guard likewise attaches *this* thread's
    // CPU-time timer for the task loop's duration (no-op when null or
    // unavailable).
    obs::ProfiledThread profiled(observers.profiler);
    obs::FlightBuffer* flight = observers.recorder != nullptr
                                    ? observers.recorder->open_buffer()
                                    : nullptr;
    CampaignWorker worker(testbed, config, attacks, edge_roas, store, metrics,
                          observers.recorder, flight);
    obs::TelemetryWorkerSlot* slot =
        observers.telemetry != nullptr
            ? observers.telemetry->open_worker_slot()
            : nullptr;
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks.size()) break;
      // Completions are counted in attacks (pairs), the same unit as
      // before the announcer-major regrouping; one task retires
      // sites.size() of them at once.
      const std::size_t retired = worker.run(tasks[i]);
      if (slot != nullptr) observers.telemetry->note_task_done(slot, retired);
    }
    if (slot != nullptr) observers.telemetry->close_worker_slot(slot);
  };

  if (n_threads == 1) {
    drain();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(n_threads);
    for (std::size_t t = 0; t < n_threads; ++t) pool.emplace_back(drain);
    for (auto& th : pool) th.join();
  }
  return store;
}

CampaignDataset run_paper_campaigns(const Testbed& testbed,
                                    bgp::TieBreakMode tie_break,
                                    std::uint64_t tie_break_seed,
                                    std::size_t threads,
                                    const obs::Observers& observers) {
  FastCampaignConfig plain;
  plain.type = bgp::AttackType::EquallySpecific;
  plain.tie_break = tie_break;
  plain.tie_break_seed = tie_break_seed;
  plain.threads = threads;
  plain.observers = observers;

  FastCampaignConfig forged = plain;
  forged.type = bgp::AttackType::ForgedOriginPrepend;

  return CampaignDataset{run_fast_campaign(testbed, plain),
                         run_fast_campaign(testbed, forged)};
}

}  // namespace marcopolo::core

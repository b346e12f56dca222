#include "analysis/optimizer.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <queue>
#include <set>
#include <stdexcept>
#include <thread>

namespace marcopolo::analysis {

namespace {

/// Bounded collector keeping the top-k scored perspective sets. The
/// ordering is total — score first, then lexicographically smaller set —
/// so collection order (and hence threading) cannot change the result.
class TopK {
 public:
  explicit TopK(std::size_t k) : k_(k) {}

  void offer(const std::vector<PerspectiveIndex>& set,
             ResilienceAnalyzer::Score score) {
    if (heap_.size() < k_) {
      heap_.push(Entry{score, set});
      return;
    }
    // Compares in place: the set is copied only once it is admitted.
    if (worse(heap_.top().score, heap_.top().set, score, set)) {
      heap_.pop();
      heap_.push(Entry{score, set});
    }
  }

  /// True if a score would currently be admitted (pruning hint; ignores
  /// the lexicographic tail so it may over-admit on exact ties).
  [[nodiscard]] bool admits(ResilienceAnalyzer::Score score) const {
    return heap_.size() < k_ || !(score < heap_.top().score);
  }

  /// True once k entries are held, i.e. admits() has a real bar.
  [[nodiscard]] bool full() const { return heap_.size() >= k_; }

  /// Drain, best first.
  [[nodiscard]] std::vector<std::pair<std::vector<PerspectiveIndex>,
                                      ResilienceAnalyzer::Score>>
  sorted() {
    std::vector<std::pair<std::vector<PerspectiveIndex>,
                          ResilienceAnalyzer::Score>>
        out;
    out.reserve(heap_.size());
    while (!heap_.empty()) {
      out.emplace_back(heap_.top().set, heap_.top().score);
      heap_.pop();
    }
    std::reverse(out.begin(), out.end());
    return out;
  }

 private:
  struct Entry {
    ResilienceAnalyzer::Score score;
    std::vector<PerspectiveIndex> set;
    // min-heap: the WORST entry sits on top. a < b = "a is better".
    friend bool operator<(const Entry& a, const Entry& b) {
      return worse(b.score, b.set, a.score, a.set);
    }
  };

 public:
  /// Total order: is (a_score, a_set) strictly worse than (b_score,
  /// b_set)? Sets are compared only on an exact score tie.
  static bool worse(ResilienceAnalyzer::Score a_score,
                    const std::vector<PerspectiveIndex>& a_set,
                    ResilienceAnalyzer::Score b_score,
                    const std::vector<PerspectiveIndex>& b_set) {
    if (a_score < b_score) return true;
    if (b_score < a_score) return false;
    return b_set < a_set;  // larger lexicographic set loses ties
  }

 private:
  std::size_t k_;
  std::priority_queue<Entry> heap_;
};

mpic::DeploymentSpec make_spec(const OptimizerConfig& cfg,
                               std::vector<PerspectiveIndex> remotes,
                               std::optional<PerspectiveIndex> primary,
                               std::size_t rank) {
  mpic::DeploymentSpec spec;
  spec.name = cfg.name_prefix + "#" + std::to_string(rank);
  spec.remotes = std::move(remotes);
  spec.primary = primary;
  spec.policy = mpic::QuorumPolicy(cfg.set_size, cfg.max_failures,
                                   primary.has_value());
  spec.check();
  return spec;
}

}  // namespace

ResilienceAnalyzer::ScoreScratch& DeploymentOptimizer::scratch() const {
  if (scratch_.mask.empty()) scratch_ = analyzer_.make_scratch();
  return scratch_;
}

std::vector<RankedDeployment> DeploymentOptimizer::search_exhaustive(
    const OptimizerConfig& cfg) const {
  const auto& cands = cfg.candidates;
  const std::size_t k = cfg.set_size;
  const std::size_t required = k - cfg.max_failures;

  // One worker explores all combinations whose FIRST element index is in
  // its share; the DFS below each first element is independent, so workers
  // need no synchronization beyond the final merge.
  const std::size_t hw = std::max<unsigned>(1, std::thread::hardware_concurrency());
  const std::size_t n_threads = std::min<std::size_t>(
      cfg.threads == 0 ? hw : cfg.threads, std::max<std::size_t>(1, cands.size()));

  std::vector<TopK> tops(n_threads, TopK(cfg.top_k));
  std::vector<SearchStats> stats(n_threads);
  std::atomic<std::size_t> next_first{0};

  auto worker = [&](std::size_t t) {
    // Attach this worker thread to the sampling profiler (no-op when
    // null/unavailable) so search CPU attributes to the scoring kernels.
    obs::ProfiledThread profiled(cfg.observers.profiler);
    // Allocated once per worker and reused across every stolen subtree.
    ResilienceAnalyzer::ScoreScratch sc = analyzer_.make_scratch();
    const OutcomeMatrix& matrix = analyzer_.matrix();
    const std::size_t words = matrix.words_per_row();
    // Quorum planes of the nodes on the current DFS path: at depth j,
    // plane(j, r) marks the pairs that at least r members of the node's
    // set see hijacked, r = 0..required (plane(j, 0) = attackable(); the
    // empty set at depth 0 has every other plane zero), so
    // plane(j, required) is the node's success mask. A leaf needs only the
    // last counter step, sure | (edge & row(c)): sure = plane(j, required)
    // holds the pairs its parent already carries to quorum, edge =
    // plane(j, required - 1) those at most one hijack short.
    std::vector<std::uint64_t> planes(k * (required + 1) * words, 0);
    const auto plane = [&](std::size_t depth, std::size_t r) {
      return planes.data() + (depth * (required + 1) + r) * words;
    };
    for (std::size_t depth = 0; depth < k; ++depth) {
      std::copy(matrix.attackable().begin(), matrix.attackable().end(),
                plane(depth, 0));
    }
    std::vector<PerspectiveIndex> chosen;
    chosen.reserve(k);
    std::array<std::size_t, 5> rir_counts{};
    TopK& top = tops[t];
    SearchStats& st = stats[t];

    const auto score_leaf = [&](PerspectiveIndex c) {
      const std::uint64_t* sure = plane(chosen.size(), required);
      const std::uint64_t* edge = plane(chosen.size(), required - 1);
      const std::uint64_t* row = matrix.row(c).data();
      for (std::size_t w = 0; w < words; ++w) {
        sc.mask[w] = sure[w] | (edge[w] & row[w]);
      }
      chosen.push_back(c);
      ++st.complete_sets_scored;
      top.offer(chosen, analyzer_.score_from_mask(sc, std::nullopt));
      chosen.pop_back();
    };
    const auto push = [&](PerspectiveIndex c) {
      const std::size_t depth = chosen.size();
      const std::uint64_t* row = matrix.row(c).data();
      for (std::size_t r = 1; r <= required; ++r) {
        const std::uint64_t* at = plane(depth, r);
        const std::uint64_t* short_one = plane(depth, r - 1);
        std::uint64_t* out = plane(depth + 1, r);
        for (std::size_t w = 0; w < words; ++w) {
          out[w] = at[w] | (short_one[w] & row[w]);
        }
      }
      chosen.push_back(c);
    };

    // Adds candidate i below the current node: a leaf is scored, an inner
    // node searched.
    const auto visit = [&](auto&& dfs, std::size_t i) {
      if (chosen.size() + 1 == k) {
        score_leaf(cands[i]);
        return;
      }
      push(cands[i]);
      dfs(dfs, i + 1);
      chosen.pop_back();
    };

    auto dfs = [&](auto&& self, std::size_t next) -> void {
      // Upper-bound prune: per-pair hijack counts only grow as
      // perspectives are added, so (with the final quorum fixed) every
      // per-victim resilience — hence the median and the average — is
      // non-increasing along a DFS path. The partial set's score therefore
      // bounds every completion from above; if it cannot enter the top-k,
      // nothing below it can. admits() over-admits on exact score ties,
      // which only costs work, never drops a valid result.
      if (top.full()) {
        std::copy_n(plane(chosen.size(), required), words, sc.mask.begin());
        if (!top.admits(analyzer_.score_from_mask(sc, std::nullopt))) {
          ++st.subtrees_pruned;
          return;
        }
      }
      const std::size_t remaining = k - chosen.size();
      for (std::size_t i = next; i + remaining <= cands.size(); ++i) {
        std::size_t rir = 0;
        if (cfg.max_per_rir > 0) {
          rir = static_cast<std::size_t>(cfg.rir_of.at(cands[i]));
          if (rir_counts[rir] >= cfg.max_per_rir) continue;
          ++rir_counts[rir];
        }
        visit(self, i);
        if (cfg.max_per_rir > 0) --rir_counts[rir];
      }
    };

    // Dynamic work stealing over first elements: early indices carry far
    // more combinations than late ones.
    while (true) {
      const std::size_t first = next_first.fetch_add(1);
      if (first >= cands.size() || first + k > cands.size()) break;
      std::size_t rir = 0;
      if (cfg.max_per_rir > 0) {
        rir = static_cast<std::size_t>(cfg.rir_of.at(cands[first]));
        ++rir_counts[rir];
      }
      visit(dfs, first);
      if (cfg.max_per_rir > 0) --rir_counts[rir];
    }
  };

  if (n_threads == 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(n_threads);
    for (std::size_t t = 0; t < n_threads; ++t) {
      pool.emplace_back(worker, t);
    }
    for (auto& th : pool) th.join();
  }

  SearchStats totals;
  for (const SearchStats& st : stats) {
    totals.complete_sets_scored += st.complete_sets_scored;
    totals.subtrees_pruned += st.subtrees_pruned;
  }
  if (cfg.stats != nullptr) {
    cfg.stats->complete_sets_scored += totals.complete_sets_scored;
    cfg.stats->subtrees_pruned += totals.subtrees_pruned;
  }
  if (obs::MetricsRegistry* metrics = cfg.observers.metrics) {
    metrics->counter("optimizer.exhaustive_searches").add(1);
    metrics->counter("optimizer.complete_sets_scored")
        .add(totals.complete_sets_scored);
    metrics->counter("optimizer.subtrees_pruned")
        .add(totals.subtrees_pruned);
  }

  // Deterministic merge: every candidate set appears in exactly one
  // thread's TopK, so pooling + one global TopK yields the same result as
  // a single-threaded run.
  TopK merged(cfg.top_k);
  for (auto& top : tops) {
    for (auto& [set, score] : top.sorted()) {
      merged.offer(set, score);
    }
  }

  std::vector<RankedDeployment> out;
  std::size_t rank = 0;
  for (auto& [set, score] : merged.sorted()) {
    out.push_back(
        RankedDeployment{make_spec(cfg, set, std::nullopt, rank++), score});
  }
  return out;
}

std::vector<RankedDeployment> DeploymentOptimizer::search_beam(
    const OptimizerConfig& cfg) const {
  struct State {
    std::vector<PerspectiveIndex> set;
    ResilienceAnalyzer::Score score;
  };
  std::vector<State> beam{State{{}, {}}};
  ResilienceAnalyzer::ScoreScratch& sc = scratch();
  std::uint64_t states_scored = 0;

  for (std::size_t depth = 1; depth <= cfg.set_size; ++depth) {
    // Partial sets are scored with the final quorum scaled down
    // proportionally (ceil), so early picks already reflect the ratio of
    // required successes — scoring with an absolute `depth - Y` would make
    // small partial sets nearly unconstrained and reward redundancy.
    const std::size_t final_required = cfg.set_size - cfg.max_failures;
    const std::size_t partial_required = std::max<std::size_t>(
        1, (depth * final_required + cfg.set_size - 1) / cfg.set_size);
    std::vector<State> next;
    std::set<std::vector<PerspectiveIndex>> seen;
    for (const State& state : beam) {
      for (const PerspectiveIndex c : cfg.candidates) {
        if (std::find(state.set.begin(), state.set.end(), c) !=
            state.set.end()) {
          continue;
        }
        if (cfg.max_per_rir > 0) {
          std::size_t same = 1;
          for (const PerspectiveIndex p : state.set) {
            if (cfg.rir_of.at(p) == cfg.rir_of.at(c)) ++same;
          }
          if (same > cfg.max_per_rir) continue;
        }
        std::vector<PerspectiveIndex> set = state.set;
        set.push_back(c);
        std::sort(set.begin(), set.end());
        if (!seen.insert(set).second) continue;

        ++states_scored;
        const auto score =
            analyzer_.score_set(set, partial_required, std::nullopt, sc);
        next.push_back(State{std::move(set), score});
      }
    }
    const std::size_t keep = std::min(cfg.beam_width, next.size());
    std::partial_sort(next.begin(), next.begin() + static_cast<std::ptrdiff_t>(keep),
                      next.end(), [](const State& a, const State& b) {
                        return b.score < a.score;
                      });
    next.resize(keep);
    beam = std::move(next);
    if (beam.empty()) break;
  }

  // Re-score survivors with the exact final quorum, then refine the best
  // few by hill climbing over single-perspective swaps.
  const std::size_t final_required = cfg.set_size - cfg.max_failures;
  struct Final {
    std::vector<PerspectiveIndex> set;
    ResilienceAnalyzer::Score score;
  };
  std::vector<Final> finals;
  for (const State& state : beam) {
    if (state.set.size() != cfg.set_size) continue;
    finals.push_back(Final{
        state.set,
        analyzer_.score_set(state.set, final_required, std::nullopt, sc)});
  }
  std::sort(finals.begin(), finals.end(),
            [](const Final& a, const Final& b) { return b.score < a.score; });

  const std::size_t refine = std::min(cfg.refine_top, finals.size());
  for (std::size_t f = 0; f < refine; ++f) {
    auto& current = finals[f];
    climb(current.set, current.score, cfg, final_required);
    std::sort(current.set.begin(), current.set.end());
  }
  std::sort(finals.begin(), finals.end(),
            [](const Final& a, const Final& b) { return b.score < a.score; });

  std::vector<RankedDeployment> out;
  std::set<std::vector<PerspectiveIndex>> emitted;
  std::size_t rank = 0;
  for (const Final& final : finals) {
    if (!emitted.insert(final.set).second) continue;
    out.push_back(RankedDeployment{
        make_spec(cfg, final.set, std::nullopt, rank++), final.score});
    if (out.size() >= cfg.top_k) break;
  }
  if (obs::MetricsRegistry* metrics = cfg.observers.metrics) {
    metrics->counter("optimizer.beam_searches").add(1);
    metrics->counter("optimizer.beam_states_scored").add(states_scored);
  }
  return out;
}

void DeploymentOptimizer::climb(std::vector<PerspectiveIndex>& set,
                                ResilienceAnalyzer::Score& score,
                                const OptimizerConfig& cfg,
                                std::size_t required) const {
  ResilienceAnalyzer::ScoreScratch& sc = scratch();
  std::uint64_t swaps_tried = 0;
  std::uint64_t swaps_kept = 0;
  bool improved = true;
  while (improved) {
    improved = false;
    for (std::size_t m = 0; m < set.size() && !improved; ++m) {
      const PerspectiveIndex out_p = set[m];
      for (const PerspectiveIndex c : cfg.candidates) {
        if (std::find(set.begin(), set.end(), c) != set.end()) continue;
        if (cfg.max_per_rir > 0) {
          std::size_t same = 1;
          for (const PerspectiveIndex p : set) {
            if (p != out_p && cfg.rir_of.at(p) == cfg.rir_of.at(c)) ++same;
          }
          if (same > cfg.max_per_rir) continue;
        }
        // Swap in place, score the whole set, and swap back unless the
        // swap is a strict improvement.
        set[m] = c;
        ++swaps_tried;
        const auto candidate_score =
            analyzer_.score_set(set, required, std::nullopt, sc);
        if (score < candidate_score) {
          score = candidate_score;
          improved = true;
          ++swaps_kept;
          break;
        }
        set[m] = out_p;
      }
    }
  }
  if (obs::MetricsRegistry* metrics = cfg.observers.metrics) {
    metrics->counter("optimizer.climb_swaps_tried").add(swaps_tried);
    metrics->counter("optimizer.climb_swaps_kept").add(swaps_kept);
  }
}

RankedDeployment DeploymentOptimizer::hill_climb(
    std::vector<PerspectiveIndex> seed, const OptimizerConfig& cfg) const {
  if (seed.size() != cfg.set_size) {
    throw std::invalid_argument("seed size != config set_size");
  }
  const std::size_t required = cfg.set_size - cfg.max_failures;
  ResilienceAnalyzer::Score score =
      analyzer_.score_set(seed, required, std::nullopt, scratch());
  climb(seed, score, cfg, required);
  std::sort(seed.begin(), seed.end());
  return RankedDeployment{make_spec(cfg, std::move(seed), std::nullopt, 0),
                          score};
}

std::vector<RankedDeployment> DeploymentOptimizer::search_remotes(
    const OptimizerConfig& cfg) const {
  if (cfg.set_size == 0 || cfg.set_size > cfg.candidates.size()) {
    throw std::invalid_argument("set_size out of range");
  }
  if (cfg.max_failures >= cfg.set_size) {
    throw std::invalid_argument("quorum would allow all remotes to fail");
  }
  return cfg.strategy == SearchStrategy::Exhaustive ? search_exhaustive(cfg)
                                                    : search_beam(cfg);
}

std::vector<RankedDeployment> DeploymentOptimizer::attach_primaries(
    const OptimizerConfig& cfg,
    std::vector<RankedDeployment> remote_sets) const {
  const auto& primaries = cfg.primary_candidates.empty()
                              ? cfg.candidates
                              : cfg.primary_candidates;
  if (remote_sets.size() > cfg.primary_pool) {
    remote_sets.resize(cfg.primary_pool);
  }
  TopK top(cfg.top_k);
  ResilienceAnalyzer::ScoreScratch& sc = scratch();
  const std::size_t required = cfg.set_size - cfg.max_failures;

  for (const RankedDeployment& rd : remote_sets) {
    // One success mask per remote set; each primary only ANDs its own row
    // into the mask, so trying every primary is popcount-cheap.
    analyzer_.build_success_mask(rd.spec.remotes, required, sc);
    for (const PerspectiveIndex primary : primaries) {
      if (std::find(rd.spec.remotes.begin(), rd.spec.remotes.end(), primary) !=
          rd.spec.remotes.end()) {
        continue;
      }
      // Encode (remotes, primary) as remotes + trailing primary; decoded
      // below when building specs.
      std::vector<PerspectiveIndex> encoded = rd.spec.remotes;
      encoded.push_back(primary);
      top.offer(encoded, analyzer_.score_from_mask(sc, primary));
    }
  }

  std::vector<RankedDeployment> out;
  std::size_t rank = 0;
  for (auto& [encoded, score] : top.sorted()) {
    std::vector<PerspectiveIndex> remotes(encoded.begin(),
                                          encoded.end() - 1);
    out.push_back(RankedDeployment{
        make_spec(cfg, std::move(remotes), encoded.back(), rank++), score});
  }
  return out;
}

std::vector<RankedDeployment> DeploymentOptimizer::optimize(
    const OptimizerConfig& cfg) const {
  if (!cfg.with_primary) return search_remotes(cfg);
  // Make sure the remote-set pool feeding primary selection is large enough.
  OptimizerConfig pool_cfg = cfg;
  pool_cfg.top_k = std::max(cfg.top_k, cfg.primary_pool);
  return attach_primaries(cfg, search_remotes(pool_cfg));
}

RankedDeployment DeploymentOptimizer::best(const OptimizerConfig& cfg) const {
  auto all = optimize(cfg);
  if (all.empty()) throw std::runtime_error("optimizer found no deployment");
  return std::move(all.front());
}

}  // namespace marcopolo::analysis

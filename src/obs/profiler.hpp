// In-process sampling CPU profiler: which *function* ate the budget.
//
// The wall-clock gate (run_compare.hpp) says *that* a build regressed, and
// per-phase attribution says in which bench phase. This profiler closes
// the remaining gap down to function granularity without reaching for
// external tooling: a per-thread CPU-time sampling profiler whose output
// feeds the same bundle/diff workflow as every other observability
// artifact (`profile.folded` for flamegraphs, sample events in trace.json
// for Perfetto, a top-N hot-symbol table in the run manifest for
// `mpinspect hotspots` / `diff`).
//
// Mechanism, per attached thread:
//   - timer_create(CLOCK_THREAD_CPUTIME_ID, SIGEV_THREAD_ID) arms a POSIX
//     timer that counts the thread's own CPU time — a blocked worker is
//     never sampled, so sample counts are CPU shares, not wall shares.
//   - The timer fires SIGPROF at `hz` (default 997 Hz — a prime, so the
//     sampler cannot phase-lock onto millisecond-periodic work).
//   - The SA_SIGINFO handler receives the thread's SampleRing through
//     sival_ptr, reads PC and frame pointer from the interrupted ucontext,
//     and walks the frame-pointer chain (the build keeps
//     -fno-omit-frame-pointer for exactly this) into the ring. The walk is
//     async-signal-safe by construction: no allocation, no locks, no
//     library calls except clock_gettime (a vDSO read); every dereference
//     is bounds-checked against the thread's stack extent.
//   - Symbolization happens entirely offline, after drain(): dladdr +
//     __cxa_demangle over the unique PCs, with a "[0xADDR]" fallback for
//     addresses no loaded object claims.
//
// Contract (the flight recorder's null-by-default / pure-observer rule):
// pipelines carry a `SamplingProfiler*` defaulting to nullptr; a null or
// unavailable profiler makes ProfiledThread a no-op. Profiling on, off,
// or unavailable leaves the ResultStore, manifest counters, and journal
// records byte-identical (test-enforced) — the profiler only ever *adds*
// its own artifacts (profile.folded, trace.json sample events, the
// manifest "profile" section), never perturbs anyone else's.
//
// Availability is a property of host and architecture, not the build:
// frame-pointer walking is implemented for x86-64 and aarch64 on Linux;
// elsewhere probe() is false with a reason and everything degrades to
// off. Nothing throws, nothing retries.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace marcopolo::obs {

/// Default sampling rate. Prime, so periodic workloads cannot alias.
inline constexpr std::uint32_t kDefaultProfileHz = 997;

/// One decoded sample: the interrupted PC plus its return-address chain.
struct RawSample {
  static constexpr std::size_t kMaxDepth = 64;
  std::uint64_t ns = 0;     ///< CLOCK_MONOTONIC at sample time.
  std::uint16_t depth = 0;  ///< Frames stored in pc[] (>= 1 when valid).
  bool truncated = false;   ///< Walk stopped at kMaxDepth, frames remained.
  /// pc[0] is the interrupted instruction (leaf); pc[i>0] are return
  /// addresses, callee to caller. Symbolization subtracts 1 from return
  /// addresses to land inside the call instruction.
  std::array<std::uintptr_t, kMaxDepth> pc{};
};

/// Lock-free fixed-capacity sample sink owned by one profiled thread.
///
/// The writer is the SIGPROF handler, which always runs on the ring's own
/// thread (SIGEV_THREAD_ID targets the signal), so appends never race
/// each other; `close()` is the only cross-path edge — it is set before
/// timer_delete(), and a signal the kernel already queued when the timer
/// died sees the closed flag and drops the sample instead of writing
/// into a ring being drained. Samples are stored word-encoded
/// ([header][ns][pc...]) so a deep stack costs depth+2 words, not a
/// fixed-size slot.
class SampleRing {
 public:
  /// Storage is allocated *uninitialized*: decode() only ever reads words
  /// the handler wrote, and zero-filling a 16 MiB ring would eagerly
  /// fault every page at attach time — measurable per-worker cost in the
  /// recording-overhead budget, where lazy faulting of the few touched
  /// pages is nearly free.
  explicit SampleRing(std::size_t capacity_words)
      : words_(new std::uint64_t[capacity_words]),
        capacity_(capacity_words) {}

  /// Append one sample. Async-signal-safe: bounded work, no allocation.
  /// Returns false (and counts the drop) when the ring is closed or full.
  bool try_append(const RawSample& sample);

  /// Refuse all further appends. Called before the timer is torn down so
  /// a signal arriving inside the drain path cannot touch the storage.
  void close() { closed_.store(true, std::memory_order_release); }
  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }

  /// Decode everything appended so far. Only meaningful after close()
  /// (drain-time; the recorder-style owner guarantees the ordering).
  [[nodiscard]] std::vector<RawSample> decode() const;

  [[nodiscard]] std::uint64_t samples() const { return samples_; }
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Stack extent of the owning thread, set at attach time; the handler
  /// rejects any frame pointer outside [stack_lo, stack_hi).
  std::uintptr_t stack_lo = 0;
  std::uintptr_t stack_hi = 0;

 private:
  std::unique_ptr<std::uint64_t[]> words_;
  std::size_t capacity_ = 0;   ///< Ring capacity in words.
  std::size_t used_ = 0;       ///< Words written (owner thread only).
  std::uint64_t samples_ = 0;  ///< Samples encoded (owner thread only).
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<bool> closed_{false};
};

/// Everything one profiled thread produced.
struct ThreadSamples {
  std::uint32_t thread_id = 0;  ///< Attach order, 0-based.
  std::vector<RawSample> samples;
  std::uint64_t dropped = 0;
};

/// A drained run's raw (unsymbolized) profile.
struct RawProfile {
  std::uint32_t hz = 0;
  /// False when the profiler never opened (probe failed); consumers emit
  /// nothing, so an unavailable profiler matches a null one byte for byte.
  bool available = false;
  std::vector<ThreadSamples> threads;

  [[nodiscard]] std::uint64_t sample_count() const {
    std::uint64_t n = 0;
    for (const ThreadSamples& t : threads) n += t.samples.size();
    return n;
  }
  [[nodiscard]] std::uint64_t dropped_count() const {
    std::uint64_t n = 0;
    for (const ThreadSamples& t : threads) n += t.dropped;
    return n;
  }
};

class SamplingProfiler;

/// RAII thread attachment: arms the per-thread CPU-time timer for the
/// scope of the guard. Null or unavailable profiler = complete no-op, so
/// worker loops attach unconditionally.
class ProfiledThread {
 public:
  explicit ProfiledThread(SamplingProfiler* profiler);
  ~ProfiledThread();
  ProfiledThread(const ProfiledThread&) = delete;
  ProfiledThread& operator=(const ProfiledThread&) = delete;

 private:
  SamplingProfiler* profiler_ = nullptr;
  SampleRing* ring_ = nullptr;
  /// Opaque timer handle (timer_t) — stored as pointer-sized storage so
  /// the header needs no <time.h>.
  void* timer_ = nullptr;
  bool timer_armed_ = false;
};

/// Owns the per-thread rings plus the process-wide SIGPROF handler
/// registration. One live instance at a time (a second concurrent
/// profiler reports unavailable); mirrors FlightRecorder's shape —
/// threads attach, the owner drains after they finish.
class SamplingProfiler {
 public:
  explicit SamplingProfiler(std::uint32_t hz = kDefaultProfileHz);
  ~SamplingProfiler();
  SamplingProfiler(const SamplingProfiler&) = delete;
  SamplingProfiler& operator=(const SamplingProfiler&) = delete;

  /// True when this instance can arm timers and record samples.
  [[nodiscard]] bool available() const { return available_; }
  /// Human-readable reason when unavailable ("" when available).
  [[nodiscard]] const std::string& unavailable_reason() const {
    return reason_;
  }
  [[nodiscard]] std::uint32_t hz() const { return hz_; }

  /// Whole-process probe: is sampling possible on this host/arch at all?
  /// Cached after the first call; lets CLIs report availability without
  /// constructing a profiler.
  static bool probe();
  static const std::string& probe_reason();

  /// Merge every ring into one RawProfile and reset the profiler. Call
  /// after all ProfiledThread guards have been destroyed (mirrors
  /// FlightRecorder::drain()).
  [[nodiscard]] RawProfile drain();

  /// Ring capacity per attached thread, in words (~8 bytes each; a
  /// sample costs depth + 2). The default holds ~2 minutes at 997 Hz for
  /// typical 15-frame stacks; overflow is counted, never resized.
  static constexpr std::size_t kRingWords = 1u << 21;  // 16 MiB / thread

 private:
  friend class ProfiledThread;
  /// Called by ProfiledThread on its own thread. Returns the ring (owned
  /// by the profiler, alive past the thread's exit) or nullptr when
  /// unavailable.
  SampleRing* attach_current_thread(void** timer_out, bool* armed_out);
  void detach_current_thread(SampleRing* ring, void* timer, bool armed);

  std::uint32_t hz_;
  bool available_ = false;
  std::string reason_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<SampleRing>> rings_;
};

}  // namespace marcopolo::obs

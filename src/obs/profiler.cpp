#include "obs/profiler.hpp"

#include <cstring>

#if defined(__linux__) && (defined(__x86_64__) || defined(__aarch64__))
#define MARCOPOLO_PROFILER_SUPPORTED 1
#else
#define MARCOPOLO_PROFILER_SUPPORTED 0
#endif

#if MARCOPOLO_PROFILER_SUPPORTED
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>
#endif

namespace marcopolo::obs {

namespace {

// Word encoding inside SampleRing:
//   word 0: header — depth in the low 16 bits, truncated flag at bit 16
//   word 1: CLOCK_MONOTONIC nanoseconds
//   words 2..2+depth: program counters, leaf first
constexpr std::uint64_t kTruncatedBit = 1ull << 16;
constexpr std::uint64_t kDepthMask = 0xffffull;

}  // namespace

bool SampleRing::try_append(const RawSample& sample) {
  if (closed_.load(std::memory_order_acquire)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const std::size_t depth = sample.depth;
  const std::size_t need = depth + 2;
  if (depth == 0 || depth > RawSample::kMaxDepth ||
      used_ + need > capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::uint64_t* out = words_.get() + used_;
  out[0] = static_cast<std::uint64_t>(depth) |
           (sample.truncated ? kTruncatedBit : 0);
  out[1] = sample.ns;
  for (std::size_t i = 0; i < depth; ++i) {
    out[2 + i] = static_cast<std::uint64_t>(sample.pc[i]);
  }
  used_ += need;
  ++samples_;
  return true;
}

std::vector<RawSample> SampleRing::decode() const {
  std::vector<RawSample> out;
  out.reserve(samples_);
  std::size_t at = 0;
  while (at < used_) {
    const std::uint64_t header = words_[at];
    const std::size_t depth = static_cast<std::size_t>(header & kDepthMask);
    if (depth == 0 || depth > RawSample::kMaxDepth ||
        at + depth + 2 > used_) {
      break;  // corrupt tail; keep what decoded cleanly
    }
    RawSample s;
    s.depth = static_cast<std::uint16_t>(depth);
    s.truncated = (header & kTruncatedBit) != 0;
    s.ns = words_[at + 1];
    for (std::size_t i = 0; i < depth; ++i) {
      s.pc[i] = static_cast<std::uintptr_t>(words_[at + 2 + i]);
    }
    out.push_back(s);
    at += depth + 2;
  }
  return out;
}

#if MARCOPOLO_PROFILER_SUPPORTED

namespace {

// One live profiler at a time: the SIGPROF disposition is process-wide.
std::atomic<SamplingProfiler*> g_active_profiler{nullptr};
std::atomic<bool> g_handler_installed{false};

/// The SIGPROF handler. Runs on the thread whose timer fired
/// (SIGEV_THREAD_ID); the ring arrives through sival_ptr, so the handler
/// touches no globals beyond what the kernel hands it. Everything here
/// must stay async-signal-safe: fixed work, no allocation, no locks.
void profiler_signal_handler(int /*signo*/, siginfo_t* info, void* ucontext) {
  if (info == nullptr || ucontext == nullptr) return;
  auto* ring = static_cast<SampleRing*>(info->si_value.sival_ptr);
  if (ring == nullptr) return;

  const auto* uc = static_cast<const ucontext_t*>(ucontext);
#if defined(__x86_64__)
  auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  auto fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__)
  auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
  auto fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
#endif

  RawSample sample;
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);  // vDSO read; async-signal-safe
  sample.ns = static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
              static_cast<std::uint64_t>(ts.tv_nsec);
  sample.pc[sample.depth++] = pc;

  // Frame-pointer walk. Each frame stores [saved fp][return address] at
  // *fp; the chain must stay inside the thread's stack, stay aligned,
  // and grow strictly toward the stack base, or we stop.
  const std::uintptr_t lo = ring->stack_lo;
  const std::uintptr_t hi = ring->stack_hi;
  while (sample.depth < RawSample::kMaxDepth) {
    if (fp < lo || fp + 2 * sizeof(std::uintptr_t) > hi ||
        (fp & (sizeof(std::uintptr_t) - 1)) != 0) {
      break;
    }
    std::uintptr_t next_fp;
    std::uintptr_t ret;
    std::memcpy(&next_fp, reinterpret_cast<const void*>(fp),
                sizeof(next_fp));
    std::memcpy(&ret,
                reinterpret_cast<const void*>(fp + sizeof(std::uintptr_t)),
                sizeof(ret));
    if (ret == 0) break;
    sample.pc[sample.depth++] = ret;
    if (next_fp <= fp) break;  // must move toward the stack base
    fp = next_fp;
  }
  if (sample.depth == RawSample::kMaxDepth) sample.truncated = true;

  ring->try_append(sample);
}

/// Stack extent of the calling thread via pthread_getattr_np (works for
/// the main thread too on glibc/musl). Zeroes on failure — the handler
/// then rejects every frame pointer, yielding depth-1 samples rather
/// than risking a wild read.
void current_stack_extent(std::uintptr_t* lo, std::uintptr_t* hi) {
  *lo = 0;
  *hi = 0;
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) != 0) return;
  void* addr = nullptr;
  std::size_t size = 0;
  if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
    *lo = reinterpret_cast<std::uintptr_t>(addr);
    *hi = *lo + size;
  }
  pthread_attr_destroy(&attr);
}

}  // namespace

SamplingProfiler::SamplingProfiler(std::uint32_t hz)
    : hz_(hz == 0 ? kDefaultProfileHz : hz) {
  if (!probe()) {
    reason_ = probe_reason();
    return;
  }
  SamplingProfiler* expected = nullptr;
  if (!g_active_profiler.compare_exchange_strong(expected, this)) {
    reason_ = "another SamplingProfiler instance is active";
    return;
  }
  // Install the SIGPROF disposition once per process and leave it in
  // place: a handler finding a null/closed ring is a no-op, whereas
  // restoring SIG_DFL would turn a late-queued SIGPROF into process
  // death.
  if (!g_handler_installed.load(std::memory_order_acquire)) {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = profiler_signal_handler;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0) {
      reason_ = "sigaction(SIGPROF) failed";
      g_active_profiler.store(nullptr);
      return;
    }
    g_handler_installed.store(true, std::memory_order_release);
  }
  available_ = true;
}

SamplingProfiler::~SamplingProfiler() {
  SamplingProfiler* self = this;
  g_active_profiler.compare_exchange_strong(self, nullptr);
}

bool SamplingProfiler::probe() {
  // Creating and deleting a per-thread CPU-time timer is the whole
  // requirement; no privileges are involved.
  static const bool ok = [] {
    struct sigevent sev;
    std::memset(&sev, 0, sizeof(sev));
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    sev._sigev_un._tid = static_cast<pid_t>(syscall(SYS_gettid));
    timer_t timer;
    if (timer_create(CLOCK_THREAD_CPUTIME_ID, &sev, &timer) != 0) {
      return false;
    }
    timer_delete(timer);
    return true;
  }();
  return ok;
}

const std::string& SamplingProfiler::probe_reason() {
  static const std::string reason =
      probe() ? std::string{}
              : "timer_create(CLOCK_THREAD_CPUTIME_ID, SIGEV_THREAD_ID) "
                "failed";
  return reason;
}

SampleRing* SamplingProfiler::attach_current_thread(void** timer_out,
                                                    bool* armed_out) {
  *timer_out = nullptr;
  *armed_out = false;
  if (!available_) return nullptr;

  auto ring = std::make_unique<SampleRing>(kRingWords);
  current_stack_extent(&ring->stack_lo, &ring->stack_hi);
  SampleRing* raw = ring.get();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rings_.push_back(std::move(ring));
  }

  struct sigevent sev;
  std::memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_value.sival_ptr = raw;
  sev._sigev_un._tid = static_cast<pid_t>(syscall(SYS_gettid));
  timer_t timer;
  if (timer_create(CLOCK_THREAD_CPUTIME_ID, &sev, &timer) != 0) {
    // Ring stays registered (empty); the thread just goes unsampled.
    return raw;
  }
  *timer_out = reinterpret_cast<void*>(timer);

  const long interval_ns = 1'000'000'000l / static_cast<long>(hz_);
  struct itimerspec spec;
  spec.it_interval.tv_sec = 0;
  spec.it_interval.tv_nsec = interval_ns;
  spec.it_value = spec.it_interval;
  if (timer_settime(timer, 0, &spec, nullptr) == 0) {
    *armed_out = true;
  }
  return raw;
}

void SamplingProfiler::detach_current_thread(SampleRing* ring, void* timer,
                                             bool armed) {
  // Close before tearing the timer down: timer_delete leaves a pending
  // SIGPROF's fate unspecified, so one may still land afterwards — the
  // closed flag turns it into a counted drop instead of a late write.
  if (ring != nullptr) ring->close();
  if (timer != nullptr) {
    (void)armed;
    timer_delete(reinterpret_cast<timer_t>(timer));
  }
}

#else  // !MARCOPOLO_PROFILER_SUPPORTED

SamplingProfiler::SamplingProfiler(std::uint32_t hz)
    : hz_(hz == 0 ? kDefaultProfileHz : hz) {
  reason_ = probe_reason();
}

SamplingProfiler::~SamplingProfiler() = default;

bool SamplingProfiler::probe() { return false; }

const std::string& SamplingProfiler::probe_reason() {
  static const std::string reason =
      "sampling profiler requires Linux on x86-64 or aarch64";
  return reason;
}

SampleRing* SamplingProfiler::attach_current_thread(void** timer_out,
                                                    bool* armed_out) {
  *timer_out = nullptr;
  *armed_out = false;
  return nullptr;
}

void SamplingProfiler::detach_current_thread(SampleRing* /*ring*/,
                                             void* /*timer*/,
                                             bool /*armed*/) {}

#endif  // MARCOPOLO_PROFILER_SUPPORTED

RawProfile SamplingProfiler::drain() {
  RawProfile profile;
  profile.hz = hz_;
  profile.available = available_;
  std::vector<std::unique_ptr<SampleRing>> rings;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rings.swap(rings_);
  }
  profile.threads.reserve(rings.size());
  for (std::size_t i = 0; i < rings.size(); ++i) {
    SampleRing& ring = *rings[i];
    ring.close();  // defensive; ProfiledThread already closed it
    ThreadSamples t;
    t.thread_id = static_cast<std::uint32_t>(i);
    t.samples = ring.decode();
    t.dropped = ring.dropped();
    profile.threads.push_back(std::move(t));
  }
  // Rings are freed here: every timer that could reference them was
  // deleted when its ProfiledThread guard died.
  return profile;
}

ProfiledThread::ProfiledThread(SamplingProfiler* profiler)
    : profiler_(profiler) {
  if (profiler_ == nullptr || !profiler_->available()) {
    profiler_ = nullptr;
    return;
  }
  ring_ = profiler_->attach_current_thread(&timer_, &timer_armed_);
}

ProfiledThread::~ProfiledThread() {
  if (profiler_ == nullptr) return;
  profiler_->detach_current_thread(ring_, timer_, timer_armed_);
}

}  // namespace marcopolo::obs

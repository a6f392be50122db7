// Annotated mutex / condition-variable wrappers for clang thread-safety
// analysis (see util/thread_annotations.hpp).
//
// libstdc++'s std::mutex and lock guards carry no capability attributes, so
// `-Wthread-safety` cannot track them. These zero-overhead wrappers forward
// to the std types and add the attributes, which lets members be declared
// CDN_GUARDED_BY(mu_) and have the protocol checked at compile time.
//
// CondVar wraps std::condition_variable_any so it can wait directly on
// cdn::Mutex (a BasicLockable); waits keep the CDN_REQUIRES(mu) contract —
// the capability is held on entry and on return, exactly like
// std::condition_variable::wait.
//
// SpinMutex is the same capability with a spin-then-park lock(): it retries
// try_lock() a bounded number of times before blocking. It is meant for
// locks whose critical sections are shorter than a futex sleep/wake round
// trip (a cluster node's policy access, a hot-key tracker stripe); every
// other lock stays a plain Mutex.
#pragma once

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.hpp"

namespace cdn {

/// std::mutex with capability attributes for `-Wthread-safety`.
class CDN_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() CDN_ACQUIRE() { mu_.lock(); }
  void unlock() CDN_RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool try_lock() CDN_TRY_ACQUIRE(true) {
    return mu_.try_lock();
  }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Mutex whose lock() spins before it parks. A contended lock() first
/// retries try_lock() up to kSpinTries times with a CPU pause between
/// attempts (about 7 µs in all on a 4-core Xeon), then blocks in
/// std::mutex like Mutex does. A critical section of about half a
/// microsecond, even behind a few queued waiters, ends within the spin, so
/// a waiter rarely pays the futex sleep and wake-up that a blocking lock
/// costs on every contended acquisition. The bound is fixed and not an
/// option: it only has to cover such a queue, and past it the lock
/// degrades to a plain mutex. DESIGN.md §5j has the measurements behind
/// the constant.
class CDN_CAPABILITY("mutex") SpinMutex {
 public:
  static constexpr int kSpinTries = 256;

  SpinMutex() = default;
  SpinMutex(const SpinMutex&) = delete;
  SpinMutex& operator=(const SpinMutex&) = delete;

  void lock() CDN_ACQUIRE() CDN_NO_THREAD_SAFETY_ANALYSIS {
    // Acquisition happens on one of two paths into the unannotated
    // std::mutex; the ACQUIRE contract above is what callers are checked
    // against.
    for (int i = 0; i < kSpinTries; ++i) {
      if (mu_.try_lock()) return;
      cpu_relax();
    }
    mu_.lock();
  }
  void unlock() CDN_RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool try_lock() CDN_TRY_ACQUIRE(true) {
    return mu_.try_lock();
  }

 private:
  static void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  std::mutex mu_;
};

/// RAII lock for cdn::Mutex, tracked as a scoped capability.
class CDN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CDN_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() CDN_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII lock for cdn::SpinMutex, tracked as a scoped capability.
class CDN_SCOPED_CAPABILITY SpinMutexLock {
 public:
  explicit SpinMutexLock(SpinMutex& mu) CDN_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~SpinMutexLock() CDN_RELEASE() { mu_.unlock(); }

  SpinMutexLock(const SpinMutexLock&) = delete;
  SpinMutexLock& operator=(const SpinMutexLock&) = delete;

 private:
  SpinMutex& mu_;
};

/// Condition variable bound to cdn::Mutex.
///
/// wait() atomically releases and re-acquires `mu` internally; from the
/// analysis' point of view the capability is held across the call, so the
/// caller's guarded accesses before and after the wait both check out.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified. Caller must hold `mu` (re-held on return).
  /// Spurious wakeups are possible: always wait in a predicate loop.
  void wait(Mutex& mu) CDN_REQUIRES(mu) CDN_NO_THREAD_SAFETY_ANALYSIS {
    // The unlock/relock pair inside condition_variable_any::wait is not
    // expressible to the analysis; the REQUIRES contract above is what
    // callers are checked against.
    cv_.wait(mu);
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace cdn

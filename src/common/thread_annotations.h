// Clang -Wthread-safety annotation macros (docs/static_analysis.md).
//
// These expand to clang's capability-analysis attributes when the compiler supports
// them and to nothing everywhere else (GCC builds are unaffected: zero code, zero ABI
// impact). The macros let the compiler machine-check two locking disciplines that the
// runtime otherwise enforces only by convention:
//
//   * real mutexes — ThreadPool's batch state is CGRAPH_GUARDED_BY its mutex, so
//     any new access outside the lock is a compile error under clang, not a TSan race
//     that a given run may or may not exercise;
//   * the driver-thread role — everything outside ThreadPool (JobManager, the LTP
//     stages, CheckpointStore, ServiceDriver) is single-threaded *by contract*: exactly
//     one driver thread calls Step(), and worker threads touch only disjoint bitmask
//     words and relaxed atomic counters handed to them through RunBatch. That contract
//     is expressed as a zero-size capability (`ThreadRole` below): driver-only methods
//     are CGRAPH_REQUIRES_DRIVER and the engine's public entry points acquire
//     the role, so a RunBatch worker lambda that strays into driver-only state fails to
//     compile under clang instead of racing under load.
//
// Verify locally (needs clang): cmake --preset tidy && cmake --build --target
// thread_safety_check, or let the static-analysis CI job do it.

#ifndef SRC_COMMON_THREAD_ANNOTATIONS_H_
#define SRC_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && (!defined(SWIG))
#define CGRAPH_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define CGRAPH_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op on GCC and others
#endif

// A type that models a capability (a mutex, or a role like "the driver thread").
#define CGRAPH_CAPABILITY(x) CGRAPH_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

// An RAII type that acquires a capability in its constructor and releases it in its
// destructor (std::lock_guard-shaped).
#define CGRAPH_SCOPED_CAPABILITY CGRAPH_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

// The annotated field may only be read or written while holding the given capability.
#define CGRAPH_GUARDED_BY(x) CGRAPH_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

// The pointee of the annotated pointer is protected by the given capability.
#define CGRAPH_PT_GUARDED_BY(x) CGRAPH_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

// The annotated function may only be called while holding the given capabilities.
#define CGRAPH_REQUIRES(...) \
  CGRAPH_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define CGRAPH_REQUIRES_SHARED(...) \
  CGRAPH_THREAD_ANNOTATION_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))

// The annotated function acquires / releases the given capabilities.
#define CGRAPH_ACQUIRE(...) \
  CGRAPH_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define CGRAPH_ACQUIRE_SHARED(...) \
  CGRAPH_THREAD_ANNOTATION_ATTRIBUTE(acquire_shared_capability(__VA_ARGS__))
#define CGRAPH_RELEASE(...) \
  CGRAPH_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))
#define CGRAPH_RELEASE_SHARED(...) \
  CGRAPH_THREAD_ANNOTATION_ATTRIBUTE(release_shared_capability(__VA_ARGS__))

// The annotated function acquires the capability iff it returns the given value.
#define CGRAPH_TRY_ACQUIRE(...) \
  CGRAPH_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))

// The annotated function must NOT be called while holding the given capabilities
// (deadlock prevention for self-locking functions).
#define CGRAPH_EXCLUDES(...) CGRAPH_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

// The annotated function returns a reference to the given capability.
#define CGRAPH_RETURN_CAPABILITY(x) CGRAPH_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

// Asserts (at runtime, for the analysis) that the calling thread holds the capability.
#define CGRAPH_ASSERT_CAPABILITY(x) \
  CGRAPH_THREAD_ANNOTATION_ATTRIBUTE(assert_capability(x))

// Escape hatch: the annotated function body is exempt from analysis. Every use needs a
// justification comment (docs/static_analysis.md suppression policy).
#define CGRAPH_NO_THREAD_SAFETY_ANALYSIS \
  CGRAPH_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

namespace cgraph {

// A zero-size capability naming a *role* rather than a lock: code annotated
// CGRAPH_REQUIRES_DRIVER may only run on the engine's single driver thread.
// Acquire/Release are no-ops at runtime — the value is purely what the analysis proves:
// a worker-thread lambda (which never acquires the role) calling a driver-only method is
// a compile error under clang. See docs/static_analysis.md for the contract.
class CGRAPH_CAPABILITY("role") ThreadRole {
 public:
  ThreadRole() = default;
  ThreadRole(const ThreadRole&) = delete;
  ThreadRole& operator=(const ThreadRole&) = delete;

  void Acquire() CGRAPH_ACQUIRE() {}
  void Release() CGRAPH_RELEASE() {}
};

// The process-wide driver-thread role. One logical role suffices even with several
// engines in one process (tests): each engine is driven by exactly one thread at a
// time, and the analysis is per-function, not per-instance. A plain inline variable so
// capability expressions stay simple DeclRefExprs the analysis always resolves.
inline ThreadRole g_driver_role;

// Shorthand for the driver-thread discipline (docs/static_analysis.md): mutating
// methods of the single-driver subsystems are REQUIRES_DRIVER, read-only queries that
// must still not race with the driver are REQUIRES_DRIVER_SHARED, and the engine's
// public entry points (plus ServiceDriver::Run) acquire the role via ScopedThreadRole.
#define CGRAPH_REQUIRES_DRIVER CGRAPH_REQUIRES(::cgraph::g_driver_role)
#define CGRAPH_REQUIRES_DRIVER_SHARED CGRAPH_REQUIRES_SHARED(::cgraph::g_driver_role)
#define CGRAPH_GUARDED_BY_DRIVER CGRAPH_GUARDED_BY(::cgraph::g_driver_role)

// RAII role acquisition for the engine's public entry points (Step, Run, the service
// drivers). Runtime cost: two empty inline calls.
class CGRAPH_SCOPED_CAPABILITY ScopedThreadRole {
 public:
  explicit ScopedThreadRole(ThreadRole& role) CGRAPH_ACQUIRE(role) : role_(role) {
    role_.Acquire();
  }
  ~ScopedThreadRole() CGRAPH_RELEASE() { role_.Release(); }

  ScopedThreadRole(const ScopedThreadRole&) = delete;
  ScopedThreadRole& operator=(const ScopedThreadRole&) = delete;

 private:
  ThreadRole& role_;
};

}  // namespace cgraph

#endif  // SRC_COMMON_THREAD_ANNOTATIONS_H_

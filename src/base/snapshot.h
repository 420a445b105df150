// SnapshotSlot<T> -- atomic publication of immutable, refcounted state.
//
// The serving pattern (ldl::Service): a single writer builds a fresh
// immutable T, then Publish()es it; any number of concurrent readers
// Acquire() the current version as a shared_ptr<const T> and keep using it
// for as long as they like -- a later Publish never invalidates what a
// reader already holds, it only retires the slot's own reference. The last
// holder (reader or slot) frees the snapshot.
//
// Publish and Acquire are both tiny critical sections on one mutex (a
// shared_ptr copy / move), so readers never wait on snapshot *construction*
// or *destruction* and writers never wait on readers *using* a snapshot --
// only on the pointer swap itself.
#ifndef LDL1_BASE_SNAPSHOT_H_
#define LDL1_BASE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

namespace ldl {

template <typename T>
class SnapshotSlot {
 public:
  SnapshotSlot() = default;

  SnapshotSlot(const SnapshotSlot&) = delete;
  SnapshotSlot& operator=(const SnapshotSlot&) = delete;

  // Installs `snapshot` as the current version and returns its version
  // number (1 for the first publication). The previous snapshot is released
  // after the lock is dropped (and destroyed here if no reader still holds
  // it), so Acquire never waits for a retired snapshot's destructor.
  uint64_t Publish(std::shared_ptr<const T> snapshot) {
    std::shared_ptr<const T> retired;
    uint64_t version = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      retired = std::exchange(current_, std::move(snapshot));
      version = ++version_;
    }
    return version;
  }

  // The current snapshot (nullptr before the first Publish). The returned
  // reference stays valid across later publications.
  std::shared_ptr<const T> Acquire() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }

  // Number of publications so far.
  uint64_t version() const {
    std::lock_guard<std::mutex> lock(mu_);
    return version_;
  }

  // References currently held on the live snapshot, including the slot's
  // own (0 when nothing was published). Approximate by nature -- readers
  // acquire and release concurrently -- but exact when quiescent; Service
  // surfaces it as a serving stat.
  long snapshot_refs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_ ? current_.use_count() : 0;
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const T> current_;
  uint64_t version_ = 0;
};

}  // namespace ldl

#endif  // LDL1_BASE_SNAPSHOT_H_

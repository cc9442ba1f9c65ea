#include "nn/tensor.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <unordered_map>

namespace lossyts::nn {

namespace {

// Every buffer is preceded by a header holding the id of the pool that
// allocated it (0: none), so a buffer freed on another thread is told apart
// from the freeing thread's own. Ids are never reused, unlike the address
// of a dead thread's pool. The header keeps the data at the alignment
// operator new gives.
constexpr size_t kHeaderBytes = alignof(std::max_align_t);
static_assert(kHeaderBytes >= sizeof(uint64_t));

std::atomic<uint64_t> g_next_pool_id{1};

void* NewBuffer(size_t bytes, uint64_t owner) {
  auto* base = static_cast<std::byte*>(::operator new(bytes + kHeaderBytes));
  std::memcpy(base, &owner, sizeof(owner));
  return base + kHeaderBytes;
}

uint64_t BufferOwner(const void* p) {
  uint64_t owner;
  std::memcpy(&owner, static_cast<const std::byte*>(p) - kHeaderBytes,
              sizeof(owner));
  return owner;
}

void DeleteBuffer(void* p) {
  ::operator delete(static_cast<std::byte*>(p) - kHeaderBytes);
}

struct Bucket {
  std::vector<void*> free;
  size_t live = 0;        // Handed out by this thread, not yet returned.
  size_t peak = 0;        // Most live at once in the current step.
  uint64_t last_use = 0;  // Allocation clock of the latest hand-out.
};

// Every freed buffer is kept, so a step that allocates the previous step's
// shapes again is served from the free lists and never misses. Live + free
// bytes stay within the larger of the current and the previous step's sum
// of per-size peaks; only a miss or a step end can find them above it, and
// then the least recently used sizes' buffers go back to the heap first.
// A buffer another thread frees goes back to the heap and leaves that
// thread's counts alone; the allocating pool keeps counting it as live,
// which raises its bound and its live bytes alike, so the free bytes it
// retains do not grow.
class Pool {
 public:
  ~Pool();

  void* Allocate(size_t bytes);
  void Deallocate(void* p, size_t bytes);
  void EndStep();
  size_t FreeBuffers(size_t bytes) const;

 private:
  void Trim();

  const uint64_t id_ = g_next_pool_id.fetch_add(1, std::memory_order_relaxed);
  std::unordered_map<size_t, Bucket> buckets_;
  uint64_t clock_ = 0;
  size_t live_bytes_ = 0;
  size_t free_bytes_ = 0;
  size_t peak_bytes_ = 0;  // Sum over sizes of peak * bytes.
  size_t keep_bytes_ = 0;  // peak_bytes_ of the previous step.
};

// Set once this thread's pool is destroyed: tensors that outlive it (static
// ones on the main thread) then go straight to the heap. A trivially
// destructible thread_local stays readable until the thread is gone.
thread_local bool t_pool_destroyed = false;
thread_local Pool t_pool;

Pool::~Pool() {
  t_pool_destroyed = true;
  for (auto& [bytes, bucket] : buckets_) {
    for (void* p : bucket.free) DeleteBuffer(p);
  }
}

void* Pool::Allocate(size_t bytes) {
  Bucket& bucket = buckets_[bytes];
  bucket.last_use = ++clock_;
  live_bytes_ += bytes;
  if (++bucket.live > bucket.peak) {
    bucket.peak = bucket.live;
    peak_bytes_ += bytes;
  }
  if (!bucket.free.empty()) {
    void* p = bucket.free.back();
    bucket.free.pop_back();
    free_bytes_ -= bytes;
    return p;
  }
  Trim();
  return NewBuffer(bytes, id_);
}

void Pool::Deallocate(void* p, size_t bytes) {
  if (BufferOwner(p) != id_) {
    DeleteBuffer(p);
    return;
  }
  // A bucket with live buffers is never erased.
  auto it = buckets_.find(bytes);
  assert(it != buckets_.end() && it->second.live > 0);
  --it->second.live;
  live_bytes_ -= bytes;
  it->second.free.push_back(p);
  free_bytes_ += bytes;
}

void Pool::EndStep() {
  keep_bytes_ = peak_bytes_;
  peak_bytes_ = live_bytes_;
  for (auto& [bytes, bucket] : buckets_) bucket.peak = bucket.live;
  Trim();
  std::erase_if(buckets_, [](const auto& entry) {
    return entry.second.live == 0 && entry.second.free.empty();
  });
}

void Pool::Trim() {
  while (free_bytes_ > 0 &&
         live_bytes_ + free_bytes_ > std::max(keep_bytes_, peak_bytes_)) {
    std::pair<const size_t, Bucket>* oldest = nullptr;
    for (auto& entry : buckets_) {
      if (!entry.second.free.empty() &&
          (oldest == nullptr ||
           entry.second.last_use < oldest->second.last_use)) {
        oldest = &entry;
      }
    }
    DeleteBuffer(oldest->second.free.back());
    oldest->second.free.pop_back();
    free_bytes_ -= oldest->first;
  }
}

size_t Pool::FreeBuffers(size_t bytes) const {
  auto it = buckets_.find(bytes);
  return it == buckets_.end() ? 0 : it->second.free.size();
}

}  // namespace

void* TensorPool::Allocate(size_t bytes) {
  if (t_pool_destroyed) return NewBuffer(bytes, 0);
  return t_pool.Allocate(bytes);
}

void TensorPool::Deallocate(void* p, size_t bytes) noexcept {
  if (t_pool_destroyed) {
    DeleteBuffer(p);
    return;
  }
  t_pool.Deallocate(p, bytes);
}

void TensorPool::EndStep() {
  if (!t_pool_destroyed) t_pool.EndStep();
}

size_t TensorPool::FreeBuffers(size_t bytes) {
  return t_pool_destroyed ? 0 : t_pool.FreeBuffers(bytes);
}

}  // namespace lossyts::nn

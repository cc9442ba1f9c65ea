#ifndef LOSSYTS_NN_TENSOR_H_
#define LOSSYTS_NN_TENSOR_H_

#include <cassert>
#include <cstddef>
#include <vector>

namespace lossyts::nn {

/// Per-thread free lists of tensor buffers, keyed by byte size. A training
/// step frees its whole graph and the next step allocates the same shapes
/// again; handing the buffers back from here saves their round trip through
/// the C heap, which would trim its top after every step and fault the pages
/// back in on the next. A pool only takes back buffers it allocated; one
/// freed on another thread goes back to the heap.
/// Backward() marks the step boundary. Live plus free bytes stay within the
/// larger of the current and the previous step's sum of per-size peaks; a
/// miss that would exceed it first frees the least recently used sizes, so
/// a new model's shapes displace the last one's. Buffers come back
/// uninitialized: Tensor's storage vector value-initializes every element
/// it hands out.
class TensorPool {
 public:
  static void* Allocate(size_t bytes);
  static void Deallocate(void* p, size_t bytes) noexcept;
  /// Closes the calling thread's step: the step just ended becomes the
  /// previous one, and free buffers beyond the new bound go back to the
  /// heap, least recently used sizes first.
  static void EndStep();
  /// Free buffers of `bytes` the calling thread's pool holds (for tests).
  static size_t FreeBuffers(size_t bytes);
};

/// std::allocator stand-in that draws from the calling thread's TensorPool.
template <typename T>
struct PoolAllocator {
  using value_type = T;
  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) {}
  T* allocate(size_t n) {
    return static_cast<T*>(TensorPool::Allocate(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) noexcept {
    TensorPool::Deallocate(p, n * sizeof(T));
  }
  template <typename U>
  bool operator==(const PoolAllocator<U>&) const {
    return true;
  }
};

/// Dense row-major 2-D matrix of doubles — the value type of the autodiff
/// engine. Sequence models treat rows as time steps and columns as feature
/// channels; a plain vector is a 1×n or n×1 tensor.
class Tensor {
 public:
  using Storage = std::vector<double, PoolAllocator<double>>;

  Tensor() = default;
  Tensor(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Tensor FromVector(const std::vector<double>& v, bool column = true) {
    Tensor t(column ? v.size() : 1, column ? 1 : v.size());
    t.data_.assign(v.begin(), v.end());
    return t;
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  Storage& storage() { return data_; }
  const Storage& storage() const { return data_; }

  void Fill(double value) {
    for (double& v : data_) v = value;
  }

  bool SameShape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  Storage data_;
};

}  // namespace lossyts::nn

#endif  // LOSSYTS_NN_TENSOR_H_

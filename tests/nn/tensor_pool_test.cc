// The per-thread tensor buffer pool: reused buffers come back initialized,
// a buffer is only ever reused by the thread that allocated it, and what a
// pool retains is bounded by recent steps' peaks.

#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "nn/autodiff.h"
#include "nn/tensor.h"

namespace lossyts::nn {
namespace {

constexpr size_t kRows = 37;
constexpr size_t kCols = 29;
constexpr size_t kBytes = kRows * kCols * sizeof(double);

TEST(TensorPoolTest, ReusedBufferComesBackZeroFilled) {
  const double* first = nullptr;
  {
    Tensor t(kRows, kCols);
    first = t.data();
    t.Fill(-7.25);
  }
  EXPECT_GE(TensorPool::FreeBuffers(kBytes), 1u);
  Tensor again(kRows, kCols);
  ASSERT_EQ(again.data(), first) << "the freed buffer was not reused";
  for (double v : again.storage()) ASSERT_EQ(v, 0.0);
  for (double v : again.storage()) ASSERT_FALSE(std::signbit(v));

  again.Fill(3.0);
  const double* second = again.data();
  again = Tensor(kRows, kCols, 1.5);  // Allocates, then frees `second`.
  for (double v : again.storage()) ASSERT_EQ(v, 1.5);
  Tensor third(kRows, kCols);
  ASSERT_EQ(third.data(), second);
  for (double v : third.storage()) ASSERT_EQ(v, 0.0);
}

TEST(TensorPoolTest, GradientsStartFromZeroOnReusedBuffers) {
  // Backward zero-fills every gradient and MatMul's forward accumulates into
  // a zero-filled output; both must hold when the buffers were last used for
  // something else.
  Rng rng(5);
  Tensor a0(kRows, kCols);
  Tensor b0(kCols, kRows);
  for (double& v : a0.storage()) v = rng.Uniform(-1.0, 1.0);
  for (double& v : b0.storage()) v = rng.Uniform(-1.0, 1.0);
  auto run = [&](Tensor* value, Tensor* grad) {
    Var a = MakeVar(a0, true);
    Var b = MakeVar(b0, true);
    Var out = MatMul(a, b);
    Backward(Mean(out));
    *value = out->value;
    *grad = a->grad;
  };
  Tensor value1, grad1, value2, grad2;
  run(&value1, &grad1);
  for (int i = 0; i < 4; ++i) {
    Tensor junk(kRows, kRows, 1e300);
    Tensor junk2(kRows, kCols, -1e300);
  }
  run(&value2, &grad2);
  EXPECT_EQ(std::memcmp(value1.data(), value2.data(),
                        value1.size() * sizeof(double)),
            0);
  EXPECT_EQ(
      std::memcmp(grad1.data(), grad2.data(), grad1.size() * sizeof(double)),
      0);
}

TEST(TensorPoolTest, TwoThreadsNeverShareABuffer) {
  // Thread A frees a buffer into its pool and stays alive; thread B, asking
  // for the same size, must get a different buffer, and A gets its own back.
  const double* a_freed = nullptr;
  const double* a_again = nullptr;
  const double* b_got = nullptr;
  std::thread a([&] {
    { Tensor t(kRows, kCols, 1.0); a_freed = t.data(); }
    std::thread b([&] {
      Tensor t(kRows, kCols, 2.0);
      b_got = t.data();
    });
    b.join();
    Tensor t(kRows, kCols);
    a_again = t.data();
  });
  a.join();
  EXPECT_NE(b_got, a_freed);
  EXPECT_EQ(a_again, a_freed);
}

TEST(TensorPoolTest, BufferFreedOnAnotherThreadGoesBackToTheHeap) {
  // A allocates `moved`, which B frees while B holds a live buffer of the
  // same size. B must not take `moved` in, nor lose count of its own; A
  // must retain no more than its real usage.
  std::thread a([] {
    auto moved = std::make_unique<Tensor>(kRows, kCols, 1.0);
    {
      Tensor a_own(kRows, kCols, 2.0);
      std::thread b([&moved] {
        auto b_own = std::make_unique<Tensor>(kRows, kCols, 3.0);
        moved.reset();
        EXPECT_EQ(TensorPool::FreeBuffers(kBytes), 0u);
        b_own.reset();
        EXPECT_EQ(TensorPool::FreeBuffers(kBytes), 1u);
      });
      b.join();
    }
    EXPECT_EQ(TensorPool::FreeBuffers(kBytes), 1u);
    // This step peaked at two live buffers, `moved` still counted live:
    // the one free buffer fits. A step without the size frees it.
    TensorPool::EndStep();
    EXPECT_EQ(TensorPool::FreeBuffers(kBytes), 1u);
    TensorPool::EndStep();
    EXPECT_EQ(TensorPool::FreeBuffers(kBytes), 0u);
  });
  a.join();
}

TEST(TensorPoolTest, ConcurrentThreadsKeepTheirBuffersPrivate) {
  // Each thread stamps its id into every buffer it holds and checks the
  // stamp before freeing; a buffer handed to two threads at once would be
  // overwritten. TSan also watches the pool state itself.
  auto worker = [](double id) {
    for (int round = 0; round < 200; ++round) {
      std::vector<Tensor> held;
      for (size_t n = 1; n <= 8; ++n) held.emplace_back(n, 16, id);
      for (const Tensor& t : held) {
        for (double v : t.storage()) ASSERT_EQ(v, id);
      }
      if (round % 50 == 0) TensorPool::EndStep();
    }
  };
  std::thread t1(worker, 1.0);
  std::thread t2(worker, 2.0);
  t1.join();
  t2.join();
}

TEST(TensorPoolTest, RetainsNoMoreThanRecentPeaks) {
  std::thread t([] {
    {
      std::vector<Tensor> step;
      for (int i = 0; i < 5; ++i) step.emplace_back(kRows, kCols);
    }
    EXPECT_EQ(TensorPool::FreeBuffers(kBytes), 5u);
    // The next step uses only two of that size: one step later the pool
    // keeps two, and none once a step passes without the size.
    TensorPool::EndStep();
    {
      Tensor x(kRows, kCols);
      Tensor y(kRows, kCols);
    }
    TensorPool::EndStep();
    EXPECT_EQ(TensorPool::FreeBuffers(kBytes), 2u);
    TensorPool::EndStep();
    EXPECT_EQ(TensorPool::FreeBuffers(kBytes), 0u);
  });
  t.join();
}

TEST(TensorPoolTest, NewShapesDisplaceIdleOnesWithinTheBudget) {
  // A model switch: the previous shapes sit idle in the pool while the new
  // ones are allocated. A miss frees idle buffers first, so live plus free
  // bytes stay within the previous step's peak.
  std::thread t([] {
    constexpr size_t kOther = kRows + 1;
    {
      std::vector<Tensor> old_step;
      for (int i = 0; i < 4; ++i) old_step.emplace_back(kRows, kCols);
    }
    TensorPool::EndStep();
    std::vector<Tensor> new_step;
    for (int i = 0; i < 3; ++i) new_step.emplace_back(kOther, kCols);
    // Three live buffers of the new, larger size leave no room for a
    // fourth of the old one.
    EXPECT_EQ(TensorPool::FreeBuffers(kBytes), 0u);
  });
  t.join();
}

}  // namespace
}  // namespace lossyts::nn

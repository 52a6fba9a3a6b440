// spi::Reactor's posted-task queue on its own, without HTTP: order and
// exactly-once delivery on the loop thread, many producers, run_sync, the
// stopped gate, and one poller wake per burst of posts.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "concurrency/reactor.hpp"
#include "concurrency/wait_group.hpp"

namespace spi {
namespace {

TEST(ReactorTest, PostsRunOnceEachInOrderOnTheLoopThread) {
  Reactor reactor;
  reactor.start();
  constexpr int kPosts = 1000;
  std::vector<int> ran;  // loop thread only until run_sync returns
  std::atomic<bool> off_loop{false};
  for (int i = 0; i < kPosts; ++i) {
    reactor.post([&, i] {
      if (!reactor.on_loop_thread()) off_loop = true;
      ran.push_back(i);
    });
  }
  reactor.run_sync([] {});  // FIFO: every earlier post has run
  EXPECT_FALSE(off_loop.load());
  ASSERT_EQ(ran.size(), static_cast<size_t>(kPosts));
  for (int i = 0; i < kPosts; ++i) EXPECT_EQ(ran[i], i);
  reactor.stop();
}

TEST(ReactorTest, FourProducersTenThousandPostsEachAllRun) {
  Reactor reactor;
  reactor.start();
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 10'000;
  std::vector<int> next(kProducers, 0);  // loop thread only
  std::atomic<bool> out_of_order{false};
  {
    std::vector<std::jthread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          reactor.post([&, p, i] {
            if (next[p]++ != i) out_of_order = true;
          });
        }
      });
    }
  }
  reactor.run_sync([] {});
  EXPECT_FALSE(out_of_order.load());
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next[p], kPerProducer);
  reactor.stop();
}

TEST(ReactorTest, RunSyncFromAnotherThreadReturnsAfterItsTaskRan) {
  Reactor reactor;
  reactor.start();
  // Hold the loop inside a posted task, so the run_sync task waits its turn.
  CountdownLatch loop_busy(1);
  CountdownLatch release(1);
  reactor.post([&] {
    loop_busy.count_down();
    release.wait();
  });
  loop_busy.wait();

  bool ran = false;  // written on the loop thread
  std::atomic<bool> returned{false};
  std::jthread caller([&] {
    reactor.run_sync([&] { ran = true; });
    EXPECT_TRUE(ran);
    returned = true;
  });
  EXPECT_FALSE(returned.load());  // its task cannot run while the loop is held
  release.count_down();
  caller.join();
  EXPECT_TRUE(returned.load());
  reactor.stop();
}

TEST(ReactorTest, TryPostAfterStopReturnsFalse) {
  Reactor reactor;
  reactor.start();
  reactor.stop();
  bool ran = false;
  EXPECT_FALSE(reactor.try_post([&] { ran = true; }));
  EXPECT_FALSE(ran);
}

/// Forwards to the platform poller and counts wake() calls.
class CountingPoller : public net::Poller {
 public:
  explicit CountingPoller(std::atomic<int>& wakes)
      : inner_(net::Poller::create()), wakes_(wakes) {}

  Status add(int fd, std::uint64_t token, std::uint32_t interest) override {
    return inner_->add(fd, token, interest);
  }
  Status modify(int fd, std::uint64_t token,
                std::uint32_t interest) override {
    return inner_->modify(fd, token, interest);
  }
  Status remove(int fd) override { return inner_->remove(fd); }
  Result<size_t> wait(net::PollEvent* events, size_t capacity,
                      Duration timeout) override {
    return inner_->wait(events, capacity, timeout);
  }
  void wake() override {
    wakes_.fetch_add(1);
    inner_->wake();
  }
  std::string_view backend() const override { return inner_->backend(); }

 private:
  std::unique_ptr<net::Poller> inner_;
  std::atomic<int>& wakes_;
};

TEST(ReactorTest, PostsQueuedWhileLoopIsBusyShareOneWake) {
  std::atomic<int> wakes{0};
  Reactor reactor(Reactor::Options{}, std::make_unique<CountingPoller>(wakes));
  reactor.start();
  CountdownLatch loop_busy(1);
  CountdownLatch release(1);
  reactor.post([&] {
    loop_busy.count_down();
    release.wait();
  });
  loop_busy.wait();
  EXPECT_EQ(wakes.load(), 1);

  // The loop took the queue when it started the held task, so the first of
  // these posts finds it empty and wakes; the rest ride that wake.
  constexpr int kQueued = 16;
  CountdownLatch queued_ran(kQueued);
  for (int i = 0; i < kQueued; ++i) {
    reactor.post([&] { queued_ran.count_down(); });
  }
  EXPECT_EQ(wakes.load(), 2);
  release.count_down();
  queued_ran.wait();

  // The drain emptied the queue again: the next post must wake the loop
  // (no lost wake-up), not wait for the idle timeout.
  CountdownLatch next_ran(1);
  reactor.post([&] { next_ran.count_down(); });
  EXPECT_EQ(wakes.load(), 3);
  next_ran.wait();
  reactor.stop();
}

}  // namespace
}  // namespace spi

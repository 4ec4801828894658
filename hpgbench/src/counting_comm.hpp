// Benchmark-side counting and timing Comm wrapper: forwards every call to
// the wrapped communicator, counts allreduces, halo messages and halo
// payload bytes, and times the calls that block (collectives, blocking
// receives, and the wait of every nonblocking request). Each blocking call
// is also recorded as a span under the caller's span. One instance per
// rank, used only by that rank's thread.
#pragma once

#include <chrono>
#include <cstddef>
#include <memory>

#include "comm/comm.hpp"
#include "spans.hpp"

namespace hpgbench {

class CountingComm final : public hpgmx::Comm {
 public:
  struct Counts {
    std::size_t allreduces = 0;
    std::size_t halo_messages = 0;  ///< point-to-point sends
    std::size_t halo_bytes = 0;     ///< payload bytes of those sends
    double wait_seconds = 0.0;      ///< time blocked in the calls below
  };

  /// Blocking calls are recorded in `spans` as children of span `parent`.
  CountingComm(hpgmx::Comm& inner, SpanRecorder& spans, int parent)
      : inner_(&inner), spans_(&spans), parent_(parent) {}

  [[nodiscard]] const Counts& counts() const { return counts_; }

  [[nodiscard]] int rank() const override { return inner_->rank(); }
  [[nodiscard]] int size() const override { return inner_->size(); }

  void send_bytes(int dst, int tag, const void* data,
                  std::size_t bytes) override {
    count_send(bytes);
    const Timed t(*this, "comm.send");
    inner_->send_bytes(dst, tag, data, bytes);
  }
  void recv_bytes(int src, int tag, void* data, std::size_t bytes) override {
    const Timed t(*this, "comm.recv");
    inner_->recv_bytes(src, tag, data, bytes);
  }
  hpgmx::Request isend_bytes(int dst, int tag, const void* data,
                             std::size_t bytes) override {
    count_send(bytes);
    return timed(inner_->isend_bytes(dst, tag, data, bytes));
  }
  hpgmx::Request irecv_bytes(int src, int tag, void* data,
                             std::size_t bytes) override {
    return timed(inner_->irecv_bytes(src, tag, data, bytes));
  }

  void barrier() override {
    const Timed t(*this, "comm.barrier");
    inner_->barrier();
  }
  void allreduce_bytes(const void* in, void* out, std::size_t n,
                       const hpgmx::detail::TypeOps& ops,
                       hpgmx::ReduceOp op) override {
    ++counts_.allreduces;
    const Timed t(*this, "comm.allreduce");
    inner_->allreduce_bytes(in, out, n, ops, op);
  }
  void allgather_bytes(const void* in, void* out, std::size_t n,
                       const hpgmx::detail::TypeOps& ops) override {
    const Timed t(*this, "comm.allgather");
    inner_->allgather_bytes(in, out, n, ops);
  }
  void bcast_bytes(void* data, std::size_t n,
                   const hpgmx::detail::TypeOps& ops, int root) override {
    const Timed t(*this, "comm.bcast");
    inner_->bcast_bytes(data, n, ops, root);
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// Adds the lifetime of the guard to the blocked-time total and records
  /// it as a span.
  class Timed {
   public:
    Timed(CountingComm& c, const char* name)
        : c_(&c),
          span_(c.spans_->open(name, c.parent_, 0, c.rank())),
          t0_(Clock::now()) {}
    ~Timed() {
      c_->counts_.wait_seconds +=
          std::chrono::duration<double>(Clock::now() - t0_).count();
      c_->spans_->close(span_);
    }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    CountingComm* c_;
    int span_;
    Clock::time_point t0_;
  };

  /// Request state that times the inner request's wait.
  class TimedWait final : public hpgmx::Request::State {
   public:
    TimedWait(hpgmx::Request inner, CountingComm& c)
        : inner_(std::move(inner)), c_(&c) {}
    void wait() override {
      const Timed t(*c_, "comm.wait");
      inner_.wait();
    }

   private:
    hpgmx::Request inner_;
    CountingComm* c_;
  };

  void count_send(std::size_t bytes) {
    ++counts_.halo_messages;
    counts_.halo_bytes += bytes;
  }

  hpgmx::Request timed(hpgmx::Request inner) {
    if (!inner.valid()) {
      return inner;
    }
    return hpgmx::Request(std::make_shared<TimedWait>(std::move(inner), *this));
  }

  hpgmx::Comm* inner_;
  SpanRecorder* spans_;
  int parent_;
  Counts counts_;
};

}  // namespace hpgbench

// Nonblocking-operation handles. Sends complete eagerly (buffered, like
// MPI_Bsend), so an isend's Request is born complete; an irecv_into's Request
// carries a deferred completion that performs the blocking receive when
// waited on. This model is deadlock-free for any program whose sends are
// matched by receives — which covers the ring exchange in Algorithm 3.
#pragma once

#include <functional>
#include <utility>

namespace svmmpi {

class Request {
 public:
  Request() = default;
  explicit Request(std::function<void()> completion) : completion_(std::move(completion)) {}

  Request(Request&&) noexcept = default;
  Request& operator=(Request&&) noexcept = default;
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  /// Completes the operation. Idempotent.
  void wait() {
    if (completion_) {
      auto fn = std::move(completion_);
      completion_ = nullptr;
      fn();
    }
  }

  [[nodiscard]] bool complete() const noexcept { return completion_ == nullptr; }

 private:
  std::function<void()> completion_;
};

}  // namespace svmmpi

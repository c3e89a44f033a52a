#include "mpisim/mailbox.hpp"

#include <algorithm>
#include <chrono>

#include "mpisim/fault.hpp"

namespace svmmpi {

void Mailbox::push(Message message) {
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(message));
  }
  available_.notify_all();
}

bool Mailbox::find_match_locked(int context, int source, int tag, std::size_t& index) const {
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Message& m = queue_[i];
    if (m.context == context && m.source == source && m.tag == tag) {
      index = i;
      return true;
    }
  }
  return false;
}

Message Mailbox::pop(int context, int source, int tag, const std::function<bool()>& interrupt) {
  std::unique_lock lock(mutex_);
  std::size_t index = 0;
  bool interrupted = false;
  // A queued matching message always wins over an interrupt: the peer's
  // message was delivered before it died, exactly as on a real network.
  const auto ready = [&] {
    if (aborted_ || find_match_locked(context, source, tag, index)) return true;
    interrupted = interrupt && interrupt();
    return interrupted;
  };
  if (timeout_s_ <= 0.0) {
    available_.wait(lock, ready);
  } else {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(timeout_s_));
    if (!available_.wait_until(lock, deadline, ready))
      throw TimeoutError(owner_rank_, source, tag, timeout_s_, "blocking receive");
  }
  if (aborted_) throw WorldAborted{};
  if (interrupted && !find_match_locked(context, source, tag, index))
    throw RendezvousInterrupted{};
  Message result = std::move(queue_[index]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
  return result;
}

bool Mailbox::pop_for(int context, int source, int tag, double deadline_s,
                      const std::function<bool()>& interrupt, Message& out) {
  std::unique_lock lock(mutex_);
  std::size_t index = 0;
  bool interrupted = false;
  // Same precedence as pop(): a queued matching message beats an interrupt —
  // the peer's message was delivered before it died.
  const auto ready = [&] {
    if (aborted_ || find_match_locked(context, source, tag, index)) return true;
    interrupted = interrupt && interrupt();
    return interrupted;
  };
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(std::max(deadline_s, 0.0)));
  if (!available_.wait_until(lock, deadline, ready)) return false;
  if (aborted_) throw WorldAborted{};
  if (interrupted && !find_match_locked(context, source, tag, index))
    throw RendezvousInterrupted{};
  out = std::move(queue_[index]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
  return true;
}

bool Mailbox::try_pop(int context, int source, int tag, Message& out) {
  std::lock_guard lock(mutex_);
  if (aborted_) throw WorldAborted{};
  std::size_t index = 0;
  if (!find_match_locked(context, source, tag, index)) return false;
  out = std::move(queue_[index]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
  return true;
}

void Mailbox::abort() {
  {
    std::lock_guard lock(mutex_);
    aborted_ = true;
  }
  available_.notify_all();
}

void Mailbox::poke() {
  // Take the lock so a poke cannot slip between a waiter's predicate check
  // and its wait, which would lose the wakeup.
  { std::lock_guard lock(mutex_); }
  available_.notify_all();
}

std::size_t Mailbox::pending() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

}  // namespace svmmpi

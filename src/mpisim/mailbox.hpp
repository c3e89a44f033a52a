// Point-to-point message transport: one Mailbox per destination rank.
// Messages are tagged byte payloads; receives match (context, source, tag)
// exactly and preserve per-(source,tag) FIFO order, mirroring MPI's
// non-overtaking guarantee.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

namespace svmmpi {

struct Message {
  int context = 0;  ///< communicator context id
  int source = 0;   ///< sender's rank within that communicator
  int tag = 0;
  std::uint64_t flow_id = 0;  ///< trace flow correlation id; 0 = untraced
  std::vector<std::byte> payload;
};

/// Thrown from blocking operations when the World is torn down after a rank
/// failed; prevents deadlock when a sibling rank throws mid-protocol.
struct WorldAborted : std::exception {
  [[nodiscard]] const char* what() const noexcept override {
    return "svmmpi: world aborted (another rank raised an error)";
  }
};

/// Thrown from a blocking wait whose `interrupt` predicate fired: the awaited
/// peer (or a collective member) was marked failed while we waited. An
/// internal wake signal — Comm converts it into the public RankLost verdict;
/// it never escapes the mpisim layer.
struct RendezvousInterrupted : std::exception {
  [[nodiscard]] const char* what() const noexcept override {
    return "svmmpi: blocking operation interrupted by a peer failure";
  }
};

class Mailbox {
 public:
  /// `owner_rank` names this mailbox's rank in errors; `timeout_s` > 0 turns
  /// a blocked pop into a TimeoutError after that many wall-clock seconds
  /// (0 = wait forever, the MPI default).
  explicit Mailbox(int owner_rank = -1, double timeout_s = 0.0)
      : owner_rank_(owner_rank), timeout_s_(timeout_s) {}

  void push(Message message);

  /// Blocks until a message matching (context, source, tag) exactly is
  /// available and removes it. Throws WorldAborted if abort() is called
  /// while waiting, and TimeoutError naming (rank, source, tag) once the
  /// configured deadline elapses with no matching message. When `interrupt`
  /// is provided and becomes true while waiting (re-checked whenever poke()
  /// fires), pop throws RendezvousInterrupted — the elastic path uses this
  /// to wake a receiver whose awaited peer has been marked failed, without
  /// waiting for the full deadline.
  [[nodiscard]] Message pop(int context, int source, int tag,
                            const std::function<bool()>& interrupt = {});

  /// Non-blocking variant; returns false if no matching message is queued.
  [[nodiscard]] bool try_pop(int context, int source, int tag, Message& out);

  /// Deadline-bounded pop: waits at most `deadline_s` seconds for a matching
  /// message and returns false on expiry instead of throwing TimeoutError —
  /// a deadline miss here is an expected outcome (the serving engine's
  /// per-request timeout / hedged-dispatch path), not a hang diagnosis, so it
  /// ignores the mailbox-wide timeout_s. WorldAborted and the interrupt
  /// mechanics behave exactly like pop(). `deadline_s` <= 0 degenerates to
  /// try_pop with interrupt checking.
  [[nodiscard]] bool pop_for(int context, int source, int tag, double deadline_s,
                             const std::function<bool()>& interrupt, Message& out);

  /// Wakes all waiters; subsequent/pending blocking pops throw WorldAborted.
  void abort();

  /// Wakes all waiters so they re-evaluate their interrupt predicates (e.g.
  /// after a rank is marked failed). Does not change mailbox state.
  void poke();

  [[nodiscard]] std::size_t pending() const;

 private:
  [[nodiscard]] bool find_match_locked(int context, int source, int tag,
                                       std::size_t& index) const;

  mutable std::mutex mutex_;
  std::condition_variable available_;
  std::deque<Message> queue_;
  int owner_rank_ = -1;
  double timeout_s_ = 0.0;
  bool aborted_ = false;
};

}  // namespace svmmpi

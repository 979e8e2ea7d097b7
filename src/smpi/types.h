// Basic shared types for the SMPI message-passing substrate.
//
// SMPI is a threads-as-ranks implementation of the MPI subset required by
// the generated halo-exchange code: tagged point-to-point messaging
// (blocking and nonblocking with test/wait), collectives, and Cartesian
// topologies. Each rank is a thread inside one process; message payloads
// are copied between address spaces exactly once (send side), mirroring
// MPI's buffered-send semantics.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace smpi {

/// Wildcard source for receive matching (mirrors MPI_ANY_SOURCE).
inline constexpr int kAnySource = -1;
/// Wildcard tag for receive matching (mirrors MPI_ANY_TAG).
inline constexpr int kAnyTag = -1;
/// Null process: sends/recvs to it are no-ops (mirrors MPI_PROC_NULL).
inline constexpr int kProcNull = -2;

/// Reduction operators for allreduce/reduce.
enum class ReduceOp {
  Sum,
  Min,
  Max,
  Prod,
};

/// Message channels separate user point-to-point traffic from internal
/// collective traffic so collectives can never match user receives.
enum class Channel : std::uint8_t {
  User = 0,
  Collective = 1,
};

/// Completion status of a receive (source/tag/size of the matched message).
struct Status {
  int source = kAnySource;
  int tag = kAnyTag;
  std::size_t bytes = 0;
};

/// Transport-level delivery counters, shared by every mailbox of a World.
/// A delivery is one increment that counts the message together with its
/// first payload copy. `rendezvous` deliveries copy the sender's span
/// straight into a posted receive buffer (the only copy); `queued`
/// deliveries materialize a pooled payload first and pay a
/// `second_copies` copy when a receive later matches them. A snapshot
/// taken while other ranks deliver therefore never sees a message
/// without its copy: copies_per_message() is exactly 1.0 whenever every
/// receive is pre-posted.
struct TransportCounters {
  std::atomic<std::uint64_t> rendezvous{0};
  std::atomic<std::uint64_t> queued{0};
  std::atomic<std::uint64_t> second_copies{0};
  std::atomic<std::uint64_t> bytes_delivered{0};

  std::uint64_t messages() const {
    return rendezvous.load(std::memory_order_relaxed) +
           queued.load(std::memory_order_relaxed);
  }
  std::uint64_t payload_copies() const {
    return second_copies.load(std::memory_order_relaxed) + messages();
  }
  double copies_per_message() const {
    // Second copies first: each follows its message's delivery, so the
    // later message count already includes it.
    const std::uint64_t second = second_copies.load(std::memory_order_relaxed);
    const std::uint64_t n = messages();
    return n == 0 ? 0.0
                  : static_cast<double>(n + second) / static_cast<double>(n);
  }
};

}  // namespace smpi

// Radio abstraction: messages travel only along edges of the base
// connectivity graph (UDG disk or k-NN edge set), the exact assumption the
// paper's algorithms are defined under. Accounts messages and transmit
// energy per node with the power-law model E = d^beta (Li-Wan-Wang).
//
// Delivery order: every send takes the same one-hop latency, so ordering
// deliveries by arrival time (ties by send order) is ordering them by send
// order. The radio therefore keeps a plain FIFO of sends, and a run is a
// pure function of its inputs. A broadcast is one queued record that
// delivers to the sender's neighbors in CSR order when it reaches the
// front; whatever a receiver sends meanwhile queues behind every earlier
// send. Payloads are opaque to the radio.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "sens/geograph/geo_graph.hpp"

namespace sens {

struct Message {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint32_t kind = 0;  ///< protocol-defined tag
  std::int64_t a = 0;      ///< protocol-defined payload words
  std::int64_t b = 0;
  std::int64_t c = 0;
  std::int64_t d = 0;
};

class Radio {
 public:
  /// `net` must outlive the radio; beta is the path-loss exponent.
  explicit Radio(const GeoGraph& net, double beta = 2.0);

  /// Unicast along a graph edge; throws if (from, to) is not an edge.
  void unicast(Message msg);

  /// Broadcast to every graph neighbor of `msg.from` (to field is filled in
  /// per recipient). Energy: one transmission at the farthest-neighbor
  /// range.
  void broadcast(Message msg);

  using Receiver = std::function<void(const Message&)>;

  /// Deliver queued sends in send order until the queue is empty,
  /// including the sends `receive` makes along the way. Throws
  /// std::runtime_error instead of delivering send number max_sends + 1,
  /// a guard against a protocol that never quiesces.
  void run(const Receiver& receive, std::size_t max_sends = 100'000'000);

  [[nodiscard]] std::size_t messages_sent() const { return messages_; }
  [[nodiscard]] double total_energy() const;
  [[nodiscard]] double node_energy(std::uint32_t v) const { return energy_[v]; }

 private:
  struct Send {
    Message msg;
    bool is_broadcast;
  };

  const GeoGraph* net_;
  double beta_;
  std::deque<Send> queue_;
  std::vector<double> energy_;
  std::size_t messages_ = 0;
};

}  // namespace sens

#include "sens/runtime/radio.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace sens {

Radio::Radio(const GeoGraph& net, double beta)
    : net_(&net), beta_(beta), energy_(net.size(), 0.0) {}

void Radio::unicast(Message msg) {
  if (!net_->graph.has_edge(msg.from, msg.to)) {
    throw std::logic_error("Radio::unicast: not a link of the base graph");
  }
  ++messages_;
  energy_[msg.from] += std::pow(net_->edge_length(msg.from, msg.to), beta_);
  queue_.push_back({msg, false});
}

void Radio::broadcast(Message msg) {
  const auto neighbors = net_->graph.neighbors(msg.from);
  if (neighbors.empty()) return;
  ++messages_;
  double range = 0.0;
  for (const std::uint32_t v : neighbors)
    range = std::max(range, net_->edge_length(msg.from, v));
  energy_[msg.from] += std::pow(range, beta_);
  queue_.push_back({msg, true});
}

void Radio::run(const Receiver& receive, std::size_t max_sends) {
  for (std::size_t sends = 0; !queue_.empty(); ++sends) {
    if (sends == max_sends) {
      throw std::runtime_error("Radio::run: protocol still sending after max_sends sends");
    }
    // Copied out and popped first: the receiver may push to the queue.
    Send send = queue_.front();
    queue_.pop_front();
    if (!send.is_broadcast) {
      receive(send.msg);
      continue;
    }
    for (const std::uint32_t v : net_->graph.neighbors(send.msg.from)) {
      send.msg.to = v;
      receive(send.msg);
    }
  }
}

double Radio::total_energy() const {
  return std::accumulate(energy_.begin(), energy_.end(), 0.0);
}

}  // namespace sens

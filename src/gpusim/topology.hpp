// A multi-device topology: N simulated devices connected by an interconnect
// whose links carry modeled transfers on the shared simulated clock.
//
// The link graph is either a bidirectional ring (device i connects to its
// two cyclic neighbours; a transfer takes the shorter direction) or a full
// mesh (every ordered pair has a direct link). Each directed link has a
// fixed latency and bandwidth, and serializes the transfers routed over it:
// a transfer departs a link no earlier than the link's previous transfer
// arrived (contention-free serialization per link — no packet interleaving,
// no routing dynamics; see docs/SHARDING.md for the model's limits).
//
// Transfers are store-and-forward per hop and purely additive on the sim
// clock, like kernel and allocation charges: Topology never moves real
// bytes — the DP values are computed host-side by the GPU engine's fill,
// and the topology charges what moving them would have cost.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/device_spec.hpp"
#include "util/sim_time.hpp"

namespace pcmax::gpusim {

/// Shape of the link graph connecting the devices.
enum class TopologyKind {
  kRing,      ///< device i <-> i±1 (mod N); transfers take the short way
  kFullMesh,  ///< direct link between every ordered device pair
};

/// "ring" / "fullmesh", the names the CLI and bench flags accept.
[[nodiscard]] std::string_view topology_kind_name(TopologyKind kind) noexcept;
/// Inverse of topology_kind_name; nullopt for unknown names.
[[nodiscard]] std::optional<TopologyKind> parse_topology_kind(
    std::string_view name) noexcept;

/// Cost parameters of one directed link. The defaults model a PCIe 3.0 x16
/// peer-to-peer path (the interconnect a multi-K40 node of the paper's era
/// would have had): ~5 us end-to-end latency, 16 GB/s per direction.
struct InterconnectSpec {
  util::SimTime link_latency = util::SimTime::microseconds(5);
  double link_bandwidth_gbps = 16.0;

  /// Throws util::contract_violation when fields are inconsistent.
  void validate() const;

  /// Time one link is busy carrying `bytes` (serialization, no latency).
  [[nodiscard]] util::SimTime serialization(std::uint64_t bytes) const;
};

class Topology {
 public:
  /// Builds `device_count` devices from `spec` (ordinals 0..N-1, so each
  /// device's kernel spans land on its own set of trace tracks) connected
  /// per `kind`.
  Topology(int device_count, const DeviceSpec& spec,
           TopologyKind kind = TopologyKind::kFullMesh,
           InterconnectSpec link = {});

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  [[nodiscard]] int device_count() const noexcept {
    return static_cast<int>(devices_.size());
  }
  [[nodiscard]] Device& device(int i);
  [[nodiscard]] const Device& device(int i) const;

  /// True when device `i` was lost mid-solve (injected `device-lost` fault,
  /// or declared unreachable after link failures). Sticky until reset().
  [[nodiscard]] bool device_lost(int i) const;
  /// Devices not currently lost.
  [[nodiscard]] int alive_count() const noexcept;
  /// Directed links taken down by injected `link-down` faults.
  [[nodiscard]] int down_link_count() const noexcept;
  [[nodiscard]] TopologyKind kind() const noexcept { return kind_; }
  [[nodiscard]] const InterconnectSpec& link_spec() const noexcept {
    return link_;
  }

  /// Links a transfer from `from` to `to` traverses (0 when from == to).
  [[nodiscard]] int hop_count(int from, int to) const;

  /// Charges one transfer of `bytes` from `from` to `to` (from != to),
  /// store-and-forward over the hop path: on each link the transfer departs
  /// at max(arrival at the hop, link free time) and arrives one latency
  /// plus one serialization later; the link is busy until then. Starts at
  /// the source device's current clock. Returns the arrival time at `to`;
  /// device clocks are NOT advanced — the caller decides when a consumer
  /// must wait (see GpuDpSolver's level loop).
  ///
  /// Routes around links downed by injected `link-down` faults (ring: the
  /// other direction; mesh: a two-hop detour through the lowest-ordinal
  /// live intermediate). Throws DeviceLost when either endpoint is lost or
  /// no live route remains (the destination is then marked lost too: from
  /// the solver's point of view an unreachable device is a lost device).
  util::SimTime transfer(int from, int to, std::uint64_t bytes);

  /// The cross-device wavefront barrier: synchronizes every live device and
  /// aligns their clocks to the latest one, so the next block-level starts
  /// simultaneously everywhere. Lost devices are skipped (their clocks stay
  /// frozen at the moment of loss). Returns the aligned time.
  util::SimTime barrier();

  /// Latest device clock.
  [[nodiscard]] util::SimTime now() const noexcept;

  /// Advances every device clock by `delta` (externally-accounted time,
  /// e.g. probe rounds simulated on scratch topologies).
  void advance(util::SimTime delta);

  /// Resets every device (see Device::reset, which also revives lost ones)
  /// and cold-starts the interconnect: per-link free-at timestamps,
  /// TransferStats, and downed links are all cleared, so a post-recovery
  /// solve observes the exact transfer charges of a fresh topology. The
  /// clocks survive.
  void reset();

  /// Mutes or unmutes trace emission on every device and on the
  /// interconnect spans (scratch topologies modeling concurrent probes
  /// disable emission, like scratch devices do).
  void set_trace_emission(bool enabled) noexcept;

  struct TransferStats {
    std::uint64_t transfers = 0;  ///< transfer() calls
    std::uint64_t bytes = 0;      ///< payload bytes summed over transfers
    std::uint64_t hops = 0;       ///< links traversed, summed
    util::SimTime busy;           ///< total time links spent carrying data
  };
  [[nodiscard]] const TransferStats& transfer_stats() const noexcept {
    return transfer_stats_;
  }

  /// Device stats summed over all devices.
  [[nodiscard]] Device::Stats aggregate_stats() const;

 private:
  /// A concrete hop sequence: nodes visited and the directed link of each
  /// hop. Empty `nodes` means no live route exists.
  struct Route {
    std::vector<int> nodes;
    std::vector<std::size_t> links;
  };

  /// Directed-link index for one hop.
  [[nodiscard]] std::size_t link_index(int from, int to) const;
  /// Ring walk in one direction; empty Route when a link on it is down or
  /// an intermediate device is lost.
  [[nodiscard]] Route ring_route(int from, int to, int step) const;
  /// Live route avoiding down links and lost intermediates.
  [[nodiscard]] Route route(int from, int to) const;

  TopologyKind kind_;
  InterconnectSpec link_;
  std::vector<std::unique_ptr<Device>> devices_;
  /// Per directed link: the time its last transfer arrived.
  std::vector<util::SimTime> link_free_at_;
  /// Per directed link: 1 once a `link-down` fault took it out (sticky
  /// until reset()).
  std::vector<std::uint8_t> link_down_;
  TransferStats transfer_stats_;
  bool trace_emission_ = true;
};

}  // namespace pcmax::gpusim

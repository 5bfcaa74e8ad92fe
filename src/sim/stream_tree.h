// One compiled StreamSpec. compile_stream is the only code in src/sim that
// reads a spec's links, receivers or contributors: it validates the spec
// against DataPlane::open_stream's contract (src/sim/data_plane.h) and
// returns the immutable tree the solo, sharded and flow engines all build
// their per-stream state from. The sharded engine compiles once and hands
// the same tree to every domain replica. A tree is O(tree) in size: nothing
// in it is indexed by node id, and engines index their per-stream state by
// position in `nodes` (the "tree index"), never by node id.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/sim/config.h"
#include "src/sim/data_plane.h"
#include "src/topology/topology.h"

namespace peel {

struct StreamTree {
  /// A node the spec touches: the source and both endpoints of every
  /// listed link.
  struct Node {
    NodeId node = kInvalidNode;
    /// The link through which a breadth-first walk from the source first
    /// enters this node (in a tree, its one in-link). kInvalidLink at the
    /// source and at every node the source never reaches.
    LinkId parent = kInvalidLink;
    /// Index in `nodes` of the parent link's source; -1 where parent is
    /// kInvalidLink. Following it walks a reached node up to the source.
    std::int32_t up = -1;
    /// Distinct paths from the source into this node, a link listed twice
    /// counting twice: 1 at the source and everywhere on a tree, 0 where
    /// unreached, more where the links enter a node again (legal, and the
    /// byte audit reports it). Saturates at INT32_MAX.
    std::int32_t paths = 0;
    /// out_links[out_begin, out_end): this node's out-links, in spec order.
    std::int32_t out_begin = 0;
    std::int32_t out_end = 0;
    std::int32_t combiner = -1;  ///< index in `combiners`, or -1 (none)
  };

  /// One paced sender: a multicast's source, or one reduce contributor.
  struct Injector {
    NodeId node = kInvalidNode;
    /// kInvalidLink for a multicast source, which injects onto its fan-out;
    /// for a contributor, the mirror of its parent link.
    LinkId up_link = kInvalidLink;
    /// The link whose rate paces this injector: the NIC, not NVLink.
    LinkId pace_link = kInvalidLink;
    std::int32_t at = -1;  ///< index of `node` in `nodes`
  };

  /// An aggregation point of a reduce stream: an interior tree node, whose
  /// fan-in is link for link the mirror of its fan-out.
  struct Combiner {
    NodeId node = kInvalidNode;
    std::int32_t at = -1;  ///< index of `node` in `nodes`
    /// Mirror of the parent link; kInvalidLink at the pivot (the source),
    /// where the combined bytes turn into the down multicast.
    LinkId up_link = kInvalidLink;
    std::vector<LinkId> child_links;  ///< sorted mirrors of the out-links
  };

  NodeId source = kInvalidNode;
  CnpMode cnp_mode = CnpMode::ReceiverTimer;
  std::uint64_t tag = 0;
  std::vector<Node> nodes;        ///< sorted by node id
  std::vector<LinkId> out_links;  ///< every node's out-links, in node order
  std::vector<std::int32_t> out_dst;  ///< tree index each out-link enters
  std::vector<NodeId> receivers;  ///< duplicates removed, first listing wins
  /// Parallel to receivers: each one's index in `nodes`, or -1 off the tree.
  std::vector<std::int32_t> receiver_at;
  /// One at the source for a multicast; one per contributor, in spec order,
  /// for a reduce stream.
  std::vector<Injector> injectors;
  /// Reduce streams only (a valid one has at least the pivot), by node id.
  std::vector<Combiner> combiners;

  [[nodiscard]] bool reduce() const noexcept { return !combiners.empty(); }
  /// The tree node for `n`, or nullptr if the spec never touches it.
  [[nodiscard]] const Node* find(NodeId n) const noexcept {
    const auto it = std::ranges::lower_bound(nodes, n, {}, &Node::node);
    return it != nodes.end() && it->node == n ? &*it : nullptr;
  }
  [[nodiscard]] std::span<const LinkId> out_of(const Node& n) const noexcept {
    return std::span<const LinkId>(out_links).subspan(
        static_cast<std::size_t>(n.out_begin),
        static_cast<std::size_t>(n.out_end - n.out_begin));
  }
};

/// The chunks sent on one stream, and DataPlane::send_chunk's contract.
/// Every engine keeps one per stream, so a send or a cancel is checked and
/// recorded once; a sharded stream's domain replicas all read the one table
/// ShardedNetwork::open_stream made, and only control steps write it.
class ChunkTable {
 public:
  /// Checks a send and records the chunk's target. Throws, recording
  /// nothing, in this order:
  /// std::logic_error on a closed stream, std::invalid_argument on a
  /// non-positive size or a negative index, std::logic_error on a chunk that
  /// already has a target.
  void send(int chunk, Bytes bytes);
  /// Un-records a sent chunk (a cancel): it may be sent again.
  void cancel(int chunk) { want_[static_cast<std::size_t>(chunk)] = 0; }
  /// Refuses every later send and frees the targets.
  void close();
  [[nodiscard]] bool closed() const noexcept { return closed_; }
  /// Bytes each receiver is owed of `chunk`: 0 = never sent, cancelled, or
  /// the stream is closed.
  [[nodiscard]] Bytes target(std::size_t chunk) const noexcept {
    return chunk < want_.size() ? want_[chunk] : 0;
  }
  /// Every chunk's target, by chunk index.
  [[nodiscard]] std::span<const Bytes> targets() const noexcept {
    return want_;
  }

 private:
  std::vector<Bytes> want_;
  bool closed_ = false;
};

/// Validates `spec` and compiles it; throws std::invalid_argument when the
/// spec breaks the open_stream contract.
[[nodiscard]] std::shared_ptr<const StreamTree> compile_stream(
    const Topology& topo, const StreamSpec& spec);

}  // namespace peel

// The multicast tree produced by a construction run: parent/children links
// over the peer set, plus the basic shape metrics the paper reports
// (longest root-to-leaf path, per-peer tree degree).
//
// Sparse layout. As in the paper's construction, a peer holds tree state
// only once a request has reached it, so storage follows the tree, not the
// overlay: memory and copy cost are O(reached_count()), never O(n).
//  * `nodes_` is a flat slab of trivially copyable 16-byte nodes, one per
//    reached peer: {peer:31 | delivers:1, parent, first_child,
//    next_sibling}. `parent` is a peer id; the two links are slab
//    positions, so a node's children are an intrusive singly linked list
//    threaded through their own nodes. A child is appended at the tail of
//    its parent's list and unlinked in place, so every list keeps
//    insertion order. The root is inserted first and can never be
//    removed, so it always sits at nodes_[0]. Removal swap-removes: the
//    last node moves into the freed slot, and the one link that named it
//    (its parent's first_child or its previous sibling's next_sibling)
//    and its index entry are repointed.
//  * `index_` maps a peer to its slab position by open addressing: a
//    power-of-two table of 4-byte slab positions (a probe step compares
//    the peer of the node an entry names), Fibonacci hashing on the high
//    bits of the peer id, linear probing, and backward-shift deletion (no
//    tombstones, so a probe for an unreached peer stops at the first empty
//    entry). The table doubles before its load exceeds 1/2 and never
//    shrinks.
// A copy is therefore two contiguous vector copies with no per-node
// allocation: 16 B per node plus 8-16 B of index.
// Invariants: every node's peer appears in exactly one index entry, and
// that entry points back at the node; nodes_.size() == reached_count();
// a node's parent is a reached peer (kInvalidPeer only for the root) and
// lists the node among its children exactly once.
//
// The delivery flag marks a reached peer that consumes what the tree
// carries (a group's spanned subscriber) as opposed to a pure relay;
// delivering_count() tracks the flagged nodes, and freeing a node drops its
// flag with it.
//
// The public view is the dense one: peer_count() is n, accessors throw
// std::out_of_range for p >= n, and an unreached peer reports no parent,
// no children and no flag. Any mutation may move nodes, so a range
// returned by children() or a pointer returned by node() is valid only
// until the next add_edge/remove_leaf/reattach.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <type_traits>
#include <vector>

#include "overlay/peer.hpp"

namespace geomcast::multicast {

using overlay::PeerId;
using overlay::kInvalidPeer;

class MulticastTree {
 public:
  /// Slab position of a node; kNoNode ends a children list.
  using NodeIndex = std::uint32_t;
  static constexpr NodeIndex kNoNode = static_cast<NodeIndex>(-1);

  /// One reached peer's tree state. The delivery flag shares the peer
  /// id's word (peer ids are below 2^31; the constructor checks), and the
  /// children are reached through the tree (children(const Node&)).
  struct Node {
    PeerId peer : 31;
    PeerId delivers : 1;  // the delivery flag (see the header comment)
    PeerId parent;
    NodeIndex first_child;
    NodeIndex next_sibling;
  };
  static_assert(sizeof(Node) == 2 * sizeof(PeerId) + 2 * sizeof(NodeIndex));
  static_assert(std::is_trivially_copyable_v<Node>);

  /// A node's children in insertion order: a forward range over the
  /// sibling links, valid until the tree's next mutation.
  class Children {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = PeerId;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = PeerId;

      iterator() = default;
      PeerId operator*() const noexcept { return nodes_[at_].peer; }
      iterator& operator++() noexcept {
        at_ = nodes_[at_].next_sibling;
        return *this;
      }
      iterator operator++(int) noexcept {
        iterator before = *this;
        ++*this;
        return before;
      }
      bool operator==(const iterator& other) const noexcept { return at_ == other.at_; }

     private:
      friend class Children;
      iterator(const Node* nodes, NodeIndex at) : nodes_(nodes), at_(at) {}
      const Node* nodes_ = nullptr;
      NodeIndex at_ = kNoNode;
    };

    [[nodiscard]] iterator begin() const noexcept { return {nodes_, first_}; }
    [[nodiscard]] iterator end() const noexcept { return {nodes_, kNoNode}; }
    [[nodiscard]] bool empty() const noexcept { return first_ == kNoNode; }
    /// Walks the list: O(children).
    [[nodiscard]] std::size_t size() const noexcept {
      return static_cast<std::size_t>(std::distance(begin(), end()));
    }

   private:
    friend class MulticastTree;
    Children(const Node* nodes, NodeIndex first) : nodes_(nodes), first_(first) {}
    const Node* nodes_;
    NodeIndex first_;
  };

  MulticastTree() = default;
  MulticastTree(std::size_t peer_count, PeerId root);

  [[nodiscard]] std::size_t peer_count() const noexcept { return peer_count_; }
  [[nodiscard]] PeerId root() const noexcept { return root_; }

  /// Links `child` under `parent`; both must be in range, `child` must not
  /// already have a parent (throws std::logic_error — a duplicate delivery
  /// is a protocol bug the validator reports separately).
  void add_edge(PeerId parent, PeerId child);

  /// Detaches `leaf` (must be reached, childless, and not the root); it
  /// returns to the unreached state and its node is freed. Used by the
  /// groups subsystem to cascade relay-only branches away after an
  /// unsubscribe.
  void remove_leaf(PeerId leaf);

  /// Moves `child` (with its whole subtree) under `new_parent`, which must
  /// be reached and must not lie inside `child`'s subtree (a cycle would
  /// silently detach the subtree from the root — checked, throws).
  /// Used by churn repair.
  void reattach(PeerId child, PeerId new_parent);

  /// True iff `descendant` lies in the subtree rooted at `ancestor`
  /// (every peer is in its own subtree). Walks parent links upward.
  [[nodiscard]] bool in_subtree(PeerId ancestor, PeerId descendant) const;

  [[nodiscard]] bool reached(PeerId p) const { return find(checked(p)) != nullptr; }
  /// `p`'s node, or nullptr when unreached: a forwarding step reads the
  /// flag and the children with this one lookup.
  [[nodiscard]] const Node* node(PeerId p) const { return find(checked(p)); }

  /// Sets or clears reached `p`'s delivery flag (throws std::logic_error
  /// when `p` is unreached).
  void set_delivers(PeerId p, bool delivers);
  /// True iff `p` is reached and flagged.
  [[nodiscard]] bool delivers(PeerId p) const {
    const Node* node = find(checked(p));
    return node != nullptr && node->delivers;
  }
  /// Reached peers with the delivery flag set.
  [[nodiscard]] std::size_t delivering_count() const noexcept { return delivering_; }
  [[nodiscard]] std::size_t reached_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] PeerId parent(PeerId p) const {
    const Node* node = find(checked(p));
    return node == nullptr ? kInvalidPeer : node->parent;
  }
  /// `p`'s children; empty when `p` is unreached.
  [[nodiscard]] Children children(PeerId p) const {
    const Node* node = find(checked(p));
    return node == nullptr ? Children(nullptr, kNoNode) : children(*node);
  }
  /// The children of a node this tree returned from node().
  [[nodiscard]] Children children(const Node& node) const noexcept {
    return {nodes_.data(), node.first_child};
  }
  /// Number of tree edges (= messages sent by the space-partition scheme).
  [[nodiscard]] std::size_t edge_count() const noexcept { return nodes_.size() - 1; }

  /// Tree degree: children + 1 for the parent link (root has no parent).
  [[nodiscard]] std::size_t tree_degree(PeerId p) const;

  /// Depth of every reached peer (root = 0); kUnreachedDepth otherwise.
  static constexpr std::size_t kUnreachedDepth = static_cast<std::size_t>(-1);
  [[nodiscard]] std::vector<std::size_t> depths() const;

  /// Longest root-to-leaf path, in edges (the paper's Fig 1b metric).
  [[nodiscard]] std::size_t max_root_to_leaf_path() const;

  /// Maximum tree degree over reached peers (paper: bounded by 2^D children
  /// for the orthogonal-region construction).
  [[nodiscard]] std::size_t max_tree_degree() const;
  [[nodiscard]] std::size_t max_children() const;

 private:
  /// Throws std::out_of_range unless p < peer_count().
  [[nodiscard]] PeerId checked(PeerId p) const {
    if (p >= peer_count_) throw_out_of_range();
    return p;
  }
  [[noreturn]] static void throw_out_of_range();
  [[nodiscard]] std::size_t home(PeerId p) const noexcept {
    return static_cast<std::size_t>((static_cast<std::uint64_t>(p) * 0x9E3779B97F4A7C15ULL) >>
                                    shift_);
  }
  /// Index entry naming `p`'s node, or the empty entry where its probe
  /// ends.
  [[nodiscard]] std::size_t probe(PeerId p) const noexcept {
    const std::size_t mask = index_.size() - 1;
    std::size_t i = home(p);
    while (index_[i] != kNoNode && nodes_[index_[i]].peer != p) i = (i + 1) & mask;
    return i;
  }
  [[nodiscard]] const Node* find(PeerId p) const noexcept {
    if (index_.empty()) return nullptr;
    const NodeIndex at = index_[probe(p)];
    return at == kNoNode ? nullptr : &nodes_[at];
  }
  [[nodiscard]] Node* find(PeerId p) noexcept {
    return const_cast<Node*>(static_cast<const MulticastTree*>(this)->find(p));
  }
  [[nodiscard]] NodeIndex index_of(const Node& node) const noexcept {
    return static_cast<NodeIndex>(&node - nodes_.data());
  }
  /// The link naming node `at` in the children list of `parent`: its
  /// first_child or the previous sibling's next_sibling.
  [[nodiscard]] NodeIndex& link_to(Node& parent, NodeIndex at) noexcept;
  /// Appends node `at` at the tail of `parent`'s children list.
  void append_child(Node& parent, NodeIndex at) noexcept;
  /// Unlinks node `at` from its parent's children list.
  void unlink(NodeIndex at) noexcept;
  /// Appends a node for unreached `p`, growing the index first if needed.
  void insert(PeerId p, PeerId parent);
  /// Frees reached `p`'s node (backward-shift in the index, swap-remove in
  /// the slab). The caller has already unlinked it from its parent.
  void erase(PeerId p);
  void rehash(std::size_t capacity);

  std::size_t peer_count_ = 0;
  PeerId root_ = kInvalidPeer;
  std::vector<Node> nodes_;     // one per reached peer; nodes_[0] is the root
  std::size_t delivering_ = 0;  // nodes with the delivery flag set
  std::vector<NodeIndex> index_;  // power-of-two size, load <= 1/2; kNoNode empty
  unsigned shift_ = 64;           // 64 - log2(index_.size())
};

}  // namespace geomcast::multicast

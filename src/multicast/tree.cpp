#include "multicast/tree.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace geomcast::multicast {

namespace {

constexpr std::size_t kMinIndexSize = 8;

}  // namespace

MulticastTree::MulticastTree(std::size_t peer_count, PeerId root)
    : peer_count_(peer_count), root_(root) {
  if (root >= peer_count) throw std::invalid_argument("MulticastTree: root out of range");
  if (peer_count > (std::size_t{1} << 31))
    throw std::invalid_argument("MulticastTree: peer ids must fit in 31 bits");
  insert(root, kInvalidPeer);
}

void MulticastTree::throw_out_of_range() {
  throw std::out_of_range("MulticastTree: peer out of range");
}

void MulticastTree::rehash(std::size_t capacity) {
  index_.assign(capacity, kNoNode);
  shift_ = 64U - static_cast<unsigned>(std::countr_zero(capacity));
  for (NodeIndex i = 0; i < nodes_.size(); ++i) index_[probe(nodes_[i].peer)] = i;
}

MulticastTree::NodeIndex& MulticastTree::link_to(Node& parent, NodeIndex at) noexcept {
  NodeIndex* link = &parent.first_child;
  while (*link != at) link = &nodes_[*link].next_sibling;
  return *link;
}

void MulticastTree::append_child(Node& parent, NodeIndex at) noexcept {
  link_to(parent, kNoNode) = at;
}

void MulticastTree::unlink(NodeIndex at) noexcept {
  Node& node = nodes_[at];
  link_to(*find(node.parent), at) = node.next_sibling;
  node.next_sibling = kNoNode;
}

void MulticastTree::insert(PeerId p, PeerId parent) {
  if (2 * (nodes_.size() + 1) > index_.size())
    rehash(std::max(kMinIndexSize, 2 * index_.size()));
  const auto at = static_cast<NodeIndex>(nodes_.size());
  nodes_.push_back({p, 0, parent, kNoNode, kNoNode});
  index_[probe(p)] = at;
}

void MulticastTree::erase(PeerId p) {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = probe(p);
  const NodeIndex freed = index_[hole];
  // Backward-shift: pull each later entry of the probe run into the hole
  // unless its home lies cyclically inside (hole, j] — it would then sit
  // before its home and become unfindable.
  for (std::size_t j = (hole + 1) & mask; index_[j] != kNoNode; j = (j + 1) & mask) {
    if (((j - home(nodes_[index_[j]].peer)) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = kNoNode;
  if (nodes_[freed].delivers) --delivering_;
  const auto last = static_cast<NodeIndex>(nodes_.size() - 1);
  if (freed != last) {
    // The last node is never the root (nodes_[0]) and never the freed
    // leaf's child, so exactly one link names it: repoint that link and its
    // index entry (found while nodes_[last] still holds its peer).
    link_to(*find(nodes_[last].parent), last) = freed;
    index_[probe(nodes_[last].peer)] = freed;
    nodes_[freed] = nodes_[last];
  }
  nodes_.pop_back();
}

void MulticastTree::add_edge(PeerId parent, PeerId child) {
  if (parent >= peer_count_ || child >= peer_count_)
    throw std::invalid_argument("MulticastTree::add_edge: peer out of range");
  if (child == root_) throw std::logic_error("MulticastTree::add_edge: root cannot be a child");
  if (find(child) != nullptr)
    throw std::logic_error("MulticastTree::add_edge: child already attached");
  if (find(parent) == nullptr)
    throw std::logic_error("MulticastTree::add_edge: parent not reached yet");
  insert(child, parent);  // may move nodes: look the parent up afterwards
  append_child(*find(parent), static_cast<NodeIndex>(nodes_.size() - 1));
}

void MulticastTree::set_delivers(PeerId p, bool delivers) {
  Node* node = find(checked(p));
  if (node == nullptr) throw std::logic_error("MulticastTree::set_delivers: peer not attached");
  if (static_cast<bool>(node->delivers) == delivers) return;
  node->delivers = delivers ? 1 : 0;
  if (delivers)
    ++delivering_;
  else
    --delivering_;
}

void MulticastTree::remove_leaf(PeerId leaf) {
  if (leaf >= peer_count_)
    throw std::invalid_argument("MulticastTree::remove_leaf: peer out of range");
  if (leaf == root_) throw std::logic_error("MulticastTree::remove_leaf: cannot remove root");
  const Node* node = find(leaf);
  if (node == nullptr) throw std::logic_error("MulticastTree::remove_leaf: peer not attached");
  if (node->first_child != kNoNode)
    throw std::logic_error("MulticastTree::remove_leaf: peer has children");
  unlink(index_of(*node));
  erase(leaf);
}

void MulticastTree::reattach(PeerId child, PeerId new_parent) {
  if (child >= peer_count_ || new_parent >= peer_count_)
    throw std::invalid_argument("MulticastTree::reattach: peer out of range");
  if (child == root_) throw std::logic_error("MulticastTree::reattach: cannot move root");
  Node* node = find(child);
  if (node == nullptr) throw std::logic_error("MulticastTree::reattach: child not attached");
  Node* adopter = find(new_parent);
  if (adopter == nullptr)
    throw std::logic_error("MulticastTree::reattach: new parent not reached");
  if (in_subtree(child, new_parent))
    throw std::logic_error("MulticastTree::reattach: new parent inside child's subtree");
  const NodeIndex at = index_of(*node);
  unlink(at);
  node->parent = new_parent;
  append_child(*adopter, at);
}

bool MulticastTree::in_subtree(PeerId ancestor, PeerId descendant) const {
  PeerId p = descendant;
  while (p != kInvalidPeer) {
    if (p == ancestor) return true;
    if (p == root_) return false;
    p = parent(p);
  }
  return false;
}

std::size_t MulticastTree::tree_degree(PeerId p) const {
  const Node* node = find(checked(p));
  if (node == nullptr) return 0;
  return children(*node).size() + (p == root_ ? 0 : 1);
}

std::vector<std::size_t> MulticastTree::depths() const {
  std::vector<std::size_t> depth(peer_count_, kUnreachedDepth);
  if (root_ == kInvalidPeer) return depth;
  depth[root_] = 0;
  // Children always point from already-reached parents, so a BFS over the
  // children lists visits peers in non-decreasing depth.
  std::vector<NodeIndex> frontier{0};
  std::vector<NodeIndex> next;
  while (!frontier.empty()) {
    next.clear();
    for (const NodeIndex at : frontier) {
      const std::size_t below = depth[nodes_[at].peer] + 1;
      for (NodeIndex c = nodes_[at].first_child; c != kNoNode; c = nodes_[c].next_sibling) {
        depth[nodes_[c].peer] = below;
        next.push_back(c);
      }
    }
    frontier.swap(next);
  }
  return depth;
}

std::size_t MulticastTree::max_root_to_leaf_path() const {
  std::size_t best = 0;
  for (std::size_t d : depths())
    if (d != kUnreachedDepth) best = std::max(best, d);
  return best;
}

std::size_t MulticastTree::max_tree_degree() const {
  std::size_t best = 0;
  for (const Node& node : nodes_)
    best = std::max(best, children(node).size() + (node.peer == root_ ? 0 : 1));
  return best;
}

std::size_t MulticastTree::max_children() const {
  std::size_t best = 0;
  for (const Node& node : nodes_) best = std::max(best, children(node).size());
  return best;
}

}  // namespace geomcast::multicast

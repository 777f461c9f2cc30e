// Intrusive block lists shared by the LRU, CLOCK and 2Q eviction policies.
//
// The policies track whole VABlocks, and block ids are dense (AddressSpace
// numbers blocks 0, 1, 2, ... as ranges are created), so a policy keeps its
// per-block state in one vector indexed by block id: 32-bit prev/next links,
// a membership bit and one policy-defined flag. A notification is an array
// index, with no hash map, node pool or free list, and a victim scan chases
// 32-bit indices through one contiguous vector. The vector grows to the
// highest block id ever linked; the driver reserves room for every block
// before each pass, so linking never allocates mid-service. Links are
// 32-bit, which is why AddressSpace rejects address spaces of 2^32 or more
// blocks.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "mem/constants.h"

namespace uvmsim {

class BlockLinks {
 public:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// One doubly-linked list threaded through the links (head = front).
  struct List {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::size_t size = 0;
  };

  /// Room for block ids below `blocks` without growing.
  void reserve(std::size_t blocks) { nodes_.reserve(blocks); }

  [[nodiscard]] bool contains(VaBlockId b) const {
    return b < nodes_.size() && nodes_[b].linked;
  }
  [[nodiscard]] std::uint32_t next(VaBlockId b) const { return nodes_[b].next; }
  [[nodiscard]] std::uint32_t prev(VaBlockId b) const { return nodes_[b].prev; }
  /// The policy's per-block bit: LRU's parked-this-round mark, CLOCK's
  /// reference bit, 2Q's protected segment. Cleared by unlink().
  [[nodiscard]] bool flag(VaBlockId b) const { return nodes_[b].flag; }
  void set_flag(VaBlockId b, bool v) { nodes_[b].flag = v; }

  /// Links untracked block `b` into `list` just before `pos` (a member of
  /// `list`), or at the tail when `pos` is kNil.
  void insert_before(List& list, std::uint32_t pos, VaBlockId b) {
    assert(b < kNil && !contains(b));
    const auto i = static_cast<std::uint32_t>(b);
    if (i >= nodes_.size()) nodes_.resize(std::size_t{i} + 1);
    Node& n = nodes_[i];
    n.linked = true;
    n.next = pos;
    n.prev = pos == kNil ? list.tail : nodes_[pos].prev;
    if (n.prev != kNil) {
      nodes_[n.prev].next = i;
    } else {
      list.head = i;
    }
    if (pos != kNil) {
      nodes_[pos].prev = i;
    } else {
      list.tail = i;
    }
    ++list.size;
  }
  void push_front(List& list, VaBlockId b) {
    insert_before(list, list.head, b);
  }

  /// Unlinks tracked block `b` from `list`, the list it is in.
  void unlink(List& list, VaBlockId b) {
    assert(contains(b));
    Node& n = nodes_[b];
    if (n.prev != kNil) {
      nodes_[n.prev].next = n.next;
    } else {
      list.head = n.next;
    }
    if (n.next != kNil) {
      nodes_[n.next].prev = n.prev;
    } else {
      list.tail = n.prev;
    }
    n = Node{};
    --list.size;
  }

 private:
  struct Node {
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    bool linked = false;
    bool flag = false;
  };
  std::vector<Node> nodes_;  ///< indexed by block id
};

}  // namespace uvmsim

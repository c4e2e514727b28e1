#include "cache/replay.hpp"

#include <limits>

namespace gnnie::cache {

ReplacementBuffer ReplacementBuffer::pinned_lru(VertexId vertex_count, std::uint64_t capacity,
                                                std::span<const VertexId> pinned) {
  ReplacementBuffer buffer(vertex_count, capacity);
  GNNIE_REQUIRE(pinned.size() <= capacity, "pinned region exceeds the capacity");
  for (VertexId v : pinned) {
    GNNIE_REQUIRE(v < vertex_count, "pinned vertex out of range");
    GNNIE_REQUIRE(buffer.slot_[v] != kPinned, "pinned vertices must be distinct");
    buffer.slot_[v] = kPinned;
  }
  buffer.pinned_.assign(pinned.begin(), pinned.end());
  buffer.capacity_ -= pinned.size();
  buffer.lru_prev_.assign(static_cast<std::size_t>(vertex_count) + 1, vertex_count);
  buffer.lru_next_.assign(static_cast<std::size_t>(vertex_count) + 1, vertex_count);
  return buffer;
}

ReplacementBuffer ReplacementBuffer::belady(const AccessTrace& trace, std::uint64_t capacity) {
  ReplacementBuffer buffer(trace.vertex_count, capacity);
  buffer.belady_ = true;
  // One reverse pass: next_use_[i] is the position of the next access to
  // accesses[i] after i, and key_ ends at each vertex's first position
  // (kNever past a vertex's last access, and for vertices never accessed).
  constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
  buffer.next_use_.resize(trace.accesses.size());
  buffer.key_.assign(trace.vertex_count, kNever);
  for (std::size_t i = trace.accesses.size(); i-- > 0;) {
    const VertexId v = trace.accesses[i];
    buffer.next_use_[i] = buffer.key_[v];
    buffer.key_[v] = i;
  }
  return buffer;
}

ReplayResult replay(const AccessTrace& trace, ReplacementBuffer buffer) {
  ReplayResult r;
  r.accesses = trace.accesses.size();
  r.fetches = buffer.preloads().size();
  for (VertexId v : trace.accesses) {
    if (!buffer.access(v)) ++r.fetches;
  }
  return r;
}

}  // namespace gnnie::cache

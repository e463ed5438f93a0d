#include "graph/edge_block_store.h"

#include <algorithm>
#include <bit>
#include <fstream>
#include <istream>
#include <ostream>
#include <queue>
#include <utility>

#include "util/bitpack.h"
#include "util/check.h"
#include "util/hash.h"

namespace gdp::graph {

namespace {

/// Seed of the EdgeList::Fingerprint hash chain — must match
/// graph/edge_list.cc exactly (the fingerprint-equality contract).
constexpr uint64_t kFingerprintSeed = 0x6fd92e1d2c154b01ULL;

/// Chain value before the first edge: header terms folded in.
uint64_t FingerprintHeader(VertexId num_vertices, uint64_t num_edges) {
  uint64_t h = util::Mix64(kFingerprintSeed);
  h = util::HashCombine(h, num_vertices);
  h = util::HashCombine(h, num_edges);
  return h;
}

uint64_t ChainEdge(uint64_t h, Edge e) {
  return util::HashCombine(h, util::HashDirectedEdge(e.src, e.dst));
}

/// Bits needed for the zigzag of `delta` (>= 1 so a width of 0 never
/// occurs; max 33 for 32-bit vertex-id deltas).
uint32_t DeltaWidth(int64_t delta) {
  const uint32_t w =
      static_cast<uint32_t>(std::bit_width(util::ZigZag(delta)));
  return w > 0 ? w : 1;
}

uint64_t SortKey(Edge e) {
  return (static_cast<uint64_t>(e.src) << 32) | e.dst;
}

}  // namespace

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

EdgeBlockStoreBuilder::EdgeBlockStoreBuilder(
    EdgeBlockStore::Options options) {
  GDP_CHECK_GE(options.block_size_edges, 1u);
  store_.block_size_edges_ = options.block_size_edges;
  pending_.reserve(options.block_size_edges);
}

void EdgeBlockStoreBuilder::set_num_vertices(VertexId num_vertices) {
  if (num_vertices > store_.num_vertices_) {
    store_.num_vertices_ = num_vertices;
  }
}

void EdgeBlockStoreBuilder::Append(Edge e) {
  const VertexId hi = e.src > e.dst ? e.src : e.dst;
  if (hi >= store_.num_vertices_) store_.num_vertices_ = hi + 1;
  pending_.push_back(e);
  if (pending_.size() == store_.block_size_edges_) FlushBlock();
}

void EdgeBlockStoreBuilder::FlushBlock() {
  if (pending_.empty()) return;
  EdgeBlockStore::BlockMeta meta;
  meta.first = pending_[0];
  // Fixed per-block widths: the max over each delta stream.
  uint32_t src_width = 1;
  uint32_t dst_width = 1;
  for (size_t i = 1; i < pending_.size(); ++i) {
    src_width = std::max(
        src_width, DeltaWidth(static_cast<int64_t>(pending_[i].src) -
                              static_cast<int64_t>(pending_[i - 1].src)));
    dst_width = std::max(
        dst_width, DeltaWidth(static_cast<int64_t>(pending_[i].dst) -
                              static_cast<int64_t>(pending_[i - 1].dst)));
  }
  meta.src_width = static_cast<uint8_t>(src_width);
  meta.dst_width = static_cast<uint8_t>(dst_width);

  // Payload goes at the current end of the bit stream. Blocks only OR bits
  // into disjoint positions, so growing the (zero-filled) word array keeps
  // earlier blocks intact; one padding word past the end keeps the two-word
  // decode load in bounds.
  const uint64_t bit_offset =
      store_.blocks_.empty()
          ? 0
          : store_.blocks_.back().bit_offset +
                (store_.BlockEnd(store_.blocks_.size() - 1) -
                 store_.BlockBegin(store_.blocks_.size() - 1) - 1) *
                    (store_.blocks_.back().src_width +
                     store_.blocks_.back().dst_width);
  meta.bit_offset = bit_offset;
  const uint64_t payload_bits =
      (pending_.size() - 1) *
      static_cast<uint64_t>(src_width + dst_width);
  store_.words_.resize((bit_offset + payload_bits + 63) / 64 + 1, 0);

  uint64_t pos = bit_offset;
  for (size_t i = 1; i < pending_.size(); ++i) {
    util::WritePackedBits(store_.words_.data(), pos, meta.src_width,
                          util::ZigZag(static_cast<int64_t>(pending_[i].src) -
                                       static_cast<int64_t>(pending_[i - 1].src)));
    pos += meta.src_width;
    util::WritePackedBits(store_.words_.data(), pos, meta.dst_width,
                          util::ZigZag(static_cast<int64_t>(pending_[i].dst) -
                                       static_cast<int64_t>(pending_[i - 1].dst)));
    pos += meta.dst_width;
  }
  store_.num_edges_ += pending_.size();
  store_.blocks_.push_back(meta);
  pending_.clear();
}

EdgeBlockStore EdgeBlockStoreBuilder::Finish() && {
  FlushBlock();
  // Fingerprint chain, computed by decoding each sealed block (one block
  // buffer resident): the chain certifies exactly what the store replays,
  // and must equal EdgeList::Fingerprint() of the same stream.
  uint64_t h = FingerprintHeader(store_.num_vertices_, store_.num_edges_);
  std::vector<Edge> buf;
  for (uint64_t b = 0; b < store_.num_blocks(); ++b) {
    store_.DecodeBlock(b, &buf);
    for (const Edge& e : buf) h = ChainEdge(h, e);
    store_.blocks_[b].chain = h;
  }
  store_.fingerprint_ = h;
  return std::move(store_);
}

EdgeBlockStore EdgeBlockStore::FromEdges(const EdgeList& edges,
                                         Options options) {
  Builder builder(options);
  builder.set_name(edges.name());
  builder.set_num_vertices(edges.num_vertices());
  for (const Edge& e : edges.edges()) builder.Append(e);
  return std::move(builder).Finish();
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

void EdgeBlockStore::DecodeBlock(uint64_t b, std::vector<Edge>* out) const {
  GDP_DCHECK_LT(b, blocks_.size());
  const BlockMeta& meta = blocks_[b];
  const uint64_t count = BlockEnd(b) - BlockBegin(b);
  out->resize(count);
  (*out)[0] = meta.first;
  const uint64_t* words = words_.data();
  uint64_t pos = meta.bit_offset;
  int64_t src = meta.first.src;
  int64_t dst = meta.first.dst;
  for (uint64_t i = 1; i < count; ++i) {
    src += util::UnZigZag(util::ReadPackedBits(words, pos, meta.src_width));
    pos += meta.src_width;
    dst += util::UnZigZag(util::ReadPackedBits(words, pos, meta.dst_width));
    pos += meta.dst_width;
    (*out)[i] = {static_cast<VertexId>(src), static_cast<VertexId>(dst)};
  }
}

Edge EdgeBlockStore::Cursor::Next() {
  GDP_DCHECK_LT(index_, store_->num_edges_);
  Edge e;
  const BlockMeta& meta = store_->blocks_[block_];
  if (index_ == store_->BlockBegin(block_)) {
    bit_pos_ = meta.bit_offset;
    prev_src_ = meta.first.src;
    prev_dst_ = meta.first.dst;
    e = meta.first;
  } else {
    prev_src_ += util::UnZigZag(
        util::ReadPackedBits(store_->words_.data(), bit_pos_, meta.src_width));
    bit_pos_ += meta.src_width;
    prev_dst_ += util::UnZigZag(
        util::ReadPackedBits(store_->words_.data(), bit_pos_, meta.dst_width));
    bit_pos_ += meta.dst_width;
    e = {static_cast<VertexId>(prev_src_), static_cast<VertexId>(prev_dst_)};
  }
  ++index_;
  if (index_ == store_->BlockEnd(block_)) ++block_;
  return e;
}

uint64_t EdgeBlockStore::ResidentBytes() const {
  return words_.size() * sizeof(uint64_t) +
         blocks_.size() * sizeof(BlockMeta) + sizeof(*this);
}

EdgeList EdgeBlockStore::Materialize() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges_);
  std::vector<Edge> buf;
  for (uint64_t b = 0; b < num_blocks(); ++b) {
    DecodeBlock(b, &buf);
    edges.insert(edges.end(), buf.begin(), buf.end());
  }
  return EdgeList(name_, num_vertices_, std::move(edges));
}

// ---------------------------------------------------------------------------
// Streaming symmetrize
// ---------------------------------------------------------------------------

EdgeBlockStore EdgeBlockStore::StreamingSymmetrized(Options options) const {
  // Phase 1: one locally sorted, deduplicated, loop-free run per input
  // block, kept compressed. Peak decoded state: one input block plus its
  // doubled run.
  std::vector<EdgeBlockStore> runs;
  runs.reserve(num_blocks());
  std::vector<Edge> buf;
  std::vector<Edge> local;
  for (uint64_t b = 0; b < num_blocks(); ++b) {
    DecodeBlock(b, &buf);
    local.clear();
    local.reserve(buf.size() * 2);
    for (const Edge& e : buf) {
      if (e.src == e.dst) continue;
      local.push_back(e);
      local.push_back({e.dst, e.src});
    }
    std::sort(local.begin(), local.end(), [](const Edge& a, const Edge& b2) {
      return SortKey(a) < SortKey(b2);
    });
    local.erase(std::unique(local.begin(), local.end()), local.end());
    Builder run(options);
    for (const Edge& e : local) run.Append(e);
    runs.push_back(std::move(run).Finish());
  }

  // Phase 2: k-way merge through O(1)-state cursors, deduplicating across
  // runs on the fly. Resident state: the run cursors plus the output
  // builder's partial block.
  Builder out(options);
  out.set_name(name_ + "-sym");
  out.set_num_vertices(num_vertices_);
  struct HeapItem {
    uint64_t key;
    uint32_t run;
    Edge e;
    bool operator>(const HeapItem& other) const {
      return key != other.key ? key > other.key : run > other.run;
    }
  };
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  std::vector<Cursor> cursors;
  cursors.reserve(runs.size());
  for (uint32_t r = 0; r < runs.size(); ++r) {
    cursors.emplace_back(runs[r]);
    if (!cursors[r].Done()) {
      const Edge e = cursors[r].Next();
      heap.push({SortKey(e), r, e});
    }
  }
  bool have_last = false;
  uint64_t last_key = 0;
  while (!heap.empty()) {
    const HeapItem item = heap.top();
    heap.pop();
    if (!have_last || item.key != last_key) {
      out.Append(item.e);
      last_key = item.key;
      have_last = true;
    }
    if (!cursors[item.run].Done()) {
      const Edge e = cursors[item.run].Next();
      heap.push({SortKey(e), item.run, e});
    }
  }
  return std::move(out).Finish();
}

// ---------------------------------------------------------------------------
// Validation + on-disk format
// ---------------------------------------------------------------------------

util::Status EdgeBlockStore::Validate() const {
  uint64_t edges_covered = 0;
  for (uint64_t b = 0; b < num_blocks(); ++b) {
    if (BlockEnd(b) <= BlockBegin(b)) {
      return util::Status::Internal("edge block store: empty block " +
                                    std::to_string(b));
    }
    edges_covered += BlockEnd(b) - BlockBegin(b);
  }
  if (edges_covered != num_edges_) {
    return util::Status::Internal(
        "edge block store: blocks cover " + std::to_string(edges_covered) +
        " edges, header says " + std::to_string(num_edges_));
  }
  uint64_t h = FingerprintHeader(num_vertices_, num_edges_);
  std::vector<Edge> buf;
  for (uint64_t b = 0; b < num_blocks(); ++b) {
    DecodeBlock(b, &buf);
    for (const Edge& e : buf) {
      if (e.src >= num_vertices_ || e.dst >= num_vertices_) {
        return util::Status::Internal(
            "edge block store: decoded endpoint out of range in block " +
            std::to_string(b));
      }
      h = ChainEdge(h, e);
    }
    if (h != blocks_[b].chain) {
      return util::Status::Internal(
          "edge block store: fingerprint chain mismatch at block " +
          std::to_string(b));
    }
  }
  if (h != fingerprint_) {
    return util::Status::Internal("edge block store: fingerprint mismatch");
  }
  return util::Status::Ok();
}

namespace {

constexpr uint64_t kMagic = 0x31534b4c42504447ULL;  // "GDPBLKS1"

/// On-disk bytes of one block-table entry: bit_offset, chain, first.src,
/// first.dst, src_width, dst_width.
constexpr uint64_t kBlockMetaBytes = 8 + 8 + 4 + 4 + 1 + 1;

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

}  // namespace

util::Status EdgeBlockStore::SerializeTo(std::ostream& out) const {
  WritePod(out, kMagic);
  WritePod(out, static_cast<uint64_t>(name_.size()));
  out.write(name_.data(), static_cast<std::streamsize>(name_.size()));
  WritePod(out, num_vertices_);
  WritePod(out, block_size_edges_);
  WritePod(out, num_edges_);
  WritePod(out, fingerprint_);
  WritePod(out, static_cast<uint64_t>(blocks_.size()));
  WritePod(out, static_cast<uint64_t>(words_.size()));
  for (const BlockMeta& m : blocks_) {
    WritePod(out, m.bit_offset);
    WritePod(out, m.chain);
    WritePod(out, m.first.src);
    WritePod(out, m.first.dst);
    WritePod(out, m.src_width);
    WritePod(out, m.dst_width);
  }
  out.write(reinterpret_cast<const char*>(words_.data()),
            static_cast<std::streamsize>(words_.size() * sizeof(uint64_t)));
  if (!out) return util::Status::Internal("edge block store: write failed");
  return util::Status::Ok();
}

util::StatusOr<EdgeBlockStore> EdgeBlockStore::DeserializeFrom(
    std::istream& in) {
  // Every size field is checked against the bytes the stream still holds
  // before it sizes an allocation, so a corrupt header is rejected instead
  // of requesting terabytes.
  const std::streampos start = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(start);
  if (start < 0 || end < start || !in) {
    return util::Status::InvalidArgument(
        "edge block store: stream is not seekable");
  }
  uint64_t left = static_cast<uint64_t>(end - start);

  uint64_t magic = 0;
  if (!ReadPod(in, &magic) || magic != kMagic) {
    return util::Status::InvalidArgument(
        "edge block store: bad magic (not a GDPBLKS1 file)");
  }
  EdgeBlockStore store;
  uint64_t name_size = 0;
  uint64_t num_block_entries = 0;
  uint64_t num_words = 0;
  if (!ReadPod(in, &name_size)) {
    return util::Status::InvalidArgument("edge block store: truncated header");
  }
  left -= sizeof(magic) + sizeof(name_size);
  if (name_size > left) {
    return util::Status::InvalidArgument(
        "edge block store: name length exceeds the file");
  }
  left -= name_size;
  store.name_.resize(name_size);
  in.read(store.name_.data(), static_cast<std::streamsize>(name_size));
  if (!in || !ReadPod(in, &store.num_vertices_) ||
      !ReadPod(in, &store.block_size_edges_) ||
      !ReadPod(in, &store.num_edges_) || !ReadPod(in, &store.fingerprint_) ||
      !ReadPod(in, &num_block_entries) || !ReadPod(in, &num_words)) {
    return util::Status::InvalidArgument("edge block store: truncated header");
  }
  left -= sizeof(store.num_vertices_) + sizeof(store.block_size_edges_) +
          sizeof(store.num_edges_) + sizeof(store.fingerprint_) +
          sizeof(num_block_entries) + sizeof(num_words);
  if (store.block_size_edges_ == 0) {
    return util::Status::InvalidArgument(
        "edge block store: zero block size");
  }
  const uint64_t expect_blocks =
      store.num_edges_ / store.block_size_edges_ +
      (store.num_edges_ % store.block_size_edges_ != 0 ? 1 : 0);
  if (num_block_entries != expect_blocks) {
    return util::Status::InvalidArgument(
        "edge block store: block count " + std::to_string(num_block_entries) +
        " does not cover " + std::to_string(store.num_edges_) + " edges");
  }
  if (num_block_entries > left / kBlockMetaBytes) {
    return util::Status::InvalidArgument(
        "edge block store: block table exceeds the file");
  }
  left -= num_block_entries * kBlockMetaBytes;
  store.blocks_.resize(num_block_entries);
  for (BlockMeta& m : store.blocks_) {
    if (!ReadPod(in, &m.bit_offset) || !ReadPod(in, &m.chain) ||
        !ReadPod(in, &m.first.src) || !ReadPod(in, &m.first.dst) ||
        !ReadPod(in, &m.src_width) || !ReadPod(in, &m.dst_width)) {
      return util::Status::InvalidArgument(
          "edge block store: truncated block table");
    }
  }
  if (num_words > left / sizeof(uint64_t)) {
    return util::Status::InvalidArgument(
        "edge block store: payload exceeds the file");
  }
  store.words_.resize(num_words);
  in.read(reinterpret_cast<char*>(store.words_.data()),
          static_cast<std::streamsize>(num_words * sizeof(uint64_t)));
  if (!in) {
    return util::Status::InvalidArgument(
        "edge block store: truncated payload");
  }
  // Decode offsets must stay inside the padded word array (the two-word
  // load may touch one word past the last encoded bit).
  for (uint64_t b = 0; b < store.num_blocks(); ++b) {
    const BlockMeta& m = store.blocks_[b];
    const uint64_t count = store.BlockEnd(b) - store.BlockBegin(b);
    if (m.src_width == 0 || m.dst_width == 0 || m.src_width > 33 ||
        m.dst_width > 33) {
      return util::Status::InvalidArgument(
          "edge block store: invalid delta width in block " +
          std::to_string(b));
    }
    // A block holds fewer than 2^32 edges of at most 66 bits each, so the
    // span cannot overflow, but the offset plus the span may wrap.
    const uint64_t end_bit =
        m.bit_offset + (count - 1) * (m.src_width + m.dst_width);
    if (count == 0 || end_bit < m.bit_offset ||
        end_bit / 64 + (end_bit % 64 != 0 ? 1 : 0) + 1 >
            store.words_.size()) {
      return util::Status::InvalidArgument(
          "edge block store: block " + std::to_string(b) +
          " payload exceeds word array");
    }
  }
  return store;
}

util::Status EdgeBlockStore::SaveTo(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return util::Status::NotFound("cannot open for write: " + path);
  }
  GDP_RETURN_IF_ERROR(SerializeTo(out));
  out.close();
  if (!out) return util::Status::Internal("write failed: " + path);
  return util::Status::Ok();
}

util::StatusOr<EdgeBlockStore> EdgeBlockStore::LoadFrom(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return util::Status::NotFound("cannot open: " + path);
  return DeserializeFrom(in);
}

}  // namespace gdp::graph

#ifndef GDP_GRAPH_EDGE_BLOCK_STORE_H_
#define GDP_GRAPH_EDGE_BLOCK_STORE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/edge_list.h"
#include "graph/types.h"
#include "util/status.h"

namespace gdp::graph {

/// The edge stream chunked into fixed-size blocks, each compressed with
/// zigzag-delta bit packing: within a block, edge i stores
/// ZigZag(src_i - src_{i-1}) and ZigZag(dst_i - dst_{i-1}) back to back at
/// two per-block fixed widths; the block's first edge is kept raw as the
/// delta base. Generated and real edge streams are bursty in src (loaders
/// emit a vertex's out-edges together), so src deltas pack into a couple of
/// bits and dst deltas into ~log2(n) bits — 2-3x smaller resident edge
/// bytes than the flat 8-byte std::vector<Edge> (claims gate:
/// bench_stream_ingest).
///
/// Block boundaries are deterministic (block b covers stream positions
/// [b*B, min((b+1)*B, E)) for block size B), so any consumer — the
/// streaming ingress pipeline, a finalize shard, a fingerprint scan —
/// derives the exact same blocks from the same stream. Each block carries
/// the value of the EdgeList fingerprint hash chain after its last edge, so
/// Fingerprint() is reproducible from the store alone, without ever
/// materializing the flat vector, and equals EdgeList::Fingerprint() of the
/// same stream bit for bit (the ingress artifact-cache key contract).
class EdgeBlockStoreBuilder;

class EdgeBlockStore {
 public:
  /// Default edges per block: 4096 edges decode into a 32 KiB buffer — two
  /// of those per loader stay L2-resident while a block is in flight.
  static constexpr uint32_t kDefaultBlockSizeEdges = 4096;

  struct Options {
    /// Edges per block (the last block may be short). Must be >= 1.
    uint32_t block_size_edges;

    constexpr Options() : block_size_edges(kDefaultBlockSizeEdges) {}
    constexpr explicit Options(uint32_t block_size)
        : block_size_edges(block_size) {}
  };

  EdgeBlockStore() = default;

  /// Incremental encoder: append edges in stream order, then Finish().
  /// Bounded memory: only the current partial block is held decoded.
  using Builder = EdgeBlockStoreBuilder;

  /// Encodes an existing flat edge list (name, num_vertices, and stream
  /// order preserved; Fingerprint() == edges.Fingerprint()).
  static EdgeBlockStore FromEdges(const EdgeList& edges,
                                  Options options = Options());

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  VertexId num_vertices() const { return num_vertices_; }
  uint64_t num_edges() const { return num_edges_; }
  uint32_t block_size_edges() const { return block_size_edges_; }
  uint64_t num_blocks() const { return blocks_.size(); }

  /// Stream positions covered by block b: [BlockBegin(b), BlockEnd(b)).
  uint64_t BlockBegin(uint64_t b) const {
    return b * static_cast<uint64_t>(block_size_edges_);
  }
  uint64_t BlockEnd(uint64_t b) const {
    const uint64_t end = (b + 1) * static_cast<uint64_t>(block_size_edges_);
    return end < num_edges_ ? end : num_edges_;
  }

  /// Decodes block b into `out` (resized to the block's edge count), in
  /// exact stream order.
  void DecodeBlock(uint64_t b, std::vector<Edge>* out) const;

  /// Bytes this store keeps resident: packed payload words plus per-block
  /// metadata. The claims gate compares this against the flat vector's
  /// num_edges * sizeof(Edge).
  uint64_t ResidentBytes() const;

  /// Content fingerprint of the stream this store replays — bit-identical
  /// to EdgeList::Fingerprint() of the materialized list (same hash chain
  /// over num_vertices, num_edges, and every edge in stream order), but
  /// computed at Finish() without the flat vector. O(1) here.
  uint64_t Fingerprint() const { return fingerprint_; }

  /// Value of the fingerprint hash chain after block b's last edge. The
  /// chain is sequential, so BlockFingerprint(num_blocks()-1) combined with
  /// the header terms is Fingerprint(); mid-chain values let a consumer
  /// verify a prefix of the stream block by block.
  uint64_t BlockFingerprint(uint64_t b) const { return blocks_[b].chain; }

  /// O(1)-state sequential decoder over the whole stream; yields edges in
  /// exact stream order. The cheap way to iterate without a block buffer.
  class Cursor {
   public:
    explicit Cursor(const EdgeBlockStore& store) : store_(&store) {}
    bool Done() const { return index_ >= store_->num_edges_; }
    uint64_t index() const { return index_; }
    Edge Next();

   private:
    const EdgeBlockStore* store_;
    uint64_t index_ = 0;
    uint64_t block_ = 0;
    uint64_t bit_pos_ = 0;
    int64_t prev_src_ = 0;
    int64_t prev_dst_ = 0;
  };

  /// Decodes the full stream back into a flat EdgeList (name, num_vertices,
  /// order preserved).
  EdgeList Materialize() const;

  /// Streaming symmetrization with the EdgeList::Symmetrized() contract
  /// (every (u,v) accompanied by (v,u); self loops and duplicates removed;
  /// result sorted by (src, dst); name suffixed "-sym"): each input block
  /// becomes a locally sorted deduplicated run kept compressed, and the
  /// runs are k-way merged through O(1)-state cursors into the output
  /// builder — the 2x flat intermediate copy plus global sort of the
  /// EdgeList path never materializes.
  EdgeBlockStore StreamingSymmetrized(Options options = Options()) const;

  /// Recomputes the fingerprint chain from the packed payload and checks it
  /// against the stored chain (used by the on-disk dataset cache to reject
  /// torn or stale files). OkStatus iff every block checks out.
  util::Status Validate() const;

  // On-disk format (host-endian, versioned; a cache format, not an
  // interchange format): header, per-block metadata, payload words.
  util::Status SerializeTo(std::ostream& out) const;
  static util::StatusOr<EdgeBlockStore> DeserializeFrom(std::istream& in);
  util::Status SaveTo(const std::string& path) const;
  static util::StatusOr<EdgeBlockStore> LoadFrom(const std::string& path);

 private:
  friend class EdgeBlockStoreBuilder;

  struct BlockMeta {
    uint64_t bit_offset = 0;  ///< payload start in words_
    uint64_t chain = 0;       ///< fingerprint chain value after this block
    Edge first;               ///< raw first edge (delta base)
    uint8_t src_width = 1;    ///< bits per zigzag src delta
    uint8_t dst_width = 1;    ///< bits per zigzag dst delta
  };

  std::string name_;
  VertexId num_vertices_ = 0;
  uint64_t num_edges_ = 0;
  uint32_t block_size_edges_ = kDefaultBlockSizeEdges;
  uint64_t fingerprint_ = 0;
  std::vector<BlockMeta> blocks_;
  std::vector<uint64_t> words_;  ///< packed payload + one padding word
};

/// Incremental EdgeBlockStore encoder (see EdgeBlockStore::Builder): append
/// edges in stream order, then Finish(). Bounded memory: only the current
/// partial block is held decoded.
class EdgeBlockStoreBuilder {
 public:
  explicit EdgeBlockStoreBuilder(
      EdgeBlockStore::Options options = EdgeBlockStore::Options());

  void set_name(std::string name) { store_.name_ = std::move(name); }
  /// Raises the vertex-id space floor (mirrors the EdgeList constructor's
  /// explicit num_vertices). Append still grows it past this to cover every
  /// endpoint.
  void set_num_vertices(VertexId num_vertices);

  /// Appends an edge, growing num_vertices to cover both endpoints.
  void Append(Edge e);

  /// Seals the store: flushes the partial block and computes the per-block
  /// fingerprint chain by decoding each block (one block buffer resident),
  /// so the stored chain fingerprints exactly what the store replays.
  EdgeBlockStore Finish() &&;

 private:
  EdgeBlockStore store_;
  std::vector<Edge> pending_;  ///< current partial block
  void FlushBlock();
};

}  // namespace gdp::graph

#endif  // GDP_GRAPH_EDGE_BLOCK_STORE_H_

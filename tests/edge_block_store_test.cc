// The compressed edge-block store: round-trip fidelity over adversarial
// sizes, the streaming-fingerprint == EdgeList::Fingerprint contract that
// keys the ingress artifact caches, cursor/decode agreement, the on-disk
// format, and the streaming symmetrize == EdgeList::Symmetrized contract.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "graph/edge_block_store.h"
#include "graph/edge_list.h"
#include "graph/generators.h"
#include "util/random.h"

namespace gdp::graph {
namespace {

/// Random edge list with the bursty-src shape loaders actually emit (runs
/// of edges sharing a source), plus uniform noise.
EdgeList RandomEdges(uint64_t num_edges, VertexId num_vertices,
                     uint64_t seed) {
  util::SplitMix64 rng(seed);
  EdgeList out("random", num_vertices, {});
  out.Reserve(num_edges);
  uint64_t emitted = 0;
  while (emitted < num_edges) {
    const VertexId src = static_cast<VertexId>(rng.NextBounded(num_vertices));
    const uint64_t run = 1 + rng.NextBounded(8);
    for (uint64_t i = 0; i < run && emitted < num_edges; ++i, ++emitted) {
      out.AddEdge(src,
                  static_cast<VertexId>(rng.NextBounded(num_vertices)));
    }
  }
  return out;
}

void ExpectSameStream(const EdgeList& expected, const EdgeBlockStore& store) {
  ASSERT_EQ(store.num_edges(), expected.num_edges());
  EXPECT_EQ(store.num_vertices(), expected.num_vertices());
  const EdgeList round_trip = store.Materialize();
  ASSERT_EQ(round_trip.num_edges(), expected.num_edges());
  EXPECT_EQ(round_trip.num_vertices(), expected.num_vertices());
  for (uint64_t i = 0; i < expected.num_edges(); ++i) {
    ASSERT_EQ(round_trip.edges()[i].src, expected.edges()[i].src) << i;
    ASSERT_EQ(round_trip.edges()[i].dst, expected.edges()[i].dst) << i;
  }
  EXPECT_EQ(store.Fingerprint(), expected.Fingerprint());
}

// Property test: random block sizes x random edge counts, including counts
// below, at, and just past block boundaries.
TEST(EdgeBlockStore, RoundTripsRandomSizesAndCounts) {
  util::SplitMix64 rng(0xb10c);
  for (int trial = 0; trial < 24; ++trial) {
    const uint32_t block_size = 1 + static_cast<uint32_t>(rng.NextBounded(97));
    uint64_t num_edges = rng.NextBounded(6 * block_size);
    if (trial % 4 == 0) num_edges = block_size;          // exactly one block
    if (trial % 4 == 1) num_edges = block_size + 1;      // one spilled edge
    const EdgeList edges = RandomEdges(num_edges, 500, 0x5eed + trial);
    const EdgeBlockStore store = EdgeBlockStore::FromEdges(
        edges, EdgeBlockStore::Options(block_size));
    SCOPED_TRACE("block_size=" + std::to_string(block_size) +
                 " edges=" + std::to_string(num_edges));
    ExpectSameStream(edges, store);
    EXPECT_TRUE(store.Validate().ok());
  }
}

TEST(EdgeBlockStore, EmptyStore) {
  const EdgeList empty("empty", 10, {});
  const EdgeBlockStore store = EdgeBlockStore::FromEdges(empty);
  EXPECT_EQ(store.num_edges(), 0u);
  EXPECT_EQ(store.num_blocks(), 0u);
  EXPECT_EQ(store.num_vertices(), 10u);
  EXPECT_EQ(store.Fingerprint(), empty.Fingerprint());
  EXPECT_TRUE(store.Validate().ok());
  EXPECT_EQ(store.Materialize().num_edges(), 0u);
}

TEST(EdgeBlockStore, SingleEdgeBlocks) {
  EdgeList edges("one-per-block", 0, {});
  edges.AddEdge(7, 3);
  edges.AddEdge(3, 7);
  edges.AddEdge(0, 9);
  const EdgeBlockStore store =
      EdgeBlockStore::FromEdges(edges, EdgeBlockStore::Options(1));
  EXPECT_EQ(store.num_blocks(), 3u);
  ExpectSameStream(edges, store);
}

TEST(EdgeBlockStore, SingleEdgeStore) {
  EdgeList edges("single", 0, {});
  edges.AddEdge(1234567, 42);
  const EdgeBlockStore store = EdgeBlockStore::FromEdges(edges);
  EXPECT_EQ(store.num_blocks(), 1u);
  ExpectSameStream(edges, store);
}

// Extreme deltas: alternating endpoints at the far corners of the 32-bit id
// space force maximum zigzag widths.
TEST(EdgeBlockStore, ExtremeDeltasRoundTrip) {
  EdgeList edges("extreme", 0, {});
  const VertexId big = 0xFFFFFFFEu;
  edges.AddEdge(0, big);
  edges.AddEdge(big, 0);
  edges.AddEdge(0, big);
  edges.AddEdge(big - 1, 1);
  const EdgeBlockStore store =
      EdgeBlockStore::FromEdges(edges, EdgeBlockStore::Options(3));
  ExpectSameStream(edges, store);
  EXPECT_TRUE(store.Validate().ok());
}

TEST(EdgeBlockStore, BuilderMatchesFromEdges) {
  const EdgeList edges = RandomEdges(1000, 300, 0xabc);
  EdgeBlockStore::Builder builder(EdgeBlockStore::Options(64));
  builder.set_name(edges.name());
  builder.set_num_vertices(edges.num_vertices());
  for (const Edge& e : edges.edges()) builder.Append(e);
  const EdgeBlockStore incremental = std::move(builder).Finish();
  const EdgeBlockStore batch =
      EdgeBlockStore::FromEdges(edges, EdgeBlockStore::Options(64));
  EXPECT_EQ(incremental.Fingerprint(), batch.Fingerprint());
  EXPECT_EQ(incremental.name(), batch.name());
  ExpectSameStream(edges, incremental);
}

// The chain certifies prefixes: recomputing the hash chain over the first
// b+1 blocks' decoded edges must land on BlockFingerprint(b).
TEST(EdgeBlockStore, FingerprintChainIsSequential) {
  const EdgeList edges = RandomEdges(700, 200, 0xfeed);
  const EdgeBlockStore store =
      EdgeBlockStore::FromEdges(edges, EdgeBlockStore::Options(128));
  ASSERT_GT(store.num_blocks(), 1u);
  EXPECT_EQ(store.BlockFingerprint(store.num_blocks() - 1),
            store.Fingerprint());
  // Distinct prefixes yield distinct chain values on this input.
  for (uint64_t b = 1; b < store.num_blocks(); ++b) {
    EXPECT_NE(store.BlockFingerprint(b - 1), store.BlockFingerprint(b));
  }
}

TEST(EdgeBlockStore, CursorMatchesDecodeBlock) {
  const EdgeList edges = RandomEdges(2500, 400, 0xc0de);
  const EdgeBlockStore store =
      EdgeBlockStore::FromEdges(edges, EdgeBlockStore::Options(256));
  EdgeBlockStore::Cursor cursor(store);
  for (uint64_t i = 0; i < edges.num_edges(); ++i) {
    ASSERT_FALSE(cursor.Done());
    EXPECT_EQ(cursor.index(), i);
    const Edge e = cursor.Next();
    ASSERT_EQ(e.src, edges.edges()[i].src) << i;
    ASSERT_EQ(e.dst, edges.edges()[i].dst) << i;
  }
  EXPECT_TRUE(cursor.Done());
}

TEST(EdgeBlockStore, CompressesGeneratedGraphs) {
  const EdgeList edges = graph::GenerateHeavyTailed(
      {.num_vertices = 5000, .edges_per_vertex = 8, .seed = 77});
  const EdgeBlockStore store = EdgeBlockStore::FromEdges(edges);
  const uint64_t flat_bytes = edges.num_edges() * sizeof(Edge);
  EXPECT_LT(store.ResidentBytes(), flat_bytes)
      << "compressed store must beat the flat vector";
  ExpectSameStream(edges, store);
}

TEST(EdgeBlockStore, SerializeRoundTrips) {
  const EdgeList edges = RandomEdges(1500, 350, 0xd15c);
  const EdgeBlockStore store =
      EdgeBlockStore::FromEdges(edges, EdgeBlockStore::Options(200));
  const std::string path =
      ::testing::TempDir() + "/edge_block_store_test.blks";
  ASSERT_TRUE(store.SaveTo(path).ok());
  util::StatusOr<EdgeBlockStore> loaded = EdgeBlockStore::LoadFrom(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().Fingerprint(), store.Fingerprint());
  EXPECT_EQ(loaded.value().name(), store.name());
  EXPECT_EQ(loaded.value().block_size_edges(), store.block_size_edges());
  EXPECT_TRUE(loaded.value().Validate().ok());
  ExpectSameStream(edges, loaded.value());
  std::remove(path.c_str());
}

TEST(EdgeBlockStore, LoadRejectsGarbageAndMissing) {
  EXPECT_FALSE(EdgeBlockStore::LoadFrom("/nonexistent/nope.blks").ok());
  const std::string path = ::testing::TempDir() + "/garbage.blks";
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a block store", f);
  std::fclose(f);
  EXPECT_FALSE(EdgeBlockStore::LoadFrom(path).ok());
  std::remove(path.c_str());
}

/// `bytes` with `value` written host-endian at `offset`.
template <typename T>
std::string Patch(std::string bytes, size_t offset, T value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
  return bytes;
}

// Header size fields are checked against the bytes left in the stream
// before they size an allocation, and block extents may not wrap: each
// patched file is rejected with InvalidArgument instead of a terabyte
// request or an out-of-bounds decode.
TEST(EdgeBlockStore, LoadRejectsOversizedHeaderFields) {
  EdgeBlockStore store = EdgeBlockStore::FromEdges(
      RandomEdges(600, 90, 0x0bad), EdgeBlockStore::Options(64));
  store.set_name("patched");
  std::ostringstream out;
  ASSERT_TRUE(store.SerializeTo(out).ok());
  const std::string valid = out.str();
  // Layout: magic, name size, name, then num_vertices (u32), block size
  // (u32), num_edges, fingerprint, block count, word count, block table.
  const size_t n = store.name().size();
  const size_t kNameSize = 8;
  const size_t kBlockSize = 20 + n;
  const size_t kNumEdges = 24 + n;
  const size_t kNumBlocks = 40 + n;
  const size_t kNumWords = 48 + n;
  const size_t kFirstBitOffset = 56 + n;

  auto load = [](const std::string& bytes) {
    std::istringstream in(bytes);
    return EdgeBlockStore::DeserializeFrom(in);
  };
  ASSERT_TRUE(load(valid).ok());

  const std::string huge_edges =
      Patch(Patch(Patch(valid, kBlockSize, uint32_t{1}), kNumEdges,
                  uint64_t{1} << 40),
            kNumBlocks, uint64_t{1} << 40);
  // (2^64 - 1 + 2 - 1) / 2 wraps to 0 blocks when rounded up naively.
  const std::string wrapped_count =
      Patch(Patch(Patch(valid, kBlockSize, uint32_t{2}), kNumEdges,
                  ~uint64_t{0}),
            kNumBlocks, uint64_t{0});
  const std::pair<const char*, std::string> cases[] = {
      {"name size 2^62", Patch(valid, kNameSize, uint64_t{1} << 62)},
      {"word count 2^40", Patch(valid, kNumWords, uint64_t{1} << 40)},
      {"2^40 one-edge blocks", huge_edges},
      {"block count rounding wraps", wrapped_count},
      {"bit offset wraps past the word array",
       Patch(valid, kFirstBitOffset, ~uint64_t{0} - 63)},
  };
  for (const auto& [label, bytes] : cases) {
    SCOPED_TRACE(label);
    const util::StatusOr<EdgeBlockStore> loaded = load(bytes);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  }
}

TEST(EdgeBlockStore, StreamingSymmetrizedMatchesEdgeList) {
  for (uint64_t seed : {0x51ull, 0x52ull, 0x53ull}) {
    EdgeList edges = RandomEdges(900, 150, seed);
    // Sprinkle self loops: both paths must drop them.
    edges.AddEdge(5, 5);
    edges.AddEdge(149, 149);
    const EdgeList expected = edges.Symmetrized();
    const EdgeBlockStore store =
        EdgeBlockStore::FromEdges(edges, EdgeBlockStore::Options(64));
    const EdgeBlockStore sym =
        store.StreamingSymmetrized(EdgeBlockStore::Options(64));
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EXPECT_EQ(sym.name(), expected.name());
    EXPECT_EQ(sym.Fingerprint(), expected.Fingerprint());
    ExpectSameStream(expected, sym);
  }
}

TEST(EdgeBlockStore, StreamingSymmetrizedEmptyAndTiny) {
  const EdgeList empty("e", 4, {});
  const EdgeBlockStore empty_sym =
      EdgeBlockStore::FromEdges(empty).StreamingSymmetrized();
  EXPECT_EQ(empty_sym.num_edges(), 0u);
  EXPECT_EQ(empty_sym.Fingerprint(), empty.Symmetrized().Fingerprint());

  EdgeList one("one", 0, {});
  one.AddEdge(2, 8);
  const EdgeBlockStore one_sym =
      EdgeBlockStore::FromEdges(one).StreamingSymmetrized();
  EXPECT_EQ(one_sym.num_edges(), 2u);
  EXPECT_EQ(one_sym.Fingerprint(), one.Symmetrized().Fingerprint());
}

}  // namespace
}  // namespace gdp::graph

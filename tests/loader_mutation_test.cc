// Seeded mutation tests for the three on-disk loaders: EdgeBlockStore's
// DeserializeFrom (plus Validate), partition::LoadPlacement and
// graph::LoadEdgeList, and for obs::ParseJson, the parser that reads
// exported Chrome traces back. Each starts from a small valid file and derives
// fixed-seed mutants with util::Mix64: single-byte flips, truncations, and
// either a random 64-bit value written over an 8-byte-aligned field (block
// store) or an inserted 12-digit number (the two text formats). Every
// mutant must load or be rejected with a Status; a store that loads must
// then pass Validate() or fail it with a Status, and an edge list that
// loads must have at most two vertices per edge. No mutant may crash,
// throw, or allocate more than its file could describe — the ASan+UBSan
// leg of tools/check.sh runs this suite too.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "graph/edge_block_store.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "harness/experiment.h"
#include "obs/chrome_trace.h"
#include "obs/trace.h"
#include "partition/placement_io.h"
#include "util/hash.h"

namespace gdp {
namespace {

/// Fixed-seed value stream: the k-th draw is Mix64(seed + k).
class MixStream {
 public:
  explicit MixStream(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return util::Mix64(++state_); }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

void FlipByte(std::string& bytes, MixStream& rng) {
  bytes[rng.Below(bytes.size())] ^= static_cast<char>(1 + rng.Below(255));
}

void Truncate(std::string& bytes, MixStream& rng) {
  bytes.resize(rng.Below(bytes.size()));
}

std::string MutateStore(const std::string& valid, MixStream& rng) {
  std::string bytes = valid;
  switch (rng.Below(3)) {
    case 0:
      FlipByte(bytes, rng);
      break;
    case 1:
      Truncate(bytes, rng);
      break;
    default: {
      // A random 64-bit value, shaped so small counts, huge sizes, and
      // offsets just below 2^64 (which wrap offset arithmetic) all occur.
      uint64_t value = rng.Next();
      switch (rng.Below(3)) {
        case 0:
          value >>= rng.Below(64);
          break;
        case 1:
          value = ~uint64_t{0} - rng.Below(256);
          break;
        default:
          break;
      }
      const size_t offset = 8 * rng.Below(bytes.size() / 8);
      std::memcpy(bytes.data() + offset, &value, sizeof(value));
    }
  }
  return bytes;
}

/// Byte flip, truncation, or an inserted 12-digit number: the text-format
/// mutator.
std::string MutateText(const std::string& valid, MixStream& rng) {
  std::string text = valid;
  switch (rng.Below(3)) {
    case 0:
      FlipByte(text, rng);
      break;
    case 1:
      Truncate(text, rng);
      break;
    default: {
      const uint64_t twelve_digits =
          100000000000ULL + rng.Below(900000000000ULL);
      text.insert(rng.Below(text.size() + 1), std::to_string(twelve_digits));
    }
  }
  return text;
}

TEST(LoaderMutation, EdgeBlockStoreMutantsLoadOrFailWithStatus) {
  graph::EdgeBlockStore store = graph::EdgeBlockStore::FromEdges(
      graph::GenerateHeavyTailed(
          {.num_vertices = 120, .edges_per_vertex = 4, .seed = 5}),
      graph::EdgeBlockStore::Options(32));
  store.set_name("mutation");  // 8 bytes: header fields stay 8-aligned
  std::ostringstream out;
  ASSERT_TRUE(store.SerializeTo(out).ok());
  const std::string valid = out.str();

  MixStream rng(0x5eed);
  constexpr int kMutants = 2000;
  int loaded = 0;
  int validated = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string bytes = MutateStore(valid, rng);
    EXPECT_NO_THROW({
      std::istringstream in(bytes);
      util::StatusOr<graph::EdgeBlockStore> mutant =
          graph::EdgeBlockStore::DeserializeFrom(in);
      if (mutant.ok()) {
        ++loaded;
        if (mutant.value().Validate().ok()) ++validated;
      }
    }) << "mutant " << i;
  }
  // All three outcomes occur: rejected at load, loaded but failing
  // Validate (a flipped payload or chain byte), and valid (a flipped name
  // byte).
  EXPECT_LT(loaded, kMutants);
  EXPECT_LT(validated, loaded);
  EXPECT_GT(validated, 0);
  std::printf("store mutants: %d rejected, %d loaded, %d valid\n",
              kMutants - loaded, loaded, validated);
}

TEST(LoaderMutation, PlacementMutantsLoadOrFailWithStatus) {
  // 4 partitions on 2 machines, 12 vertices (two without a master), 30
  // edges: small, so inserted numbers often land in the header counts.
  std::string valid = "gdp-placement v1\n4 2 12 30\n";
  for (int i = 0; i < 30; ++i) valid += std::to_string(i % 4) + "\n";
  for (int v = 0; v < 12; ++v) {
    valid += v % 6 == 5 ? "-1\n" : std::to_string(v % 4) + "\n";
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "gdp_placement_mutant.txt")
          .string();
  auto load = [&](const std::string& text) {
    std::ofstream(path, std::ios::trunc) << text;
    return partition::LoadPlacement(path);
  };
  ASSERT_TRUE(load(valid).ok());

  MixStream rng(0x91ace);
  constexpr int kMutants = 500;
  int loaded = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string text = MutateText(valid, rng);
    EXPECT_NO_THROW({
      if (load(text).ok()) ++loaded;
    }) << "mutant " << i;
  }
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, kMutants);
  std::printf("placement mutants: %d rejected, %d loaded\n",
              kMutants - loaded, loaded);
  std::remove(path.c_str());
}

TEST(LoaderMutation, EdgeListMutantsLoadOrFailWithStatus) {
  // 40 edges over sparse 7-digit ids, with a comment line: inserted
  // 12-digit numbers and flipped digits make ids that no dense array could
  // hold, which renumbering must absorb.
  std::string valid = "# mutation\n";
  MixStream ids(0xed9e);
  for (int i = 0; i < 40; ++i) {
    valid += std::to_string(1000000 + ids.Below(9000000)) + " " +
             std::to_string(1000000 + ids.Below(9000000)) + "\n";
  }
  const std::string path =
      (std::filesystem::temp_directory_path() / "gdp_edge_list_mutant.txt")
          .string();
  auto load = [&](const std::string& text) {
    std::ofstream(path, std::ios::trunc) << text;
    return graph::LoadEdgeList(path);
  };
  ASSERT_TRUE(load(valid).ok());

  MixStream rng(0xed6e);
  constexpr int kMutants = 500;
  int loaded = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string text = MutateText(valid, rng);
    EXPECT_NO_THROW({
      util::StatusOr<graph::EdgeList> mutant = load(text);
      if (mutant.ok()) {
        ++loaded;
        EXPECT_LE(mutant.value().num_vertices(),
                  2 * mutant.value().num_edges())
            << "mutant " << i;
      } else {
        EXPECT_EQ(mutant.status().code(), util::StatusCode::kInvalidArgument)
            << "mutant " << i << ": " << mutant.status().ToString();
      }
    }) << "mutant " << i;
  }
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, kMutants);
  std::printf("edge list mutants: %d rejected, %d loaded\n",
              kMutants - loaded, loaded);
  std::remove(path.c_str());
}

TEST(LoaderMutation, ChromeTraceJsonMutantsParseOrFailWithStatus) {
  // A real export: ingress and superstep spans from a short traced run,
  // with their integer args.
  obs::TraceRecorder trace;
  harness::ExperimentSpec spec;
  spec.num_machines = 3;
  spec.app = harness::AppKind::kPageRankFixed;
  spec.max_iterations = 2;
  spec.exec.num_threads = 1;
  spec.exec.trace = &trace;
  harness::RunExperiment(
      graph::GenerateHeavyTailed(
          {.num_vertices = 40, .edges_per_vertex = 3, .seed = 9}),
      spec);
  // Wall-clock fields differ from run to run; fixing them makes every run
  // derive the same mutants.
  const std::string valid =
      std::regex_replace(obs::ToChromeTraceJson(trace),
                         std::regex(R"re("(ts|dur)":[^,]+)re"), "\"$1\":0");
  ASSERT_TRUE(obs::ValidateChromeTraceJson(valid).ok());
  ASSERT_NE(valid.find("\"memory_bytes\":"), std::string::npos);

  MixStream rng(0x75ace);
  constexpr int kMutants = 500;
  int parsed = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string text = MutateText(valid, rng);
    EXPECT_NO_THROW({
      util::StatusOr<obs::JsonValue> mutant = obs::ParseJson(text);
      if (mutant.ok()) {
        ++parsed;
      } else {
        EXPECT_EQ(mutant.status().code(), util::StatusCode::kInvalidArgument)
            << "mutant " << i << ": " << mutant.status().ToString();
      }
    }) << "mutant " << i;
  }
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutants);
  std::printf("trace JSON mutants: %d rejected, %d parsed\n",
              kMutants - parsed, parsed);
}

TEST(LoaderMutation, JsonNestingCapHoldsAtItsBoundary) {
  // The root is depth 0 and the parser refuses depths past 64, so 65
  // nested arrays are the deepest document it accepts.
  auto nested = [](int levels) {
    return std::string(levels, '[') + std::string(levels, ']');
  };
  EXPECT_TRUE(obs::ParseJson(nested(65)).ok());
  const util::StatusOr<obs::JsonValue> too_deep = obs::ParseJson(nested(66));
  ASSERT_FALSE(too_deep.ok());
  EXPECT_EQ(too_deep.status().code(), util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gdp

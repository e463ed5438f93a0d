// Self-tests for tools/gdp_lint.cc: each rule gets at least one fixture
// snippet that must trigger it and one that must stay clean, plus NOLINT
// suppression coverage. The fixtures are written into a fresh temp
// directory shaped like a repo root (src/sim/..., src/obs/..., tests/...)
// and the real gdp_lint binary (path injected by CMake as GDP_LINT_BIN)
// runs over it; assertions parse the "path:line: [rule]" findings it
// prints. That exercises the production scanner end to end — directory
// walk, comment/string stripping, rule scoping — not a reimplementation.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

#ifndef GDP_LINT_BIN
#error "GDP_LINT_BIN must be defined to the gdp_lint executable path"
#endif

/// One fixture tree + one linter run. Construct, add files, call Run().
class LintFixture {
 public:
  LintFixture() {
    root_ = fs::temp_directory_path() /
            ("gdp_lint_test_" +
             std::to_string(reinterpret_cast<uintptr_t>(this)) + "_" +
             std::to_string(counter_++));
    fs::create_directories(root_);
  }
  ~LintFixture() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  void AddFile(const std::string& rel, const std::string& contents) {
    const fs::path path = root_ / rel;
    fs::create_directories(path.parent_path());
    std::ofstream out(path);
    out << contents;
  }

  /// Runs gdp_lint over the fixture root; returns every finding line
  /// ("path:line: [rule] message") plus the exit code.
  struct Result {
    int exit_code = -1;
    std::vector<std::string> findings;
    std::string output;
  };
  Result Run() const {
    const fs::path out_path = root_ / "lint_output.txt";
    const std::string command = std::string(GDP_LINT_BIN) + " " +
                                root_.string() + " > " + out_path.string() +
                                " 2>&1";
    const int status = std::system(command.c_str());
    Result result;
    result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    std::ifstream in(out_path);
    std::string line;
    while (std::getline(in, line)) {
      result.output += line + "\n";
      if (line.find(": [") != std::string::npos) {
        result.findings.push_back(line);
      }
    }
    return result;
  }

 private:
  static inline int counter_ = 0;
  fs::path root_;
};

/// True when some finding mentions both `rule` and `path_fragment`.
bool HasFinding(const LintFixture::Result& result, const std::string& rule,
                const std::string& path_fragment) {
  for (const std::string& f : result.findings) {
    if (f.find("[" + rule + "]") != std::string::npos &&
        f.find(path_fragment) != std::string::npos) {
      return true;
    }
  }
  return false;
}

/// A minimal header body that satisfies the always-on rules (header guard).
std::string Header(const std::string& body) {
  // Fixture bodies are raw strings that begin with a newline, so body
  // content line k lands on file line 2 + k.
  return "#ifndef FIXTURE_H_\n#define FIXTURE_H_" + body + "#endif\n";
}

// ---------------------------------------------------------------------------
// no-wall-clock
// ---------------------------------------------------------------------------

TEST(LintNoWallClock, FlagsClockReadsInSrc) {
  LintFixture fx;
  fx.AddFile("src/sim/bad_clock.h", Header(R"(
inline double Now() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
inline long Stamp() { return time(nullptr); }
)"));
  const auto r = fx.Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(HasFinding(r, "no-wall-clock", "bad_clock.h:4")) << r.output;
  EXPECT_TRUE(HasFinding(r, "no-wall-clock", "bad_clock.h:6")) << r.output;
}

TEST(LintNoWallClock, AllowsObsLayerBenchesAndNolint) {
  LintFixture fx;
  // src/obs/ is the sanctioned wall-clock consumer.
  fx.AddFile("src/obs/spans.h", Header(R"(
/// Wall origin for span stamps.
inline double WallOrigin() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
)"));
  // bench/ harness timing is out of scope entirely.
  fx.AddFile("bench/bench_timing.cc",
             "int main() { return time(nullptr) != 0; }\n");
  // NOLINT suppresses in src/.
  fx.AddFile("src/sim/pinned.h", Header(R"(
inline long Stamp() { return time(nullptr); }  // NOLINT(no-wall-clock)
)"));
  // A MarkTime() call is not a time() call.
  fx.AddFile("src/sim/marks.h", Header(R"(
struct T { double MarkTime(int m) { return m * 2.0; } };
)"));
  const auto r = fx.Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// ---------------------------------------------------------------------------
// no-float-accumulate
// ---------------------------------------------------------------------------

TEST(LintNoFloatAccumulate, FlagsFloatMemberAccumulation) {
  LintFixture fx;
  fx.AddFile("src/sim/acc.h", Header(R"(
struct Acc {
  void Tick(double d) { seconds_ += d; }
  double seconds_ = 0;
};
)"));
  const auto r = fx.Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(HasFinding(r, "no-float-accumulate", "acc.h:4")) << r.output;
}

TEST(LintNoFloatAccumulate, SeesMembersDeclaredInCompanionHeader) {
  LintFixture fx;
  fx.AddFile("src/sim/acc2.h", Header(R"(
struct Acc2 {
  void Tick(double d);
  double total_seconds_ = 0;
};
)"));
  fx.AddFile("src/sim/acc2.cc",
             "#include \"sim/acc2.h\"\n"
             "void Acc2::Tick(double d) { total_seconds_ += d; }\n");
  const auto r = fx.Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(HasFinding(r, "no-float-accumulate", "acc2.cc:2")) << r.output;
}

TEST(LintNoFloatAccumulate, AllowsIntegerMembersLocalsAndNolint) {
  LintFixture fx;
  // Integer tick accounting is the sanctioned pattern.
  fx.AddFile("src/sim/ticks.h", Header(R"(
struct Ticks {
  void Add(unsigned long t) { ticks_ += t; }
  unsigned long ticks_ = 0;
};
)"));
  // Function-local double reductions are serial by construction: no member.
  fx.AddFile("src/sim/local.h", Header(R"(
inline double Sum(const double* xs, int n) {
  double total = 0;
  for (int i = 0; i < n; ++i) total += xs[i];
  return total;
}
)"));
  // NOLINT marks a justified serial barrier-point fold.
  fx.AddFile("src/sim/barrier.h", Header(R"(
struct Clock {
  void Advance(double d) { now_ += d; }  // NOLINT(no-float-accumulate)
  double now_ = 0;
};
)"));
  // Outside the accounting paths (src/engine/...) the rule does not apply.
  fx.AddFile("src/engine/stats.h", Header(R"(
struct S {
  void Fold(double d) { mean_ += d; }
  double mean_ = 0;
};
)"));
  const auto r = fx.Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// ---------------------------------------------------------------------------
// no-unordered-iteration
// ---------------------------------------------------------------------------

TEST(LintNoUnorderedIteration, FlagsRangeForOverHashContainers) {
  LintFixture fx;
  fx.AddFile("src/graph/walk.h", Header(R"(
#include <unordered_map>
#include <unordered_set>
struct W {
  void Visit() {
    for (auto& kv : table_) { (void)kv; }
    for (int v : seen_) { (void)v; }
  }
  std::unordered_map<int, int> table_;
  std::unordered_set<int> seen_;
};
)"));
  const auto r = fx.Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(HasFinding(r, "no-unordered-iteration", "walk.h:7")) << r.output;
  EXPECT_TRUE(HasFinding(r, "no-unordered-iteration", "walk.h:8")) << r.output;
}

TEST(LintNoUnorderedIteration, AllowsMembershipSortedMirrorsAndNolint) {
  LintFixture fx;
  // Hash containers used for membership only, iterating an ordered mirror.
  fx.AddFile("src/graph/dedup.h", Header(R"(
#include <unordered_set>
#include <vector>
struct D {
  void Add(int v) {
    if (seen_.insert(v).second) order_.push_back(v);
  }
  void Emit() {
    for (int v : order_) { (void)v; }
  }
  std::unordered_set<int> seen_;
  std::vector<int> order_;
};
)"));
  // NOLINT escape for order-insensitive folds.
  fx.AddFile("src/graph/fold.h", Header(R"(
#include <unordered_set>
struct F {
  long Sum() {
    long total = 0;
    for (int v : seen_) total += v;  // NOLINT(no-unordered-iteration)
    return total;
  }
  std::unordered_set<int> seen_;
};
)"));
  // tests/ are out of scope for this rule.
  fx.AddFile("tests/iter_test.cc",
             "#include <unordered_set>\n"
             "void F() {\n"
             "  std::unordered_set<int> s;\n"
             "  for (int v : s) { (void)v; }\n"
             "}\n");
  const auto r = fx.Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// ---------------------------------------------------------------------------
// mutex-annotated
// ---------------------------------------------------------------------------

TEST(LintMutexAnnotated, FlagsUnannotatedMutexMembers) {
  LintFixture fx;
  fx.AddFile("src/util/bare.h", Header(R"(
#include <mutex>
struct Bare {
  int value_ = 0;
  std::mutex mu_;
};
)"));
  const auto r = fx.Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(HasFinding(r, "mutex-annotated", "bare.h:6")) << r.output;
}

TEST(LintMutexAnnotated, AllowsGuardedMutexAndNolint) {
  LintFixture fx;
  // A GDP_GUARDED_BY reference satisfies the rule (std::mutex and the
  // util::Mutex wrapper alike).
  fx.AddFile("src/util/guarded.h", Header(R"(
#include <mutex>
struct Guarded {
  int value_ GDP_GUARDED_BY(mu_) = 0;
  std::mutex mu_;
};
struct WrapperGuarded {
  int value_ GDP_GUARDED_BY(wrapped_mu_) = 0;
  util::Mutex wrapped_mu_;
};
)"));
  // NOLINT for a mutex guarding state the attribute cannot name.
  fx.AddFile("src/util/external.h", Header(R"(
#include <mutex>
struct External {
  std::mutex stream_mu_;  // NOLINT(mutex-annotated): guards std::cerr
};
)"));
  const auto r = fx.Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// ---------------------------------------------------------------------------
// no-per-edge-accounting
// ---------------------------------------------------------------------------

TEST(LintNoPerEdgeAccounting, FlagsPerEntryMachineChargesInEngine) {
  LintFixture fx;
  fx.AddFile("src/engine/hot_loop.h", Header(R"(
inline void Gather(Acc& acc, const Plan& plan, uint64_t b, uint64_t e) {
  for (uint64_t s = b; s < e; ++s) {
    acc.AddTicks(plan.gather_machine[s], 20);
  }
}
)"));
  const auto r = fx.Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(HasFinding(r, "no-per-edge-accounting", "hot_loop.h:5"))
      << r.output;
}

TEST(LintNoPerEdgeAccounting, AllowsRunTablesOtherDirsAndNolint) {
  LintFixture fx;
  // Batched accounting through the plan's run tables: the machine argument
  // is RunMachine(run), not a per-entry array index.
  fx.AddFile("src/engine/batched.h", Header(R"(
inline void Charge(Acc& acc, const Plan& plan, uint64_t v) {
  for (uint64_t r = plan.run_offsets[v]; r < plan.run_offsets[v + 1]; ++r) {
    const uint32_t run = plan.runs[r];
    acc.AddTicks(Plan::RunMachine(run), 20ULL * Plan::RunCount(run));
  }
}
)"));
  // Outside src/engine/ the rule does not apply (sim's accumulator tests
  // exercise the raw call shape deliberately).
  fx.AddFile("src/sim/accum_use.h", Header(R"(
inline void Exercise(Acc& acc, const Tags& entry_machine, uint64_t s) {
  acc.AddTicks(entry_machine[s], 20);
}
)"));
  // A deliberate per-entry charge can still opt out with a NOLINT.
  fx.AddFile("src/engine/baseline.h", Header(R"(
inline void Baseline(Acc& acc, const Plan& plan, uint64_t s) {
  acc.AddTicks(plan.gather_machine[s], 20);  // NOLINT(no-per-edge-accounting)
}
)"));
  const auto r = fx.Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// ---------------------------------------------------------------------------
// Serving-layer shape: the bounded-queue scheduler pattern used by
// src/serving/ — admission state guarded by an annotated mutex, latencies
// in integer *simulated* microseconds — must pass every rule untouched,
// and the tempting shortcuts (wall-clock latency stamps, a bare queue
// mutex) must each fire.
// ---------------------------------------------------------------------------

TEST(LintServingShape, BoundedQueueSchedulerPassesClean) {
  LintFixture fx;
  fx.AddFile("src/serving/mini_server.h", Header(R"(
#include <cstdint>
#include <mutex>
#include <vector>
struct MiniServer {
  bool Admit(uint64_t id, uint64_t arrival_us) {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.size() >= capacity_) { rejected_++; return false; }
    queue_.push_back(id);
    admitted_at_us_.push_back(arrival_us);  // simulated clock, caller-owned
    return true;
  }
  size_t capacity_ = 64;
  std::vector<uint64_t> queue_ GDP_GUARDED_BY(mu_);
  std::vector<uint64_t> admitted_at_us_ GDP_GUARDED_BY(mu_);
  uint64_t rejected_ GDP_GUARDED_BY(mu_) = 0;
  std::mutex mu_;
};
)"));
  const auto r = fx.Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.findings.empty()) << r.output;
}

TEST(LintServingShape, WallClockLatencyAndBareQueueMutexFire) {
  LintFixture fx;
  fx.AddFile("src/serving/bad_server.h", Header(R"(
#include <chrono>
#include <cstdint>
#include <mutex>
struct BadServer {
  uint64_t StampLatency() {
    return std::chrono::steady_clock::now().time_since_epoch().count();
  }
  uint64_t depth_ = 0;
  std::mutex queue_mu_;
};
)"));
  const auto r = fx.Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(HasFinding(r, "no-wall-clock", "bad_server.h:8")) << r.output;
  EXPECT_TRUE(HasFinding(r, "mutex-annotated", "bad_server.h:11")) << r.output;
}

// ---------------------------------------------------------------------------
// Registry shape: the self-registering strategy-catalogue pattern used by
// src/partition/strategy_registry.h — entries in a mutex-guarded vector
// (deterministic registration-order iteration, never a hash container) —
// must pass every rule untouched, and the tempting shortcuts (a bare
// registry mutex, a name->entry unordered_map iterated for All()) must
// each fire.
// ---------------------------------------------------------------------------

TEST(LintRegistryShape, GuardedVectorCataloguePassesClean) {
  LintFixture fx;
  fx.AddFile("src/partition/mini_registry.h", Header(R"(
#include <memory>
#include <mutex>
#include <string>
#include <vector>
struct Entry {
  int kind = 0;
  std::string name;
};
struct MiniRegistry {
  void Register(Entry e) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.push_back(std::make_unique<Entry>(e));
  }
  const Entry* FindByName(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& entry : entries_) {
      if (entry->name == name) return entry.get();
    }
    return nullptr;
  }
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_ GDP_GUARDED_BY(mu_);
};
)"));
  const auto r = fx.Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.findings.empty()) << r.output;
}

TEST(LintRegistryShape, BareMutexAndUnorderedIterationFire) {
  LintFixture fx;
  fx.AddFile("src/partition/bad_registry.h", Header(R"(
#include <mutex>
#include <string>
#include <unordered_map>
struct BadRegistry {
  void All() {
    for (auto& kv : by_name_) { (void)kv; }
  }
  std::unordered_map<std::string, int> by_name_;
  std::mutex registry_mu_;
};
)"));
  const auto r = fx.Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(HasFinding(r, "no-unordered-iteration", "bad_registry.h:8"))
      << r.output;
  EXPECT_TRUE(HasFinding(r, "mutex-annotated", "bad_registry.h:11"))
      << r.output;
}

// ---------------------------------------------------------------------------
// Raw string literals must not leak into rule matching (the stripper
// handles R"(...)" including embedded quotes and multi-line bodies).
// ---------------------------------------------------------------------------

TEST(LintStripper, RawStringContentsNeverTrigger) {
  LintFixture fx;
  fx.AddFile("src/sim/raw.h", Header(R"FIX(
inline const char* Doc() {
  return R"(steady_clock::now( and time(nullptr) and " a stray quote)";
}
inline const char* Multi() {
  return R"delim(
    rand();
    std::cout << "boo";
    for (auto& kv : table_) {}
  )delim";
}
inline int After() { return 1; }
)FIX"));
  const auto r = fx.Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(LintStripper, CodeAfterRawStringStillScanned) {
  LintFixture fx;
  fx.AddFile("src/sim/raw_tail.h", Header(R"FIX(
inline const char* kDoc = R"(harmless)";
inline long Stamp() { return time(nullptr); }
)FIX"));
  const auto r = fx.Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(HasFinding(r, "no-wall-clock", "raw_tail.h:4")) << r.output;
}

// ---------------------------------------------------------------------------
// Pre-existing rules keep working after the stripper/rule additions.
// ---------------------------------------------------------------------------

TEST(LintLegacyRules, StillFire) {
  LintFixture fx;
  fx.AddFile("src/util/legacy.h", Header(R"(
inline int Roll() { return rand(); }
)"));
  fx.AddFile("src/util/noguard.h", "struct G {};\n");
  const auto r = fx.Run();
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_TRUE(HasFinding(r, "no-rand", "legacy.h:3")) << r.output;
  EXPECT_TRUE(HasFinding(r, "header-guard", "noguard.h:1")) << r.output;
}

TEST(LintCleanTree, ExitsZeroWithNoFindings) {
  LintFixture fx;
  fx.AddFile("src/util/fine.h", Header(R"(
inline int Add(int a, int b) { return a + b; }
)"));
  const auto r = fx.Run();
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_TRUE(r.findings.empty()) << r.output;
}

}  // namespace

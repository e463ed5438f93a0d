// gdp_lint: source-level project linter (line/token based, no libclang).
//
// Usage: gdp_lint <repo-root>
//
// Scans src/, tools/, bench/, tests/, and examples/ for violations of the
// project rules and prints one "path:line: [rule] message" per finding;
// exits non-zero when anything is found. Registered as a ctest test so the
// rules run on every `ctest` invocation (see tools/CMakeLists.txt and
// tools/check.sh).
//
// Rules:
//   no-rand        src/ only: no rand()/srand() — library code must use
//                  util/random.h so experiments stay seed-reproducible.
//   no-cout        src/ only: no std::cout — library code reports through
//                  return values or GDP_LOG, never by printing.
//   no-naked-new   everywhere: `new` must be wrapped in a smart pointer
//                  within the same statement (make_unique/unique_ptr/
//                  shared_ptr) or carry a NOLINT comment.
//   no-include-cc  everywhere: never #include a .cc file.
//   header-guard   every .h must have #pragma once or an #ifndef guard.
//   status-discard everywhere: a call to a function returning Status /
//                  StatusOr must not stand alone as a statement (and must
//                  not be (void)-cast). [[nodiscard]] catches most of this
//                  at compile time; the lint also catches the (void) cast
//                  that silences the compiler.
//   obs-doc        src/obs/*.h only: every public declaration (free
//                  function, type, constant, public member, public field)
//                  must carry a `///` doc comment on the preceding line.
//                  The observability layer is the project's instrumentation
//                  API surface; undocumented knobs there rot fastest.
//                  Defaulted/deleted members and destructors are exempt.
//
// Determinism-contract rules (the simulated-cost determinism contract,
// DESIGN.md sections 7-8 and 11):
//   no-wall-clock  src/ except src/obs/: no steady_clock/system_clock/
//                  high_resolution_clock::now(), time(), gettimeofday(), or
//                  clock(). Wall time must never feed simulated results;
//                  the sanctioned wall-clock fields live in the trace layer
//                  (src/obs/) and bench/ timing is out of scope.
//   no-float-accumulate
//                  src/sim/ and the ingress cost-accounting paths
//                  (src/partition/ingest*, src/partition/partitioner*): no
//                  `+=` into a float/double *member* (trailing-underscore
//                  name declared float/double in the file or its companion
//                  header). Cross-phase cost state must accumulate in
//                  integer ticks/bytes; float folds are order-sensitive, so
//                  parallel schedules would produce different bits. Serial
//                  reductions at barrier points carry NOLINT justifications.
//   no-unordered-iteration
//                  src/ only: no range-for over a std::unordered_map/set
//                  declared in the same file. Hash-table iteration order is
//                  implementation-defined; anything it feeds (simulated
//                  costs, generated graphs, exported tables) loses
//                  cross-platform reproducibility. Iterate a sorted or
//                  insertion-ordered mirror instead.
//   mutex-annotated
//                  src/ only: every std::mutex / util::Mutex member must be
//                  referenced by at least one GDP_GUARDED_BY /
//                  GDP_PT_GUARDED_BY in the same file, so Clang thread
//                  safety analysis (util/thread_annotations.h) has a
//                  capability to check. A mutex guarding nothing it can
//                  name (e.g. an external stream) carries a NOLINT.
//   no-per-edge-accounting
//                  src/engine/ only: no AddTicks call indexed by a
//                  per-entry machine array (`..._machine[...]`) — that
//                  shape charges the accumulator once per adjacency entry
//                  in the engines' innermost CSR loops. The plan's
//                  per-vertex (machine, count) run tables charge the same
//                  integer ticks with one call per distinct machine,
//                  bit-identically (integer sums are order-free).
//                  No per-edge kernel or sanctioned NOLINT remains.
//
// Comment and string contents — including raw string literals R"(...)" —
// are stripped before matching, so prose and literals never trigger
// findings.

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string file;
  size_t line = 0;
  std::string rule;
  std::string message;
};

struct FileText {
  fs::path path;
  std::string rel;                    // path relative to the repo root
  std::vector<std::string> raw;       // original lines
  std::vector<std::string> stripped;  // comments and string literals blanked
};

/// Cross-line lexer state for StripLine: the /* ... */ block-comment flag
/// and, when inside a raw string literal, the `)delim"` terminator being
/// waited for (raw strings may span lines and may contain quotes).
struct StripState {
  bool in_block = false;
  std::string raw_end;
};

/// Blanks comments, string literals (including raw strings), and char
/// literals, preserving line structure so findings carry real line numbers.
std::string StripLine(const std::string& line, StripState& state) {
  std::string out;
  out.reserve(line.size());
  size_t start = 0;
  if (!state.raw_end.empty()) {
    const size_t end = line.find(state.raw_end);
    if (end == std::string::npos) return out;  // still inside the raw string
    start = end + state.raw_end.size();
    state.raw_end.clear();
    out.push_back('"');  // closes the quote emitted at the opening R"
  }
  for (size_t i = start; i < line.size(); ++i) {
    if (state.in_block) {
      if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
        state.in_block = false;
        ++i;
      }
      continue;
    }
    char c = line[i];
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') break;
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
      state.in_block = true;
      ++i;
      continue;
    }
    // Raw string literal R"delim( ... )delim": no escape processing, may
    // contain quotes, may span lines. The leading R must not be the tail of
    // an identifier.
    if (c == 'R' && i + 1 < line.size() && line[i + 1] == '"' &&
        (i == 0 || (!std::isalnum(static_cast<unsigned char>(line[i - 1])) &&
                    line[i - 1] != '_'))) {
      const size_t open = line.find('(', i + 2);
      if (open != std::string::npos) {
        const std::string closer =
            ")" + line.substr(i + 2, open - (i + 2)) + "\"";
        out.push_back('"');
        const size_t end = line.find(closer, open + 1);
        if (end == std::string::npos) {
          state.raw_end = closer;
          return out;
        }
        out.push_back('"');
        i = end + closer.size() - 1;
        continue;
      }
    }
    if (c == '"' || c == '\'') {
      char quote = c;
      out.push_back(quote);
      ++i;
      while (i < line.size()) {
        if (line[i] == '\\') {
          i += 2;
          continue;
        }
        if (line[i] == quote) break;
        ++i;
      }
      out.push_back(quote);
      continue;
    }
    out.push_back(c);
  }
  return out;
}

FileText LoadFile(const fs::path& path, const fs::path& root) {
  FileText f;
  f.path = path;
  f.rel = fs::relative(path, root).string();
  std::ifstream in(path);
  std::string line;
  StripState state;
  while (std::getline(in, line)) {
    f.raw.push_back(line);
    f.stripped.push_back(StripLine(line, state));
  }
  return f;
}

bool HasNolint(const std::string& raw_line) {
  return raw_line.find("NOLINT") != std::string::npos;
}

bool InDir(const FileText& f, const char* dir) {
  return f.rel.rfind(std::string(dir) + "/", 0) == 0;
}

/// Collects names of functions declared or defined to return Status or
/// StatusOr<...>, for the status-discard rule. Factory members declared in
/// util/status.h itself (Ok, InvalidArgument, ...) are excluded: they
/// produce a Status the caller is about to use, and their call sites are
/// the return statements the other patterns already cover.
std::set<std::string> CollectStatusFunctions(
    const std::vector<FileText>& files) {
  static const std::regex kDecl(
      R"((?:util::)?Status(?:Or<[^;{]*>)?\s+(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\()");
  std::set<std::string> names;
  for (const FileText& f : files) {
    if (f.rel == "src/util/status.h") continue;
    for (const std::string& line : f.stripped) {
      for (std::sregex_iterator it(line.begin(), line.end(), kDecl), end;
           it != end; ++it) {
        names.insert((*it)[1].str());
      }
    }
  }
  return names;
}

void CheckHeaderGuard(const FileText& f, std::vector<Finding>& findings) {
  if (f.path.extension() != ".h") return;
  for (const std::string& line : f.stripped) {
    if (line.find("#pragma once") != std::string::npos) return;
    if (line.find("#ifndef") != std::string::npos) return;
    // Any other preprocessor directive or code before the guard means the
    // guard is missing or too late to protect anything.
    std::string trimmed = line.substr(line.find_first_not_of(" \t") ==
                                              std::string::npos
                                          ? line.size()
                                          : line.find_first_not_of(" \t"));
    if (!trimmed.empty()) break;
  }
  findings.push_back({f.rel, 1, "header-guard",
                      "header has no #pragma once or #ifndef include guard"});
}

/// obs-doc: in src/obs/ headers, every public declaration must carry a `///`
/// doc comment on the line above it. The scan is indentation-based: type,
/// free-function, and constant declarations sit at column 0; public members
/// sit at a 2-space indent inside a `public:` (or struct) section.
/// Continuation lines of multi-line signatures are indented deeper and never
/// match, so only the first line of a declaration is checked.
void CheckObsDocs(const FileText& f, std::vector<Finding>& findings) {
  if (f.path.extension() != ".h" || f.rel.rfind("src/obs/", 0) != 0) return;
  // Namespace-scope declarations.
  static const std::regex kTopType(
      R"(^(?:class|struct|enum(?:\s+class)?)\s+[A-Za-z_])");
  static const std::regex kForwardDecl(R"(^(?:class|struct)\s+\w+\s*;)");
  static const std::regex kTopFn(
      R"(^[A-Za-z_][\w:<>,&*\s]*\s[A-Za-z_]\w*\s*\()");
  static const std::regex kTopConst(R"(^(?:inline\s+)?constexpr\b)");
  // Class-scope members: exactly 2 spaces of indent, then a declaration.
  static const std::regex kMember(
      R"(^\s{2}(?!public\b|private\b|protected\b)[A-Za-z_~].*[({;])");
  static const std::regex kDtor(R"(^\s*~)");

  bool member_scope_public = false;  // inside a class/struct public section
  for (size_t i = 0; i < f.stripped.size(); ++i) {
    const std::string& line = f.stripped[i];
    const size_t lineno = i + 1;

    // Track public/private state for the 2-space-indent member scan.
    if (std::regex_search(line, kTopType) &&
        !std::regex_search(line, kForwardDecl)) {
      member_scope_public = line.rfind("class", 0) != 0;  // struct => public
    }
    if (line.find("public:") != std::string::npos) member_scope_public = true;
    if (line.find("private:") != std::string::npos ||
        line.find("protected:") != std::string::npos) {
      member_scope_public = false;
    }
    if (line.rfind("};", 0) == 0) member_scope_public = false;

    if (HasNolint(f.raw[i])) continue;
    // Defaulted/deleted members, destructors, and friend declarations need
    // no prose; their meaning is their spelling.
    if (line.find("= delete") != std::string::npos ||
        line.find("= default") != std::string::npos ||
        line.find("friend ") != std::string::npos ||
        std::regex_search(line, kDtor)) {
      continue;
    }

    bool is_decl = false;
    if (std::regex_search(line, kTopType) &&
        !std::regex_search(line, kForwardDecl)) {
      is_decl = true;
    } else if (std::regex_search(line, kTopFn) ||
               std::regex_search(line, kTopConst)) {
      is_decl = true;
    } else if (member_scope_public && std::regex_search(line, kMember)) {
      is_decl = true;
    }
    if (!is_decl) continue;

    const bool documented =
        i > 0 && f.raw[i - 1].find("///") != std::string::npos;
    if (!documented) {
      findings.push_back(
          {f.rel, lineno, "obs-doc",
           "public declaration in src/obs/ lacks a /// doc comment on the "
           "preceding line"});
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism-contract rules.
// ---------------------------------------------------------------------------

/// no-wall-clock: wall time must never feed simulated results. The trace
/// layer (src/obs/) is the one sanctioned consumer — it stamps wall-clock
/// span fields that are documented as non-simulated — and bench/ timing is
/// outside the rule's scope entirely.
void CheckWallClock(const FileText& f, std::vector<Finding>& findings) {
  if (!InDir(f, "src") || f.rel.rfind("src/obs/", 0) == 0) return;
  static const std::regex kClock(
      R"(\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\()"
      R"(|\btime\s*\(\s*(?:nullptr|NULL|0)?\s*\))"
      R"(|\bgettimeofday\s*\()"
      R"(|\bclock\s*\(\s*\))");
  for (size_t i = 0; i < f.stripped.size(); ++i) {
    if (HasNolint(f.raw[i])) continue;
    if (std::regex_search(f.stripped[i], kClock)) {
      findings.push_back(
          {f.rel, i + 1, "no-wall-clock",
           "wall-clock read in library code; simulated results must be a "
           "pure function of inputs (wall time lives only in src/obs/ span "
           "fields and bench/ harness timing)"});
    }
  }
}

/// Names of float/double members (trailing-underscore identifiers) declared
/// in `f`, for no-float-accumulate. Members are the cross-phase accumulator
/// state the determinism contract cares about; function-local reductions at
/// barrier/query points are serial by construction and stay out of scope.
std::set<std::string> CollectFloatMembers(const FileText& f) {
  static const std::regex kDecl(
      R"(\b(?:float|double|std::vector<\s*(?:float|double)\s*>)\s+(\w*_)\s*[;={])");
  std::set<std::string> names;
  for (const std::string& line : f.stripped) {
    for (std::sregex_iterator it(line.begin(), line.end(), kDecl), end;
         it != end; ++it) {
      names.insert((*it)[1].str());
    }
  }
  return names;
}

bool InIngressAccounting(const FileText& f) {
  return InDir(f, "src/sim") ||
         f.rel.rfind("src/partition/ingest", 0) == 0 ||
         f.rel.rfind("src/partition/partitioner", 0) == 0;
}

/// no-float-accumulate: `+=` into a float/double member inside the
/// simulated-cost accounting paths. Parallel schedules fold partial sums in
/// different orders, and float addition is not associative — integer
/// ticks/bytes (sim::PhaseAccumulator) are the determinism backbone.
/// `float_members` is the union of the file's own declarations and its
/// companion header's (cluster.cc accumulates members declared in
/// cluster.h).
void CheckFloatAccumulate(const FileText& f,
                          const std::set<std::string>& float_members,
                          std::vector<Finding>& findings) {
  if (!InIngressAccounting(f)) return;
  static const std::regex kAccum(R"((\w+_)\s*(?:\[[^\]]*\]\s*)?\+=)");
  for (size_t i = 0; i < f.stripped.size(); ++i) {
    if (HasNolint(f.raw[i])) continue;
    const std::string& line = f.stripped[i];
    for (std::sregex_iterator it(line.begin(), line.end(), kAccum), end;
         it != end; ++it) {
      if (float_members.count((*it)[1].str()) == 0) continue;
      findings.push_back(
          {f.rel, i + 1, "no-float-accumulate",
           "float/double accumulation into member '" + (*it)[1].str() +
               "' in simulated-cost accounting; accumulate integer "
               "ticks/bytes (or NOLINT a serial barrier-point reduction)"});
    }
  }
}

/// no-unordered-iteration: range-for over a hash container declared in the
/// same file. Iteration order is implementation-defined, so anything the
/// loop feeds — simulated costs, generated graphs, exported tables — stops
/// being reproducible across standard libraries.
void CheckUnorderedIteration(const FileText& f,
                             std::vector<Finding>& findings) {
  if (!InDir(f, "src")) return;
  static const std::regex kDecl(
      R"(\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;]*>\s+(\w+)\s*[;({=])");
  std::set<std::string> containers;
  for (const std::string& line : f.stripped) {
    for (std::sregex_iterator it(line.begin(), line.end(), kDecl), end;
         it != end; ++it) {
      containers.insert((*it)[1].str());
    }
  }
  if (containers.empty()) return;
  static const std::regex kRangeFor(R"(\bfor\s*\([^;)]*:\s*(\w+)\s*\))");
  for (size_t i = 0; i < f.stripped.size(); ++i) {
    if (HasNolint(f.raw[i])) continue;
    std::smatch m;
    if (std::regex_search(f.stripped[i], m, kRangeFor) &&
        containers.count(m[1].str()) != 0) {
      findings.push_back(
          {f.rel, i + 1, "no-unordered-iteration",
           "range-for over unordered container '" + m[1].str() +
               "'; hash iteration order is implementation-defined — iterate "
               "a sorted or insertion-ordered mirror instead"});
    }
  }
}

/// mutex-annotated: every mutex member in src/ must back at least one
/// GDP_GUARDED_BY / GDP_PT_GUARDED_BY in the same file, so the Clang
/// thread-safety leg has a capability to check and readers can see what the
/// lock protects. util::MutexLock declarations do not match (the regex
/// requires whitespace after the type).
void CheckMutexAnnotated(const FileText& f, std::vector<Finding>& findings) {
  if (!InDir(f, "src")) return;
  static const std::regex kDecl(R"(\b(?:std::mutex|(?:util::)?Mutex)\s+(\w+)\s*[;={])");
  for (size_t i = 0; i < f.stripped.size(); ++i) {
    if (HasNolint(f.raw[i])) continue;
    std::smatch m;
    if (!std::regex_search(f.stripped[i], m, kDecl)) continue;
    const std::string name = m[1].str();
    bool annotated = false;
    for (const std::string& line : f.stripped) {
      if (line.find("GDP_GUARDED_BY(" + name + ")") != std::string::npos ||
          line.find("GDP_PT_GUARDED_BY(" + name + ")") != std::string::npos) {
        annotated = true;
        break;
      }
    }
    if (!annotated) {
      findings.push_back(
          {f.rel, i + 1, "mutex-annotated",
           "mutex '" + name +
               "' has no GDP_GUARDED_BY/GDP_PT_GUARDED_BY referencing it; "
               "annotate the state it guards (util/thread_annotations.h) or "
               "NOLINT with a justification"});
    }
  }
}

/// no-per-edge-accounting: an AddTicks call whose machine argument
/// indexes a per-entry machine array is a per-adjacency-entry charge — the
/// shape the batched run-table kernels replaced. Integer charges are
/// order-free, so batching per vertex is bit-identical; no per-edge kernel
/// remains, so no NOLINT for this rule is sanctioned in the tree.
void CheckPerEdgeAccounting(const FileText& f,
                            std::vector<Finding>& findings) {
  if (!InDir(f, "src/engine")) return;
  static const std::regex kPerEdge(
      R"(\bAddTicks\s*\([^;]*_machine\s*\[)");
  for (size_t i = 0; i < f.stripped.size(); ++i) {
    if (HasNolint(f.raw[i])) continue;
    if (std::regex_search(f.stripped[i], kPerEdge)) {
      findings.push_back(
          {f.rel, i + 1, "no-per-edge-accounting",
           "AddTicks charged per adjacency entry (per-entry machine "
           "index); batch through the plan's (machine, count) run tables — "
           "integer charges are order-free, so batching is bit-identical"});
    }
  }
}

void CheckLines(const FileText& f, const std::set<std::string>& status_fns,
                std::vector<Finding>& findings) {
  static const std::regex kRand(R"(\b(?:std::)?s?rand\s*\()");
  static const std::regex kCout(R"(\bstd::cout\b)");
  static const std::regex kNew(R"(\bnew\b\s*[A-Za-z_(<])");
  // Matched against the RAW line: the include path is a string literal,
  // which stripping would blank.
  static const std::regex kIncludeCc(R"(^\s*#\s*include\s*[<"][^">]*\.cc[">])");
  static const std::regex kBareCall(
      R"(^\s*(?:\(\s*void\s*\)\s*)?(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\()");
  const bool in_src = InDir(f, "src");

  // Statement buffer for no-naked-new: text since the last ; { or },
  // so `unique_ptr<T>(\n    new T(...))` split across lines still passes.
  std::string statement;

  for (size_t i = 0; i < f.stripped.size(); ++i) {
    const std::string& line = f.stripped[i];
    const size_t lineno = i + 1;
    const bool nolint = HasNolint(f.raw[i]);

    if (in_src && !nolint && std::regex_search(line, kRand)) {
      findings.push_back({f.rel, lineno, "no-rand",
                          "rand()/srand() in library code; use util/random.h "
                          "so runs stay seed-reproducible"});
    }
    if (in_src && !nolint && std::regex_search(line, kCout)) {
      findings.push_back({f.rel, lineno, "no-cout",
                          "std::cout in library code; return values or use "
                          "GDP_LOG"});
    }
    if (!nolint && std::regex_search(f.raw[i], kIncludeCc)) {
      findings.push_back(
          {f.rel, lineno, "no-include-cc", "#include of a .cc file"});
    }

    if (!nolint && std::regex_search(line, kNew)) {
      std::string context = statement + line;
      if (context.find("unique_ptr") == std::string::npos &&
          context.find("shared_ptr") == std::string::npos &&
          context.find("make_unique") == std::string::npos &&
          context.find("make_shared") == std::string::npos) {
        findings.push_back({f.rel, lineno, "no-naked-new",
                            "naked new; use std::make_unique or wrap in a "
                            "smart pointer in the same statement"});
      }
    }

    const bool starts_statement =
        statement.find_first_not_of(" \t") == std::string::npos;
    if (!nolint && starts_statement && f.path.extension() != ".h") {
      std::smatch m;
      if (std::regex_search(line, m, kBareCall) &&
          status_fns.count(m[1].str()) != 0 &&
          line.find('=') == std::string::npos) {
        // A call statement `Foo(...);` (possibly (void)-cast) whose callee
        // returns Status/StatusOr, with no assignment on the line: the
        // result is discarded.
        findings.push_back(
            {f.rel, lineno, "status-discard",
             "result of Status-returning call '" + m[1].str() +
                 "' is discarded; check it, propagate it with "
                 "GDP_RETURN_IF_ERROR, or assert with GDP_CHECK_OK"});
      }
    }

    // Update the statement buffer.
    size_t cut = line.find_last_of(";{}");
    if (cut == std::string::npos) {
      statement += line + " ";
    } else {
      statement = line.substr(cut + 1) + " ";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <repo-root>\n", argv[0]);
    return 2;
  }
  const fs::path root(argv[1]);
  if (!fs::is_directory(root)) {
    std::fprintf(stderr, "gdp_lint: not a directory: %s\n", argv[1]);
    return 2;
  }

  std::vector<FileText> files;
  for (const char* dir : {"src", "tools", "bench", "tests", "examples"}) {
    const fs::path sub = root / dir;
    if (!fs::is_directory(sub)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(sub)) {
      if (!entry.is_regular_file()) continue;
      const fs::path& p = entry.path();
      if (p.extension() == ".h" || p.extension() == ".cc" ||
          p.extension() == ".cpp") {
        files.push_back(LoadFile(p, root));
      }
    }
  }

  const std::set<std::string> status_fns = CollectStatusFunctions(files);

  // Per-file float-member sets, unioned with the companion header's for .cc
  // files (cluster.cc accumulates into members declared in cluster.h).
  std::map<std::string, std::set<std::string>> float_members;
  for (const FileText& f : files) float_members[f.rel] = CollectFloatMembers(f);

  std::vector<Finding> findings;
  for (const FileText& f : files) {
    CheckHeaderGuard(f, findings);
    CheckObsDocs(f, findings);
    CheckWallClock(f, findings);
    std::set<std::string> floats = float_members[f.rel];
    if (f.path.extension() != ".h") {
      const std::string header_rel =
          fs::path(f.rel).replace_extension(".h").generic_string();
      auto it = float_members.find(header_rel);
      if (it != float_members.end()) {
        floats.insert(it->second.begin(), it->second.end());
      }
    }
    CheckFloatAccumulate(f, floats, findings);
    CheckUnorderedIteration(f, findings);
    CheckMutexAnnotated(f, findings);
    CheckPerEdgeAccounting(f, findings);
    CheckLines(f, status_fns, findings);
  }

  for (const Finding& x : findings) {
    std::printf("%s:%zu: [%s] %s\n", x.file.c_str(), x.line, x.rule.c_str(),
                x.message.c_str());
  }
  if (!findings.empty()) {
    std::printf("gdp_lint: %zu finding(s) in %zu files scanned\n",
                findings.size(), files.size());
    return 1;
  }
  std::printf("gdp_lint: clean (%zu files scanned)\n", files.size());
  return 0;
}

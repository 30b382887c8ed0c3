// cobra_lint: repo-invariant linter. Unlike the clang-tidy `lint` target
// (general C++ hygiene), this binary enforces invariants specific to this
// codebase that no generic checker knows about:
//
//   1. span-coverage   — every kernel operator records a trace span: each
//                        name in the operator span inventory must appear as
//                        a string literal in some src/kernel/*.cc file, and
//                        so must the exchange spans and the MIL wrapper
//                        spans the plan analyzer attaches static
//                        cardinality intervals to.
//   2. nodiscard       — the error-carrying types stay [[nodiscard]]:
//                        dropping a Status/Result (or a Value::Numeric
//                        conversion) on the floor must not compile. The
//                        compiler enforces consumption; this check enforces
//                        that nobody quietly removes the attribute.
//   3. fsync-after-rename — in src/kernel/persist.cc every filesystem
//                        Rename() (the atomic-publish step of checkpoint /
//                        WAL rotation) is followed by a SyncDir() in the
//                        same function, so a crash cannot lose the
//                        directory entry of a file the store already calls
//                        durable.
//
// Usage:
//   cobra_lint <repo-root>     lint the tree; exit 1 on any violation
//   cobra_lint --self-test     run the checkers over embedded good/bad
//                              snippets; exit 1 if any checker is blind
//
// No dependencies beyond the standard library, so the `lint-invariants`
// build target works on machines without clang-tidy.

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Violation {
  std::string file;
  int line = 0;  // 0 = whole-file finding
  std::string message;
};

std::string ReadFile(const std::string& path, bool* ok) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *ok = false;
    return "";
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *ok = true;
  return buf.str();
}

// -- check 1: span coverage --------------------------------------------------

/// The operator span inventory: one entry per kernel operator (and per MIL
/// wrapper the analyzer attaches PlanFacts to). Growing the kernel without
/// growing this list is fine; REMOVING a span regresses observability and
/// fails here.
const char* const kRequiredSpans[] = {
    "kernel.select_eq", "kernel.select_range", "kernel.select_str",
    "kernel.sum",       "kernel.max",          "kernel.min",
    "kernel.arg_max",   "kernel.join",         "kernel.semijoin",
    "kernel.diff",      "kernel.group",        "kernel.concat",
    "exchange.scatter", "exchange.merge",      "exchange.gather",
    "mil.select",       "mil.join",            "mil.semijoin",
    "mil.diff",         "mil.concat",          "mil.group",
};

std::vector<Violation> CheckSpanCoverage(const std::string& kernel_sources,
                                         const std::string& label) {
  std::vector<Violation> out;
  for (const char* span : kRequiredSpans) {
    const std::string quoted = std::string("\"") + span + "\"";
    if (kernel_sources.find(quoted) == std::string::npos) {
      out.push_back({label, 0,
                     std::string("span-coverage: kernel operator span ") +
                         quoted + " is not recorded anywhere"});
    }
  }
  return out;
}

// -- check 2: [[nodiscard]] --------------------------------------------------

struct NodiscardRule {
  const char* file;       // path under the repo root
  const char* declaration;  // text that must appear WITH the attribute
  const char* what;
};

const NodiscardRule kNodiscardRules[] = {
    {"src/base/status.h", "class [[nodiscard]] Status",
     "Status must be declared class [[nodiscard]]"},
    {"src/base/status.h", "class [[nodiscard]] Result",
     "Result<T> must be declared class [[nodiscard]]"},
    {"src/kernel/bat.h", "[[nodiscard]] Result<double> Numeric()",
     "Value::Numeric() must be [[nodiscard]]"},
};

std::vector<Violation> CheckNodiscard(
    const std::string& repo,
    const std::string& (*load)(const std::string&, std::string*)) {
  std::vector<Violation> out;
  std::string storage;
  for (const NodiscardRule& rule : kNodiscardRules) {
    const std::string& content = load(repo + "/" + rule.file, &storage);
    if (content.find(rule.declaration) == std::string::npos) {
      out.push_back({rule.file, 0,
                     std::string("nodiscard: ") + rule.what});
    }
  }
  return out;
}

// -- check 3: fsync after rename ---------------------------------------------

/// Every `fs_->Rename(` (or `fs->Rename(` in test doubles) must be followed
/// by a `SyncDir(` before the enclosing function ends (first line whose
/// first column is '}'). A rename published without syncing the directory
/// is exactly the crash-consistency bug the persist tests' crash matrix
/// exists to catch — this check stops it at review time.
std::vector<Violation> CheckFsyncAfterRename(const std::string& file,
                                             const std::string& content) {
  std::vector<Violation> out;
  std::vector<std::string> lines;
  {
    std::istringstream in(content);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const size_t comment = line.find("//");
    const size_t pos = line.find("->Rename(");
    if (pos == std::string::npos) continue;
    if (comment != std::string::npos && comment < pos) continue;
    // Only filesystem renames: `fs_->Rename(` / `fs->Rename(`. Catalog
    // renames (`catalog->Rename`) are in-memory and irrelevant here.
    const bool fs_rename =
        (pos >= 3 && line.compare(pos - 3, 3, "fs_") == 0) ||
        (pos >= 2 && line.compare(pos - 2, 2, "fs") == 0 &&
         (pos == 2 || !(std::isalnum(static_cast<unsigned char>(
                            line[pos - 3])) ||
                        line[pos - 3] == '_')));
    if (!fs_rename) continue;
    bool synced = false;
    for (size_t j = i + 1; j < lines.size(); ++j) {
      if (lines[j].find("SyncDir(") != std::string::npos) {
        synced = true;
        break;
      }
      if (!lines[j].empty() && lines[j][0] == '}') break;  // function end
    }
    if (!synced) {
      out.push_back({file, static_cast<int>(i + 1),
                     "fsync-after-rename: filesystem Rename() is not "
                     "followed by SyncDir() in the same function — the "
                     "directory entry is not durable"});
    }
  }
  return out;
}

// -- driver ------------------------------------------------------------------

const std::string& LoadFromDisk(const std::string& path, std::string* storage) {
  bool ok = false;
  *storage = ReadFile(path, &ok);
  if (!ok) storage->clear();  // missing file => rule text absent => violation
  return *storage;
}

int LintRepo(const std::string& repo) {
  std::vector<Violation> violations;

  // span coverage: concatenate every kernel source, so operator bodies can
  // move between files without a lint edit.
  std::string kernel_sources;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(repo + "/src/kernel", ec)) {
    if (entry.path().extension() != ".cc") continue;
    bool ok = false;
    kernel_sources += ReadFile(entry.path().string(), &ok);
    if (!ok) {
      violations.push_back(
          {entry.path().string(), 0, "span-coverage: file unreadable"});
    }
    kernel_sources += '\n';
  }
  if (ec || kernel_sources.empty()) {
    violations.push_back(
        {"src/kernel", 0, "span-coverage: no kernel sources found"});
  }
  for (Violation& v : CheckSpanCoverage(kernel_sources, "src/kernel")) {
    violations.push_back(std::move(v));
  }

  for (Violation& v : CheckNodiscard(repo, &LoadFromDisk)) {
    violations.push_back(std::move(v));
  }

  {
    bool ok = false;
    const std::string persist = ReadFile(repo + "/src/kernel/persist.cc", &ok);
    if (!ok) {
      violations.push_back(
          {"src/kernel/persist.cc", 0, "fsync-after-rename: file unreadable"});
    }
    for (Violation& v :
         CheckFsyncAfterRename("src/kernel/persist.cc", persist)) {
      violations.push_back(std::move(v));
    }
  }

  for (const Violation& v : violations) {
    if (v.line > 0) {
      std::fprintf(stderr, "%s:%d: %s\n", v.file.c_str(), v.line,
                   v.message.c_str());
    } else {
      std::fprintf(stderr, "%s: %s\n", v.file.c_str(), v.message.c_str());
    }
  }
  if (violations.empty()) {
    std::printf("cobra_lint: all repo invariants hold\n");
    return 0;
  }
  std::fprintf(stderr, "cobra_lint: %zu violation(s)\n", violations.size());
  return 1;
}

/// The linter's own test: each checker must flag the embedded bad snippet
/// and pass the embedded good one. A checker that stops seeing its defect
/// class fails here, so `lint-invariants` cannot silently go blind.
int SelfTest() {
  int failures = 0;
  auto expect = [&failures](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
      ++failures;
    }
  };

  // fsync-after-rename: naked rename flagged, synced rename clean.
  const std::string bad_persist =
      "Status Publish() {\n"
      "  COBRA_RETURN_IF_ERROR(fs_->Rename(tmp, path));\n"
      "  return Status::OK();\n"
      "}\n";
  const std::string good_persist =
      "Status Publish() {\n"
      "  COBRA_RETURN_IF_ERROR(fs_->Rename(tmp, path));\n"
      "  COBRA_RETURN_IF_ERROR(fs_->SyncDir(dir_));\n"
      "  return Status::OK();\n"
      "}\n";
  const std::string catalog_rename =
      "Status Replay() {\n"
      "  return catalog->Rename(from, to);\n"
      "}\n";
  expect(CheckFsyncAfterRename("bad", bad_persist).size() == 1,
         "naked fs_->Rename must be flagged");
  expect(CheckFsyncAfterRename("good", good_persist).empty(),
         "Rename followed by SyncDir must pass");
  expect(CheckFsyncAfterRename("catalog", catalog_rename).empty(),
         "catalog->Rename (not a filesystem op) must be ignored");

  // span coverage: a source blob missing one operator span is flagged once.
  std::string all_spans;
  for (const char* span : kRequiredSpans) {
    all_spans += '"';
    all_spans += span;
    all_spans += "\"\n";
  }
  expect(CheckSpanCoverage(all_spans, "fake").empty(),
         "inventory-complete sources must pass");
  const std::string missing_one =
      all_spans.substr(all_spans.find('\n') + 1);  // drop the first span
  expect(CheckSpanCoverage(missing_one, "fake").size() == 1,
         "a removed operator span must be flagged");

  if (failures == 0) {
    std::printf("cobra_lint: self-test passed\n");
    return 0;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--self-test") return SelfTest();
  if (argc != 2) {
    std::fprintf(stderr, "usage: cobra_lint <repo-root> | --self-test\n");
    return 2;
  }
  return LintRepo(argv[1]);
}

// Keeps the metric catalogue in sync with the code: every metric name
// that src/ registers under one of the exported prefixes must appear,
// spelled out in full, somewhere under docs/. Abbreviated sibling lists
// ("serve.fleet.received_total / admitted_total") do not count, so a
// dashboard author can grep the docs for any exported name.
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>

#include <gtest/gtest.h>

#ifndef ZT_SOURCE_DIR
#error "ZT_SOURCE_DIR must be defined by the build"
#endif

namespace {

namespace fs = std::filesystem;

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         c == '.';
}

bool HasExportedPrefix(const std::string& name) {
  for (const char* prefix :
       {"adapt.", "batch_inference.", "optimizer.", "serve.", "trainer."}) {
    const std::string p(prefix);
    if (name.size() > p.size() && name.compare(0, p.size(), p) == 0) {
      return true;
    }
  }
  return false;
}

// Adds every maximal run of [A-Za-z0-9_.] in `text` (trailing dots, as
// at the end of a sentence, trimmed) that starts with an exported prefix.
// With `literal_only`, a run counts only when it is a whole string
// literal, as in GetCounter("serve.failed_total").
void Scan(const std::string& text, bool literal_only,
          std::set<std::string>* out) {
  size_t i = 0;
  while (i < text.size()) {
    if (!IsNameChar(text[i])) {
      ++i;
      continue;
    }
    size_t j = i;
    while (j < text.size() && IsNameChar(text[j])) ++j;
    const bool literal =
        i > 0 && text[i - 1] == '"' && j < text.size() && text[j] == '"';
    std::string run = text.substr(i, j - i);
    while (!run.empty() && run.back() == '.') run.pop_back();
    if ((literal || !literal_only) && HasExportedPrefix(run)) {
      out->insert(run);
    }
    i = j;
  }
}

std::set<std::string> Collect(const fs::path& dir,
                              const std::set<std::string>& extensions,
                              bool literal_only) {
  std::set<std::string> out;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file() ||
        extensions.count(entry.path().extension().string()) == 0) {
      continue;
    }
    std::ifstream in(entry.path());
    Scan(std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()),
         literal_only, &out);
  }
  return out;
}

// Metric names registered in src/.
std::set<std::string> CodeMetricNames() {
  return Collect(fs::path(ZT_SOURCE_DIR) / "src", {".cc", ".h"},
                 /*literal_only=*/true);
}

// Full names written anywhere under docs/.
std::set<std::string> DocumentedNames() {
  return Collect(fs::path(ZT_SOURCE_DIR) / "docs", {".md"},
                 /*literal_only=*/false);
}

TEST(MetricCatalogTest, CollectorsFindKnownNames) {
  const std::set<std::string> code = CodeMetricNames();
  EXPECT_EQ(code.count("optimizer.tunings_total"), 1u);
  EXPECT_EQ(code.count("serve.fleet.hedges_won_total"), 1u);
  EXPECT_EQ(code.count("trainer.epoch_seconds"), 1u);
  // The five prefixes cover more than eighty registered names.
  EXPECT_GT(code.size(), 80u);
  EXPECT_EQ(DocumentedNames().count("optimizer.tunings_total"), 1u);

  std::set<std::string> found;
  Scan("`serve.fleet.received_total` / `admitted_total`; "
       "see serve.latency_ms.",
       /*literal_only=*/false, &found);
  EXPECT_EQ(found, (std::set<std::string>{"serve.fleet.received_total",
                                          "serve.latency_ms"}));
}

TEST(MetricCatalogTest, EveryRegisteredMetricIsDocumentedInFull) {
  const std::set<std::string> documented = DocumentedNames();
  std::string missing;
  for (const std::string& name : CodeMetricNames()) {
    if (documented.count(name) == 0) missing += "  " + name + "\n";
  }
  EXPECT_TRUE(missing.empty())
      << "metric names registered in src/ but not spelled out in full "
         "under docs/ (add them to docs/observability.md):\n"
      << missing;
}

}  // namespace

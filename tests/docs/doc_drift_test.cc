// Doc-drift guard: docs/spec_reference.md must cover everything
// `dynagg_run --list` enumerates — the protocol/environment/driver
// registries and the workload/record-type/network-model/async-key
// catalogs. The test reads the manual straight from the source tree
// (DYNAGG_SOURCE_DIR) and requires each name to appear backticked, so
// registering a new protocol or spec key without documenting it fails CI
// with the missing name in the message.

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/network_model.h"
#include "scenario/trial.h"
#include "sim/workload.h"

namespace dynagg {
namespace {

std::string ReadDoc(const std::string& relative) {
  const std::string path = std::string(DYNAGG_SOURCE_DIR) + "/" + relative;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

class DocDriftTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    doc_ = new std::string(ReadDoc("docs/spec_reference.md"));
  }
  static void TearDownTestSuite() {
    delete doc_;
    doc_ = nullptr;
  }

  /// The manual must mention the name in code style (`name`), the way
  /// every catalog table renders keys — a prose coincidence ("uniform
  /// distribution") never satisfies the guard.
  static void ExpectDocumented(const std::string& name,
                               const char* catalog) {
    EXPECT_NE(doc_->find("`" + name + "`"), std::string::npos)
        << catalog << " entry '" << name
        << "' is missing from docs/spec_reference.md — document it (type, "
           "default, valid range, driver compatibility)";
  }

  static std::string* doc_;
};

std::string* DocDriftTest::doc_ = nullptr;

TEST_F(DocDriftTest, EveryProtocolIsDocumented) {
  for (const std::string& name : scenario::ProtocolRegistry().Names()) {
    ExpectDocumented(name, "protocol");
  }
}

/// The capability cell of `protocol`'s row in the protocol catalog table,
/// without its parenthesized notes, split at commas; "—" (none) and empty
/// items dropped. Fails the test when the row is missing.
std::vector<std::string> DocumentedCapabilities(const std::string& doc,
                                                const std::string& protocol) {
  const size_t row = doc.find("\n| `" + protocol + "` | ");
  EXPECT_NE(row, std::string::npos)
      << "protocol '" << protocol << "' has no row in the protocol catalog";
  if (row == std::string::npos) return {};
  const size_t begin = doc.find(" | ", row + 1) + 3;
  const std::string cell = doc.substr(begin, doc.find(" | ", begin) - begin);
  std::vector<std::string> caps;
  std::string item;
  int depth = 0;
  for (const char c : cell + ",") {
    if (c == '(') ++depth;
    if (depth == 0 && c == ',') {
      const size_t first = item.find_first_not_of(' ');
      const size_t last = item.find_last_not_of(' ');
      if (first != std::string::npos) {
        const std::string cap = item.substr(first, last - first + 1);
        if (cap != "—") caps.push_back(cap);
      }
      item.clear();
    } else if (depth == 0) {
      item += c;
    }
    if (c == ')') --depth;
  }
  return caps;
}

// The catalog's capability column must list exactly the capabilities the
// registry derives from each swarm type, in `dynagg_run --list` order.
TEST_F(DocDriftTest, ProtocolCatalogListsDerivedCapabilities) {
  const std::string catalog =
      doc_->substr(doc_->find("## Protocol catalog"));
  for (const std::string& name : scenario::ProtocolRegistry().Names()) {
    const Result<scenario::ProtocolDef> def =
        scenario::ProtocolRegistry().Find(name);
    ASSERT_TRUE(def.ok()) << name;
    EXPECT_EQ(DocumentedCapabilities(catalog, name),
              scenario::ProtocolCapabilities(*def))
        << "the capability cell of '" << name
        << "' in docs/spec_reference.md disagrees with the registry";
  }
}

TEST_F(DocDriftTest, EveryEnvironmentIsDocumented) {
  for (const std::string& name : scenario::EnvironmentRegistry().Names()) {
    ExpectDocumented(name, "environment");
  }
}

TEST_F(DocDriftTest, EveryDriverIsDocumented) {
  for (const std::string& name : scenario::DriverRegistry().Names()) {
    ExpectDocumented(name, "driver");
  }
}

TEST_F(DocDriftTest, EveryWorkloadKindIsDocumented) {
  for (const WorkloadKindInfo& kind : KeyedWorkloadKinds()) {
    ExpectDocumented(kind.name, "workload kind");
  }
}

TEST_F(DocDriftTest, EveryRecordTypeIsDocumented) {
  for (const scenario::RecordTypeInfo& type : scenario::RecordTypeCatalog()) {
    ExpectDocumented(type.name, "record type");
  }
}

TEST_F(DocDriftTest, EveryNetworkModelIsDocumented) {
  for (const net::NetCatalogInfo& model : net::NetworkModelCatalog()) {
    ExpectDocumented(model.name, "network model");
  }
}

TEST_F(DocDriftTest, EveryAsyncSpecKeyIsDocumented) {
  for (const net::NetCatalogInfo& key : net::AsyncSpecKeyCatalog()) {
    ExpectDocumented(key.name, "async driver spec key");
  }
}

// The cross-linked companion documents the reference manual points at
// must exist — a broken link is drift too.
TEST_F(DocDriftTest, CompanionDocsExist) {
  EXPECT_FALSE(ReadDoc("docs/architecture.md").empty());
  EXPECT_FALSE(ReadDoc("docs/determinism.md").empty());
  EXPECT_FALSE(ReadDoc("README.md").empty());
}

}  // namespace
}  // namespace dynagg

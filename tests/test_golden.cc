/**
 * @file
 * Golden-determinism suite, run through the same JSON sink stack
 * codic_run uses, at 1 AND at 8 campaign threads:
 *  - the four CI-pinned paper scenarios must produce output
 *    byte-identical to bench/GOLDEN_eager_paper.json - the document
 *    captured from the pre-redesign blocking MemoryService. This
 *    pins the whole hot path (arena ticket records, SoA bank timing
 *    state, pow2 address decode, the earliest-first core stepping)
 *    to the published numbers;
 *  - the whole scenario catalog (`codic_run --all --scale 0.05`)
 *    must match bench/GOLDEN_catalog.json, so the PUF, TRNG, fleet,
 *    thermal and trace campaigns are pinned too.
 * A refactor that moves a single byte fails here before it reaches
 * CI's out-of-process cmp. A deliberate change of output re-pins the
 * golden and says why in CHANGES.md.
 */

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/result_sink.h"
#include "scenario/registry.h"

namespace codic {
namespace {

// The scenarios and options pinned by the CI golden gate
// (.github/workflows/ci.yml): scale 0.25, default seed.
const char *const kPinnedScenarios[] = {
    "secdealloc_fig8",
    "secdealloc_fig9",
    "coldboot_table6_overhead",
    "coldboot_fig7_destruction",
};

std::string
pinnedDocumentAt(int threads)
{
    RunOptions options;
    options.scale = 0.25;
    options.threads = threads;

    std::ostringstream out;
    JsonResultSink sink(out);
    for (const char *name : kPinnedScenarios)
        EXPECT_TRUE(runScenario(name, options, sink)) << name;
    sink.finish();
    return out.str();
}

// The whole registry, as `codic_run --all --scale 0.05` runs it.
std::string
catalogDocumentAt(int threads)
{
    RunOptions options;
    options.scale = 0.05;
    options.threads = threads;

    std::ostringstream out;
    JsonResultSink sink(out);
    for (const std::string &name : ScenarioRegistry::instance().names())
        EXPECT_TRUE(runScenario(name, options, sink)) << name;
    sink.finish();
    return out.str();
}

std::string
goldenFileContents(const char *file)
{
    // Tests run from the build tree; CODIC_REPO_DIR points at the
    // source tree (set in CMakeLists.txt).
    const std::string path =
        std::string(CODIC_REPO_DIR) + "/bench/" + file;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

TEST(GoldenPaperScenarios, ByteIdenticalAtOneThread)
{
    const std::string golden = goldenFileContents("GOLDEN_eager_paper.json");
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(pinnedDocumentAt(1), golden)
        << "eager-preset paper output moved vs the pinned golden";
}

TEST(GoldenPaperScenarios, ByteIdenticalAtEightThreads)
{
    const std::string golden = goldenFileContents("GOLDEN_eager_paper.json");
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(pinnedDocumentAt(8), golden)
        << "paper output depends on the thread count";
}

TEST(GoldenCatalog, ByteIdenticalAtOneThread)
{
    const std::string golden = goldenFileContents("GOLDEN_catalog.json");
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(catalogDocumentAt(1), golden)
        << "scenario catalog output moved vs the pinned golden";
}

TEST(GoldenCatalog, ByteIdenticalAtEightThreads)
{
    const std::string golden = goldenFileContents("GOLDEN_catalog.json");
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(catalogDocumentAt(8), golden)
        << "scenario catalog output depends on the thread count";
}

} // namespace
} // namespace codic

/**
 * @file
 * Golden snapshot: the canonical campaign JSON of a 176-job matrix at
 * a 20k-op window, compared byte for byte against
 * tests/golden/campaign_20k.json. The matrix is the paper's grid,
 * paperCells() (the 16 SPEC profiles × {baseline, watchdog, pa, aos,
 * pa_aos} and the five AOS ablations of Figs. 15 and 17), then one
 * pa_aos_belide job per profile.
 *
 * It pins the model as it is (not that it is right): any change to a
 * simulated statistic of any cell fails here, and the failure names
 * the first differing job and stat line. A refactor must leave the
 * file unchanged. An intended model change regenerates it in the same
 * change, with a CHANGES.md line saying why. On a mismatch the test
 * writes the document it produced next to the test binary, so
 * regenerating is:
 *
 *   cmake --build build --target golden_test
 *   ./build/tests/golden_test
 *   cp build/tests/golden_campaign_20k.actual.json \
 *      tests/golden/campaign_20k.json
 */

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "campaign/campaign.hh"
#include "common/logging.hh"

namespace aos::campaign {
namespace {

using baselines::Mechanism;

constexpr u64 kGoldenOps = 20'000;

CampaignResult
runGoldenMatrix()
{
    CampaignOptions options;
    options.name = "golden_20k";
    Campaign sweep(options);
    for (Job &job : paperCells(kGoldenOps))
        sweep.add(std::move(job));
    for (const auto &profile : workloads::specProfiles())
        sweep.add({.name = profile.name + "/pa_aos_belide",
                   .profile = profile, .mech = Mechanism::kPaAos,
                   .options = {.aosBoundsElision = true},
                   .ops = kGoldenOps});
    return sweep.run();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/**
 * The first line where the documents differ, both versions of it, and
 * the name of the job whose object contains it.
 */
std::string
firstDifference(const std::string &expected, const std::string &actual)
{
    std::istringstream want(expected), got(actual);
    std::string want_line, got_line, job = "(document header)";
    for (size_t line = 1;; ++line) {
        const bool more_want =
            static_cast<bool>(std::getline(want, want_line));
        const bool more_got = static_cast<bool>(std::getline(got, got_line));
        if (!more_want && !more_got)
            return "documents differ only in a trailing newline";
        if (!more_want || !more_got || want_line != got_line) {
            std::ostringstream out;
            out << "line " << line << " in job " << job << ":\n"
                << "  golden: " << (more_want ? want_line : "<end>") << "\n"
                << "  actual: " << (more_got ? got_line : "<end>");
            return out.str();
        }
        // Job objects open with their "name" member.
        const size_t at = want_line.find("\"name\": ");
        if (at != std::string::npos)
            job = want_line.substr(at + 8, want_line.find_last_of('"') -
                                               (at + 8) + 1);
    }
}

TEST(GoldenSnapshot, CampaignMatrixIsByteIdentical)
{
    setQuiet(true);
    const CampaignResult result = runGoldenMatrix();
    ASSERT_TRUE(result.allOk());
    ASSERT_EQ(result.jobs.size(), paperCells(kGoldenOps).size() + 16);

    const std::string actual = result.json(/*includeTimings=*/false);
    const std::string expected = readFile(AOS_GOLDEN_FILE);
    if (actual != expected) {
        result.writeJsonFile(AOS_GOLDEN_ACTUAL, /*includeTimings=*/false);
        FAIL() << (expected.empty()
                       ? std::string("missing ") + AOS_GOLDEN_FILE
                       : "simulated results moved from the golden "
                         "snapshot, " +
                             firstDifference(expected, actual))
               << "\nfull document written to " << AOS_GOLDEN_ACTUAL;
    }
}

} // namespace
} // namespace aos::campaign

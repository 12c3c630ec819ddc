/**
 * @file
 * Tests for the fault-tolerant sweep supervisor: error taxonomy,
 * watchdog and event-budget guards, result validation, manifest
 * round-trip, and the --resume / --only flows.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/strings.hh"
#include "isolbench/scenario.hh"
#include "isolbench/supervisor.hh"
#include "isolbench/sweep.hh"
#include "isolbench/validate.hh"
#include "sim/simulator.hh"

namespace isol::isolbench
{
namespace
{

namespace sup = supervisor;

/** Fresh supervisor state plus a per-test manifest path. */
class SupervisorTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        sup::resetForTest();
        manifest_path_ = strCat(::testing::TempDir(), "isol_supervisor_",
                                ::testing::UnitTest::GetInstance()
                                    ->current_test_info()
                                    ->name(),
                                ".manifest.json");
        std::remove(manifest_path_.c_str());
    }

    void
    TearDown() override
    {
        std::remove(manifest_path_.c_str());
        sup::resetForTest();
    }

    std::string manifest_path_;
};

TEST_F(SupervisorTest, ErrorKindNames)
{
    EXPECT_STREQ(sup::taskErrorKindName(sup::TaskErrorKind::kTimeout),
                 "timeout");
    EXPECT_STREQ(sup::taskErrorKindName(sup::TaskErrorKind::kException),
                 "exception");
    EXPECT_STREQ(
        sup::taskErrorKindName(sup::TaskErrorKind::kInvariantViolation),
        "invariant_violation");
    EXPECT_STREQ(
        sup::taskErrorKindName(sup::TaskErrorKind::kResourceExhausted),
        "resource_exhausted");
}

std::exception_ptr
capture(const std::function<void()> &fn)
{
    try {
        fn();
    } catch (...) {
        return std::current_exception();
    }
    return nullptr;
}

TEST_F(SupervisorTest, ClassifyErrorTaxonomy)
{
    auto kind_of = [](const std::function<void()> &fn) {
        return sup::classifyError(0, capture(fn)).kind;
    };
    EXPECT_EQ(kind_of([] {
                  throw sup::TaskAbort(sup::TaskErrorKind::kTimeout,
                                       "late");
              }),
              sup::TaskErrorKind::kTimeout);
    EXPECT_EQ(kind_of([] { throw sim::BudgetExceeded("storm"); }),
              sup::TaskErrorKind::kResourceExhausted);
    EXPECT_EQ(kind_of([] {
                  throw validate::InvariantViolation("bad result");
              }),
              sup::TaskErrorKind::kInvariantViolation);
    EXPECT_EQ(kind_of([] { throw std::bad_alloc(); }),
              sup::TaskErrorKind::kResourceExhausted);
    EXPECT_EQ(kind_of([] { fatal("config error"); }),
              sup::TaskErrorKind::kException);
    EXPECT_EQ(kind_of([] { throw 42; }),
              sup::TaskErrorKind::kException);

    sup::TaskError err =
        sup::classifyError(7, capture([] { fatal("boom"); }));
    EXPECT_EQ(err.task, 7u);
    EXPECT_EQ(err.message, "boom");
}

TEST_F(SupervisorTest, RetriesExhaustedReportsFailure)
{
    // A failed task runs once: scenarios are deterministic, so a second
    // attempt would fail the same way.
    std::atomic<uint32_t> broken_runs{0};
    sup::setOptions(sup::Options{});
    std::vector<sup::Task> tasks = {
        []() -> std::string { return "ok"; },
        [&broken_runs]() -> std::string {
            ++broken_runs;
            fatal("always broken");
            return "";
        },
    };
    std::vector<std::string> payloads;
    sup::SweepReport report =
        sup::run("exhausted-sweep", tasks, payloads, 2);
    EXPECT_FALSE(report.allOk());
    EXPECT_EQ(report.completed, 1u);
    EXPECT_EQ(report.failed, 1u);
    EXPECT_EQ(broken_runs.load(), 1u);
    ASSERT_EQ(report.errors.size(), 1u);
    EXPECT_EQ(report.errors[0].task, 1u);
    EXPECT_EQ(payloads[0], "ok");
    EXPECT_EQ(payloads[1], "");

    std::string table = sup::failureTable();
    EXPECT_NE(table.find("exhausted-sweep"), std::string::npos);
    EXPECT_NE(table.find("exception"), std::string::npos);
    EXPECT_NE(table.find("1 failed"), std::string::npos);
}

TEST_F(SupervisorTest, WatchdogDeadlineFiresAsTimeout)
{
    sup::Options opt;
    opt.task_timeout_ms = 5.0;
    opt.manifest_path.clear();
    sup::setOptions(opt);

    std::vector<sup::Task> tasks = {[]() -> std::string {
        EXPECT_TRUE(sup::guardActive());
        for (int i = 0; i < 100; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            sup::pollGuardDeadline();
        }
        return "should have timed out";
    }};
    std::vector<std::string> payloads;
    sup::SweepReport report =
        sup::runUncheckpointed("watchdog-sweep", tasks, payloads, 1);
    EXPECT_EQ(report.failed, 1u);
    ASSERT_FALSE(report.errors.empty());
    EXPECT_EQ(report.errors[0].kind, sup::TaskErrorKind::kTimeout);
    EXPECT_NE(report.errors[0].message.find("watchdog deadline"),
              std::string::npos);
}

TEST_F(SupervisorTest, EventBudgetStopsRunawayScenario)
{
    sup::Options opt;
    opt.max_task_events = 20000;
    opt.manifest_path.clear();
    sup::setOptions(opt);

    std::vector<sup::Task> tasks = {[]() -> std::string {
        ScenarioConfig cfg;
        cfg.name = "budget-test";
        cfg.num_cores = 2;
        cfg.duration = msToNs(400);
        cfg.warmup = msToNs(50);
        Scenario scenario(cfg);
        scenario.addApp(workload::beApp("be", cfg.duration), "be");
        scenario.run();
        return "ran to completion";
    }};
    std::vector<std::string> payloads;
    sup::SweepReport report =
        sup::runUncheckpointed("budget-sweep", tasks, payloads, 1);
    EXPECT_EQ(report.failed, 1u);
    ASSERT_FALSE(report.errors.empty());
    EXPECT_EQ(report.errors[0].kind,
              sup::TaskErrorKind::kResourceExhausted);
    EXPECT_NE(report.errors[0].message.find("budget"),
              std::string::npos);
}

TEST_F(SupervisorTest, StormGuardRecoverableUnderSupervision)
{
    sup::Options opt;
    opt.manifest_path.clear();
    sup::setOptions(opt);

    // A self-rescheduling event never drains the queue; runAll's storm
    // guard must surface as a recoverable resource_exhausted error when
    // supervised (unsupervised it calls fatal()).
    std::vector<sup::Task> tasks = {[]() -> std::string {
        sim::Simulator simulator;
        std::function<void()> respawn = [&] {
            simulator.after(10, [&respawn] { respawn(); });
        };
        respawn();
        simulator.runAll(5000);
        return "unreachable";
    }};
    std::vector<std::string> payloads;
    sup::SweepReport report =
        sup::runUncheckpointed("storm-sweep", tasks, payloads, 1);
    EXPECT_EQ(report.failed, 1u);
    ASSERT_FALSE(report.errors.empty());
    EXPECT_EQ(report.errors[0].kind,
              sup::TaskErrorKind::kResourceExhausted);
    EXPECT_NE(report.errors[0].message.find("event storm"),
              std::string::npos);
}

TEST_F(SupervisorTest, DoctoredResultsFailValidation)
{
    std::vector<validate::Issue> issues;
    // completed > submitted.
    validate::checkConservation(issues, "nvme0", 100, 150, 0, 64);
    // non-monotone percentiles.
    validate::checkPercentiles(issues, "app", 500, 400, 900);
    // negative throughput.
    validate::checkThroughput(issues, "agg", -1.0);
    // utilisation above 1.
    validate::checkRatio(issues, "cpu", 1.5);
    ASSERT_EQ(issues.size(), 4u);

    try {
        validate::enforce(issues, "doctored");
        FAIL() << "expected InvariantViolation";
    } catch (const validate::InvariantViolation &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("doctored"), std::string::npos);
        EXPECT_NE(what.find("io-conservation"), std::string::npos);
        EXPECT_NE(what.find("latency-percentiles"), std::string::npos);
    }

    std::vector<validate::Issue> clean;
    validate::checkConservation(clean, "nvme0", 100, 90, 5, 64);
    validate::checkPercentiles(clean, "app", 100, 200, 300);
    validate::checkThroughput(clean, "agg", 2.5);
    validate::checkRatio(clean, "cpu", 0.8);
    EXPECT_TRUE(clean.empty());
    validate::enforce(clean, "clean"); // must not throw

    // Supervised classification of a validation failure.
    sup::Options opt;
    opt.manifest_path.clear();
    sup::setOptions(opt);
    std::vector<sup::Task> tasks = {[]() -> std::string {
        std::vector<validate::Issue> bad;
        validate::checkThroughput(bad, "agg", -2.0);
        validate::enforce(bad, "doctored-task");
        return "unreachable";
    }};
    std::vector<std::string> payloads;
    sup::SweepReport report =
        sup::runUncheckpointed("invariant-sweep", tasks, payloads, 1);
    ASSERT_FALSE(report.errors.empty());
    EXPECT_EQ(report.errors[0].kind,
              sup::TaskErrorKind::kInvariantViolation);
}

TEST_F(SupervisorTest, ManifestRoundTripEscapesPayloads)
{
    sup::ManifestSweep sweep;
    sweep.name = "round\ttrip \"sweep\"\n";
    sweep.tasks = 3;
    std::string payload = "cell1\tcell2\nline \"quoted\" \\slash\x01";
    sweep.entries.push_back(
        sup::ManifestEntry{0, sup::digestOf(payload), payload});
    sweep.entries.push_back(sup::ManifestEntry{2, sup::digestOf(""), ""});

    std::string text = sup::encodeManifest({sweep});
    std::vector<sup::ManifestSweep> decoded;
    ASSERT_TRUE(sup::decodeManifest(text, decoded));
    ASSERT_EQ(decoded.size(), 1u);
    EXPECT_EQ(decoded[0].name, sweep.name);
    EXPECT_EQ(decoded[0].tasks, 3u);
    ASSERT_EQ(decoded[0].entries.size(), 2u);
    EXPECT_EQ(decoded[0].entries[0].task, 0u);
    EXPECT_EQ(decoded[0].entries[0].payload, payload);
    EXPECT_EQ(decoded[0].entries[0].digest, sup::digestOf(payload));
    EXPECT_EQ(decoded[0].entries[1].task, 2u);
    EXPECT_EQ(decoded[0].entries[1].payload, "");

    std::vector<sup::ManifestSweep> none;
    EXPECT_FALSE(sup::decodeManifest("not json", none));
    EXPECT_FALSE(sup::decodeManifest("{\"sweeps\": [", none));
}

TEST_F(SupervisorTest, DigestIsStable)
{
    EXPECT_EQ(sup::digestOf("abc"), sup::digestOf("abc"));
    EXPECT_NE(sup::digestOf("abc"), sup::digestOf("abd"));
    EXPECT_EQ(sup::digestOf("").size(), 16u);
}

TEST_F(SupervisorTest, ResumeSalvagesCheckpointedTasks)
{
    std::atomic<uint32_t> executions{0};
    auto make_tasks = [&executions] {
        std::vector<sup::Task> tasks;
        for (size_t i = 0; i < 5; ++i) {
            tasks.push_back([&executions, i]() -> std::string {
                ++executions;
                return strCat("result-", i);
            });
        }
        return tasks;
    };

    // First run: everything executes and is checkpointed.
    sup::Options opt;
    opt.manifest_path = manifest_path_;
    sup::setOptions(opt);
    std::vector<std::string> payloads;
    sup::SweepReport first =
        sup::run("resume-sweep", make_tasks(), payloads, 2);
    EXPECT_EQ(first.completed, 5u);
    EXPECT_EQ(executions.load(), 5u);

    // Second process: resume salvages every task without re-running.
    sup::resetForTest();
    opt.resume = true;
    sup::setOptions(opt);
    ASSERT_TRUE(sup::loadManifestFile(manifest_path_));
    std::vector<std::string> payloads2;
    sup::SweepReport second =
        sup::run("resume-sweep", make_tasks(), payloads2, 8);
    EXPECT_EQ(second.salvaged, 5u);
    EXPECT_EQ(second.completed, 0u);
    EXPECT_EQ(executions.load(), 5u) << "salvaged tasks must not re-run";
    EXPECT_EQ(payloads2, payloads);
}

TEST_F(SupervisorTest, ResumeRejectsDoctoredDigest)
{
    sup::Options opt;
    opt.manifest_path = manifest_path_;
    sup::setOptions(opt);
    std::vector<sup::Task> tasks = {
        []() -> std::string { return "honest"; }};
    std::vector<std::string> payloads;
    sup::run("digest-sweep", tasks, payloads, 1);

    // Corrupt the checkpointed payload on disk, keeping the old digest.
    std::FILE *f = std::fopen(manifest_path_.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, got);
    std::fclose(f);
    size_t pos = text.find("honest");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 6, "forged");
    f = std::fopen(manifest_path_.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(text.c_str(), f);
    std::fclose(f);

    sup::resetForTest();
    opt.resume = true;
    sup::setOptions(opt);
    ASSERT_TRUE(sup::loadManifestFile(manifest_path_));
    std::vector<std::string> payloads2;
    sup::SweepReport report =
        sup::run("digest-sweep", tasks, payloads2, 1);
    // Digest mismatch: the stale payload must lose and the task re-run.
    EXPECT_EQ(report.salvaged, 0u);
    EXPECT_EQ(report.completed, 1u);
    EXPECT_EQ(payloads2[0], "honest");
}

TEST_F(SupervisorTest, OnlyRunsSingleTaskIndex)
{
    sup::Options opt;
    opt.only = 1;
    sup::setOptions(opt);

    std::atomic<uint32_t> executions{0};
    std::vector<sup::Task> tasks;
    for (size_t i = 0; i < 3; ++i) {
        tasks.push_back([&executions, i]() -> std::string {
            ++executions;
            return strCat("only-", i);
        });
    }
    std::vector<std::string> payloads;
    sup::SweepReport report = sup::run("only-sweep", tasks, payloads, 4);
    EXPECT_EQ(executions.load(), 1u);
    EXPECT_EQ(report.completed, 1u);
    EXPECT_EQ(report.skipped, 2u);
    EXPECT_EQ(payloads[0], "");
    EXPECT_EQ(payloads[1], "only-1");
    EXPECT_EQ(payloads[2], "");
}

TEST_F(SupervisorTest, OnlyLeavesNestedGuardedMapsWhole)
{
    sup::Options opt;
    opt.only = 1;
    sup::setOptions(opt);

    // --only picks grid point 1 of the outer sweep; the guardedMap that
    // point runs inside must still compute every one of its indices.
    std::vector<sup::Task> tasks;
    for (size_t i = 0; i < 3; ++i) {
        tasks.push_back([i]() -> std::string {
            std::vector<int> inner = sup::guardedMap<int>(
                strCat("nested-", i), 3,
                [](size_t j) { return static_cast<int>(10 + j); }, 2);
            std::string out;
            for (int v : inner)
                out += strCat(v, ",");
            return out;
        });
    }
    std::vector<std::string> payloads;
    sup::SweepReport report =
        sup::run("only-outer", tasks, payloads, 2);
    EXPECT_EQ(report.completed, 1u);
    EXPECT_EQ(report.skipped, 2u);
    EXPECT_EQ(payloads[0], "");
    EXPECT_EQ(payloads[1], "10,11,12,");
    EXPECT_EQ(payloads[2], "");
}

TEST_F(SupervisorTest, GuardedMapReturnsTypedResultsAndThrows)
{
    sup::setOptions(sup::Options{});

    std::vector<int> squares = sup::guardedMap<int>(
        "map-ok", 6, [](size_t i) { return static_cast<int>(i * i); },
        3);
    ASSERT_EQ(squares.size(), 6u);
    for (size_t i = 0; i < squares.size(); ++i)
        EXPECT_EQ(squares[i], static_cast<int>(i * i));

    EXPECT_THROW(sup::guardedMap<int>(
                     "map-bad", 3,
                     [](size_t i) -> int {
                         if (i == 1)
                             fatal("permanently broken");
                         return 0;
                     },
                     3),
                 sweep::SweepError);
}

TEST_F(SupervisorTest, GuardBudgetsPropagateIntoNestedSweeps)
{
    sup::Options opt;
    opt.max_task_events = 10000;
    opt.manifest_path.clear();
    sup::setOptions(opt);

    // The outer guarded task spawns a nested worker pool; the nested
    // workers must inherit (and charge) the outer task's event budget.
    std::vector<sup::Task> tasks = {[]() -> std::string {
        std::vector<uint64_t> charged = sweep::map<uint64_t>(
            4,
            [](size_t) -> uint64_t {
                EXPECT_TRUE(sup::guardActive());
                sup::chargeGuardEvents(4000);
                return 1;
            },
            4);
        (void)charged;
        return "done";
    }};
    std::vector<std::string> payloads;
    sup::SweepReport report =
        sup::runUncheckpointed("nested-budget", tasks, payloads, 1);
    EXPECT_EQ(report.failed, 1u);
    ASSERT_FALSE(report.errors.empty());
    EXPECT_EQ(report.errors[0].kind,
              sup::TaskErrorKind::kResourceExhausted);
}

} // namespace
} // namespace isol::isolbench

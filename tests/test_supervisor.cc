/**
 * @file
 * Tests for the supervision half of the sweep layer: error taxonomy,
 * watchdog and event-budget guards, result validation, the checkpoint
 * log (line round-trip, torn tail, doctored digest), and the --resume /
 * --only flows.
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
#include "isolbench/sweep.hh"
#include "isolbench/validate.hh"
#include "sim/simulator.hh"

namespace isol::isolbench
{
namespace
{

namespace sup = sweep;

/** Fresh sweep-layer state plus a per-test manifest path. */
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
                                ".manifest");
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
                  throw sup::SweepError(sup::TaskErrorKind::kTimeout,
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
            sup::checkGuard(0);
        }
        return "should have timed out";
    }};
    std::vector<std::string> payloads;
    sup::SweepReport report =
        sup::run("watchdog-sweep", tasks, payloads, 1);
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
        sup::run("budget-sweep", tasks, payloads, 1);
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
        sup::run("storm-sweep", tasks, payloads, 1);
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
        sup::run("invariant-sweep", tasks, payloads, 1);
    ASSERT_FALSE(report.errors.empty());
    EXPECT_EQ(report.errors[0].kind,
              sup::TaskErrorKind::kInvariantViolation);
}

/** Parse a manifest line as written (newline stripped). */
bool
parseWritten(const std::string &line, sup::ManifestEntry &out)
{
    EXPECT_FALSE(line.empty());
    EXPECT_EQ(line.back(), '\n');
    return sup::parseManifestLine(line.substr(0, line.size() - 1), out);
}

TEST_F(SupervisorTest, ManifestRoundTripEscapesPayloads)
{
    sup::ManifestEntry entry{"round\ttrip \"sweep\"\n", 3, 0,
                             "cell1\tcell2\nline \"quoted\" \\slash\x01\\t"};
    std::string line = sup::manifestLine(entry);
    // One line per entry: payload tabs and newlines are escaped.
    EXPECT_EQ(line.find('\n'), line.size() - 1);
    sup::ManifestEntry decoded;
    ASSERT_TRUE(parseWritten(line, decoded));
    EXPECT_EQ(decoded.sweep, entry.sweep);
    EXPECT_EQ(decoded.tasks, 3u);
    EXPECT_EQ(decoded.task, 0u);
    EXPECT_EQ(decoded.payload, entry.payload);

    sup::ManifestEntry empty{"s", 3, 2, ""};
    ASSERT_TRUE(parseWritten(sup::manifestLine(empty), decoded));
    EXPECT_EQ(decoded.task, 2u);
    EXPECT_EQ(decoded.payload, "");

    // Malformed lines, out-of-range indices and bad escapes never parse.
    sup::ManifestEntry none;
    EXPECT_FALSE(sup::parseManifestLine("not a manifest line", none));
    EXPECT_FALSE(sup::parseManifestLine("", none));
    std::string good = sup::manifestLine(sup::ManifestEntry{"s", 2, 1, "x"});
    good.pop_back();
    EXPECT_TRUE(sup::parseManifestLine(good, none));
    EXPECT_FALSE(sup::parseManifestLine(good + "\tmore", none));
    std::string out_of_range = good;
    out_of_range.replace(out_of_range.find("\t2\t1\t"), 5, "\t1\t1\t");
    EXPECT_FALSE(sup::parseManifestLine(out_of_range, none));
    EXPECT_FALSE(sup::parseManifestLine(good + "\\", none));
}

TEST_F(SupervisorTest, DigestIsStable)
{
    EXPECT_EQ(sup::digestOf("abc"), sup::digestOf("abc"));
    EXPECT_NE(sup::digestOf("abc"), sup::digestOf("abd"));
    EXPECT_EQ(sup::digestOf("").size(), 16u);
}

std::string
readFile(const std::string &path)
{
    std::string text;
    if (std::FILE *f = std::fopen(path.c_str(), "r")) {
        char buf[4096];
        size_t got;
        while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text.append(buf, got);
        std::fclose(f);
    }
    return text;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(text.c_str(), f);
    std::fclose(f);
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
    std::string text = readFile(manifest_path_);
    size_t pos = text.find("honest");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 6, "forged");
    writeFile(manifest_path_, text);

    sup::resetForTest();
    opt.resume = true;
    sup::setOptions(opt);
    std::vector<std::string> payloads2;
    sup::SweepReport report =
        sup::run("digest-sweep", tasks, payloads2, 1);
    // Digest mismatch: the stale payload must lose and the task re-run.
    EXPECT_EQ(report.salvaged, 0u);
    EXPECT_EQ(report.completed, 1u);
    EXPECT_EQ(payloads2[0], "honest");
}

TEST_F(SupervisorTest, ResumeDropsTornManifestTail)
{
    constexpr size_t kTasks = 5;
    std::atomic<uint32_t> executions{0};
    std::vector<sup::Task> tasks;
    for (size_t i = 0; i < kTasks; ++i) {
        tasks.push_back([&executions, i]() -> std::string {
            ++executions;
            return strCat("row\t", i, "\nwith \\ escapes");
        });
    }
    sup::Options opt;
    opt.manifest_path = manifest_path_;
    sup::setOptions(opt);
    std::vector<std::string> reference;
    sup::run("torn-sweep", tasks, reference, 1);
    ASSERT_EQ(executions.load(), kTasks);

    // A kill mid-write: cut the log in the middle of its last line.
    std::string text = readFile(manifest_path_);
    ASSERT_EQ(text.back(), '\n');
    size_t last = text.rfind('\n', text.size() - 2) + 1;
    std::string last_line = text.substr(last, text.size() - 1 - last);
    sup::ManifestEntry torn;
    ASSERT_TRUE(sup::parseManifestLine(last_line, torn));
    text.resize(last + last_line.size() / 2);
    writeFile(manifest_path_, text);

    // Resume salvages the N-1 complete lines and re-runs the torn task.
    sup::resetForTest();
    opt.resume = true;
    sup::setOptions(opt);
    std::vector<std::string> resumed;
    sup::SweepReport report = sup::run("torn-sweep", tasks, resumed, 1);
    EXPECT_EQ(report.salvaged, kTasks - 1);
    EXPECT_EQ(report.completed, 1u);
    EXPECT_EQ(executions.load(), kTasks + 1);
    EXPECT_EQ(resumed, reference);

    // The re-run's line starts on a line of its own, so a second resume
    // salvages every task.
    sup::resetForTest();
    sup::setOptions(opt);
    std::vector<std::string> again;
    report = sup::run("torn-sweep", tasks, again, 1);
    EXPECT_EQ(report.salvaged, kTasks);
    EXPECT_EQ(executions.load(), kTasks + 1);
    EXPECT_EQ(again, reference);
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

    // --only picks grid point 1 of the outer sweep; the named map that
    // point runs inside must still compute every one of its indices.
    std::vector<sup::Task> tasks;
    for (size_t i = 0; i < 3; ++i) {
        tasks.push_back([i]() -> std::string {
            std::vector<int> inner = sup::map<int>(
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

    std::vector<int> squares = sup::map<int>(
        "map-ok", 6, [](size_t i) { return static_cast<int>(i * i); },
        3);
    ASSERT_EQ(squares.size(), 6u);
    for (size_t i = 0; i < squares.size(); ++i)
        EXPECT_EQ(squares[i], static_cast<int>(i * i));

    EXPECT_THROW(sup::map<int>(
                     "map-bad", 3,
                     [](size_t i) -> int {
                         if (i == 1)
                             fatal("permanently broken");
                         return 0;
                     },
                     3),
                 sweep::SweepError);

    // Named maps are reported; the anonymous pool entry keeps no state.
    EXPECT_EQ(sup::reports().size(), 2u);
    sweep::map<int>(4, [](size_t i) { return static_cast<int>(i); }, 2);
    EXPECT_EQ(sup::reports().size(), 2u);
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
                sup::checkGuard(4000);
                return 1;
            },
            4);
        (void)charged;
        return "done";
    }};
    std::vector<std::string> payloads;
    sup::SweepReport report =
        sup::run("nested-budget", tasks, payloads, 1);
    EXPECT_EQ(report.failed, 1u);
    ASSERT_FALSE(report.errors.empty());
    EXPECT_EQ(report.errors[0].kind,
              sup::TaskErrorKind::kResourceExhausted);
}

} // namespace
} // namespace isol::isolbench

/**
 * @file
 * Shows that every correctness check in checks.hh can fail: each case
 * feeds a check one corrupted output and expects a failure, next to
 * the intact output, which must pass. Exits nonzero if any check
 * misjudges. Run with `python3 perfbench/run.py --self-test`.
 */

#include <functional>
#include <iostream>
#include <string>

#include "checks.hh"
#include "common/logging.hh"
#include "experiments/actors.hh"
#include "experiments/scenario.hh"
#include "sim/cluster.hh"

using namespace dejavu;
using namespace perfbench;
using dejavu::serving::AnswerMsg;

namespace {

int misjudged = 0;

/** @p intact must pass and @p corrupted must fail. */
void
expectCheck(const std::string &name,
            const std::function<void(CheckLog &)> &intact,
            const std::function<void(CheckLog &)> &corrupted)
{
    CheckLog good;
    intact(good);
    CheckLog bad;
    corrupted(bad);
    const bool ok = good.ok() && !bad.ok();
    std::cout << (ok ? "ok    " : "WRONG ") << name;
    if (!bad.ok())
        std::cout << " -> " << bad.failures.front();
    std::cout << "\n";
    if (!ok)
        ++misjudged;
}

const char *kFile =
    "kind,class,bucket,instances,type\n"
    "keyvalue,0,0,4,m1.large\n"
    "keyvalue,1,0,7,m1.large\n";

} // namespace

int
main()
{
    setLogLevel(LogLevel::Silent);

    expectCheck(
        "repository bytes after learnAll(1) vs learnAll(2)",
        [](CheckLog &log) { checkSameBytes("a,1\n", "a,1\n", "repo", log); },
        [](CheckLog &log) { checkSameBytes("a,1\n", "a,2\n", "repo", log); });

    // The class-allocation check runs on a real learned member: its
    // full capacity passes, a single large instance fails.
    ScenarioOptions options;
    options.days = 2;
    std::unique_ptr<FleetStack> fleet = makeMixedFleet(
        1, options, SlotPolicy::Fifo, 1, RepositorySharing::Shared,
        ProfilingWorkMode::WorkQueue);
    fleet->learnAll(1);
    FleetMember &member = *fleet->members[0];
    const Workload peak = TraceDriver::workloadFor(
        *member.service, member.trace,
        member.experimentConfig.peakClients, 12);
    const ResourceAllocation full = member.cluster->maxAllocation();
    const ResourceAllocation tiny{1, InstanceType::Large};
    expectCheck(
        "class allocation meets the SLO",
        [&](CheckLog &log) {
            checkClassAllocations(
                {judgeClassAllocation(*member.service,
                                      member.controller->config().slo,
                                      peak, full, full, "m", 0)},
                log);
        },
        [&](CheckLog &log) {
            checkClassAllocations(
                {judgeClassAllocation(*member.service,
                                      member.controller->config().slo,
                                      peak, tiny, full, "m", 0)},
                log);
        });

    expectCheck(
        "cost within full capacity",
        [](CheckLog &log) { checkCosts({{"m", 10.0, 12.0}}, log); },
        [](CheckLog &log) { checkCosts({{"m", 12.5, 12.0}}, log); });
    expectCheck(
        "hits within lookups",
        [](CheckLog &log) { checkHitsWithinLookups(5, 5, "m", log); },
        [](CheckLog &log) { checkHitsWithinLookups(6, 5, "m", log); });
    expectCheck(
        "no orphaned profiling item",
        [](CheckLog &log) { checkProfiling(0, false, 0, 0, log); },
        [](CheckLog &log) { checkProfiling(1, false, 0, 0, log); });
    expectCheck(
        "hosts lost and restored under host loss",
        [](CheckLog &log) { checkProfiling(0, true, 3, 3, log); },
        [](CheckLog &log) { checkProfiling(0, true, 0, 0, log); });

    RepositoryFile file;
    expectCheck(
        "repository file parses",
        [&](CheckLog &log) {
            if (!file.parse(kFile))
                log.fail("parse");
        },
        [](CheckLog &log) {
            RepositoryFile dup;
            if (!dup.parse(std::string(kFile) + "keyvalue,1,0,8,m1.large\n"))
                log.fail("duplicate row rejected");
        });

    ExpectedAnswer expected;
    expected.kind = 0;
    expected.classId = 1;
    expected.certaintyBits = 0x3fe0000000000000ull;
    expected.allocation = ResourceAllocation{7, InstanceType::Large};
    const ResourceAllocation fallback{10, InstanceType::Large};
    AnswerMsg answer;
    answer.sessionId = 3;
    answer.seq = 9;
    answer.kind = 0;
    answer.classId = 1;
    answer.certaintyBits = expected.certaintyBits;
    answer.bucketUsed = 0;
    answer.allocation = expected.allocation;
    const auto judge = [&](const AnswerMsg &a, const ExpectedAnswer &e,
                           std::uint32_t seq) {
        return [&, a, e, seq](CheckLog &log) {
            AnswerTally tally;
            checkAnswer(a, 3, seq, ServiceKind::KeyValue, e, fallback,
                        file, tally, log);
        };
    };
    AnswerMsg altered = answer;
    altered.allocation.instances = 6;
    expectCheck("answer allocation", judge(answer, expected, 9),
                judge(altered, expected, 9));
    expectCheck("answer sequence number", judge(answer, expected, 9),
                judge(answer, expected, 10));
    AnswerMsg reclassified = answer;
    reclassified.classId = 0;
    expectCheck("answer class", judge(answer, expected, 9),
                judge(reclassified, expected, 9));
    AnswerMsg breached = answer;
    breached.flags = AnswerMsg::kBudgetBreached;
    breached.allocation = fallback;
    AnswerMsg badBreach = breached;
    badBreach.allocation = expected.allocation;
    expectCheck("breached answer carries the fallback",
                judge(breached, expected, 9),
                judge(badBreach, expected, 9));
    // A hit that the in-process model agrees with but the file does
    // not hold (the daemon served a repository other than the file).
    ExpectedAnswer notInFile = expected;
    notInFile.allocation = ResourceAllocation{5, InstanceType::Large};
    AnswerMsg offFile = answer;
    offFile.allocation = notInFile.allocation;
    expectCheck("cache hit equals the file entry",
                judge(answer, expected, 9),
                judge(offFile, notInFile, 9));

    expectCheck(
        "direct equals socket",
        [&](CheckLog &log) { checkSameAnswer(answer, answer, "d", log); },
        [&](CheckLog &log) { checkSameAnswer(answer, altered, "d", log); });

    AnswerTally tally;
    tally.answers = 4;
    tally.hits = 3;
    tally.unknowns = 1;
    tally.breaches = 1;
    const std::string report = "serving.budget_breaches 1\n"
                               "serving.cache_hits 3\n"
                               "serving.latency_p50_ns 812.5\n"
                               "serving.samples 4\n"
                               "serving.unknowns 1\n";
    expectCheck(
        "daemon report equals the benchmark's tallies",
        [&](CheckLog &log) { checkReport(parseReport(report), tally, log); },
        [&](CheckLog &log) {
            AnswerTally off = tally;
            off.hits = 2;
            checkReport(parseReport(report), off, log);
        });

    std::cout << (misjudged ? "self-test FAILED" : "self-test passed")
              << "\n";
    return misjudged ? 1 : 0;
}

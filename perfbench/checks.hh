/**
 * @file
 * Correctness checks the benchmark applies to the program's outputs.
 *
 * Every check is a plain function over values the benchmark collected,
 * so checks_test.cc can feed each one a corrupted output and see it
 * fail. A failing check appends a line to a CheckLog; the benchmark
 * then reports "correct": false.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "serving/wire.hh"
#include "services/service.hh"
#include "sim/allocation.hh"

namespace perfbench {

/** Collected check failures (empty = every check passed). */
struct CheckLog
{
    std::vector<std::string> failures;

    void fail(const std::string &what);
    bool ok() const { return failures.empty(); }
};

/** @name Fleet checks @{ */

/** Two byte strings that must be identical (e.g. the repository saved
 *  after learnAll(1) and after learnAll(2)). */
void checkSameBytes(const std::string &a, const std::string &b,
                    const std::string &what, CheckLog &log);

/**
 * One learned class allocation judged by the service model at the
 * class's representative workload.
 */
struct ClassVerdict
{
    std::string member;
    int classId = -1;
    bool allocationMeetsSlo = false;
    bool fullCapacityMeetsSlo = false;
};

/** Evaluate @p allocation for @p representative with the service's
 *  deterministic model (Service::hypothetical* and Slo::satisfied). */
ClassVerdict judgeClassAllocation(
    const dejavu::Service &service, const dejavu::Slo &slo,
    const dejavu::Workload &representative,
    const dejavu::ResourceAllocation &allocation,
    const dejavu::ResourceAllocation &fullCapacity,
    const std::string &member, int classId);

/** Each class allocation meets the SLO unless full capacity fails
 *  it too. */
void checkClassAllocations(const std::vector<ClassVerdict> &verdicts,
                           CheckLog &log);

/** One member's reuse-window cost and its always-full-capacity
 *  cost. */
struct MemberCost
{
    std::string member;
    double cost = 0.0;
    double fullCapacityCost = 0.0;
};

void checkCosts(const std::vector<MemberCost> &costs, CheckLog &log);

void checkHitsWithinLookups(std::uint64_t hits, std::uint64_t lookups,
                            const std::string &what, CheckLog &log);

/** No orphaned profiling work; with @p expectHostLoss, hosts were
 *  lost and every lost host came back. */
void checkProfiling(std::uint64_t orphanedItems, bool expectHostLoss,
                    std::uint64_t hostsFailed,
                    std::uint64_t hostsRestored, CheckLog &log);
/** @} */

/** @name Serving checks @{ */

/**
 * A saved repository file as read by the benchmark's own parser
 * (independent of SharedRepository::load): (kind name, class,
 * bucket) -> (instances, instance type name).
 */
class RepositoryFile
{
  public:
    /** Parse the "kind,class,bucket,instances,type" CSV; false on a
     *  malformed row or a duplicate key. */
    bool parse(const std::string &text);

    /** True when the file holds exactly @p allocation for the key. */
    bool holds(dejavu::ServiceKind kind, int classId, int bucket,
               const dejavu::ResourceAllocation &allocation) const;

    std::size_t entries() const { return _rows.size(); }

  private:
    std::map<std::tuple<std::string, int, int>,
             std::pair<int, std::string>>
        _rows;
};

/** The answer the benchmark computed in its own process for one
 *  sample (DejaVuController::decideFromSample). */
struct ExpectedAnswer
{
    std::uint8_t kind = 0;  ///< 0 hit, 1 unknown, 2 lost.
    std::int32_t classId = -1;
    std::uint64_t certaintyBits = 0;
    dejavu::ResourceAllocation allocation;
};

/** Answer tallies, compared against the daemon's own counters. */
struct AnswerTally
{
    std::uint64_t answers = 0;
    std::uint64_t hits = 0;
    std::uint64_t unknowns = 0;
    std::uint64_t lost = 0;
    std::uint64_t breaches = 0;
};

/**
 * Judge one reply: it must answer (@p session, @p seq); an answer
 * within budget must equal @p expected, a breached one must carry
 * the session's @p fallback, and a cache hit within budget must
 * equal the file's entry for its (kind, class, bucket).
 * @return true when the reply passed.
 */
bool checkAnswer(const dejavu::serving::AnswerMsg &got,
                 std::uint32_t session, std::uint32_t seq,
                 dejavu::ServiceKind kind,
                 const ExpectedAnswer &expected,
                 const dejavu::ResourceAllocation &fallback,
                 const RepositoryFile &file, AnswerTally &tally,
                 CheckLog &log);

/** Two answers to the same sample from different transports (the
 *  allocation is compared only when neither breached the budget). */
void checkSameAnswer(const dejavu::serving::AnswerMsg &a,
                     const dejavu::serving::AnswerMsg &b,
                     const std::string &what, CheckLog &log);

/** Parse `name value` lines (dejavud --report) into a map. */
std::map<std::string, std::uint64_t> parseReport(
    const std::string &text);

/** The daemon's hit/unknown/breach counters equal @p tally. */
void checkReport(const std::map<std::string, std::uint64_t> &report,
                 const AnswerTally &tally, CheckLog &log);
/** @} */

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH

#include "checks.hh"

#include <sstream>

#include "sim/instance_type.hh"

namespace perfbench {

using dejavu::ResourceAllocation;
using dejavu::serving::AnswerMsg;

namespace {

/** Failures kept verbatim; later ones are only counted. */
constexpr std::size_t kKeptFailures = 20;

std::string
allocationName(const ResourceAllocation &a)
{
    return a.toString();
}

} // namespace

void
CheckLog::fail(const std::string &what)
{
    if (failures.size() < kKeptFailures)
        failures.push_back(what);
    else if (failures.size() == kKeptFailures)
        failures.push_back("... further failures not listed");
}

void
checkSameBytes(const std::string &a, const std::string &b,
               const std::string &what, CheckLog &log)
{
    if (a != b)
        log.fail(what + ": outputs differ (" + std::to_string(a.size())
                 + " vs " + std::to_string(b.size()) + " bytes)");
}

ClassVerdict
judgeClassAllocation(const dejavu::Service &service,
                     const dejavu::Slo &slo,
                     const dejavu::Workload &representative,
                     const ResourceAllocation &allocation,
                     const ResourceAllocation &fullCapacity,
                     const std::string &member, int classId)
{
    const auto meets = [&](const ResourceAllocation &a) {
        return slo.satisfied(
            service.hypotheticalLatencyMs(representative, a),
            service.hypotheticalQosPercent(representative, a));
    };
    ClassVerdict verdict;
    verdict.member = member;
    verdict.classId = classId;
    verdict.allocationMeetsSlo = meets(allocation);
    verdict.fullCapacityMeetsSlo = meets(fullCapacity);
    return verdict;
}

void
checkClassAllocations(const std::vector<ClassVerdict> &verdicts,
                      CheckLog &log)
{
    if (verdicts.empty())
        log.fail("class allocations: nothing was learned");
    for (const ClassVerdict &v : verdicts) {
        if (!v.allocationMeetsSlo && v.fullCapacityMeetsSlo)
            log.fail("class allocation of " + v.member + " class "
                     + std::to_string(v.classId)
                     + " misses the SLO that full capacity meets");
    }
}

void
checkCosts(const std::vector<MemberCost> &costs, CheckLog &log)
{
    if (costs.empty())
        log.fail("costs: no member results");
    for (const MemberCost &c : costs) {
        if (!(c.cost >= 0.0) || !(c.cost <= c.fullCapacityCost)) {
            std::ostringstream os;
            os << "cost of " << c.member << " is " << c.cost
               << " USD, above its full-capacity cost "
               << c.fullCapacityCost << " USD";
            log.fail(os.str());
        }
    }
}

void
checkHitsWithinLookups(std::uint64_t hits, std::uint64_t lookups,
                       const std::string &what, CheckLog &log)
{
    if (hits > lookups)
        log.fail(what + ": " + std::to_string(hits)
                 + " repository hits exceed "
                 + std::to_string(lookups) + " lookups");
}

void
checkProfiling(std::uint64_t orphanedItems, bool expectHostLoss,
               std::uint64_t hostsFailed, std::uint64_t hostsRestored,
               CheckLog &log)
{
    if (orphanedItems != 0)
        log.fail(std::to_string(orphanedItems)
                 + " orphaned profiling items");
    if (expectHostLoss && (hostsFailed == 0 || hostsRestored == 0
                           || hostsRestored > hostsFailed))
        log.fail("host loss: " + std::to_string(hostsFailed)
                 + " hosts lost, " + std::to_string(hostsRestored)
                 + " restored");
}

bool
RepositoryFile::parse(const std::string &text)
{
    _rows.clear();
    std::istringstream in(text);
    std::string line;
    bool header = true;
    while (std::getline(in, line)) {
        if (header) {
            header = false;
            if (line != "kind,class,bucket,instances,type")
                return false;
            continue;
        }
        if (line.empty())
            continue;
        std::vector<std::string> cells;
        std::istringstream row(line);
        std::string cell;
        while (std::getline(row, cell, ','))
            cells.push_back(cell);
        if (cells.size() != 5)
            return false;
        try {
            std::size_t used = 0;
            const int classId = std::stoi(cells[1], &used);
            if (used != cells[1].size())
                return false;
            const int bucket = std::stoi(cells[2], &used);
            if (used != cells[2].size())
                return false;
            const int instances = std::stoi(cells[3], &used);
            if (used != cells[3].size())
                return false;
            const auto inserted = _rows.emplace(
                std::make_tuple(cells[0], classId, bucket),
                std::make_pair(instances, cells[4]));
            if (!inserted.second)
                return false;
        } catch (const std::exception &) {
            return false;
        }
    }
    return !header;
}

bool
RepositoryFile::holds(dejavu::ServiceKind kind, int classId, int bucket,
                      const ResourceAllocation &allocation) const
{
    const auto it = _rows.find(std::make_tuple(
        std::string(dejavu::serviceKindName(kind)), classId, bucket));
    return it != _rows.end()
        && it->second.first == allocation.instances
        && it->second.second
               == dejavu::instanceSpec(allocation.type).name;
}

bool
checkAnswer(const AnswerMsg &got, std::uint32_t session,
            std::uint32_t seq, dejavu::ServiceKind kind,
            const ExpectedAnswer &expected,
            const ResourceAllocation &fallback,
            const RepositoryFile &file, AnswerTally &tally,
            CheckLog &log)
{
    ++tally.answers;
    if (got.kind == 0)
        ++tally.hits;
    else if (got.kind == 1)
        ++tally.unknowns;
    else
        ++tally.lost;
    const bool breached = (got.flags & AnswerMsg::kBudgetBreached) != 0;
    if (breached)
        ++tally.breaches;

    const std::string where = "session " + std::to_string(session)
        + " seq " + std::to_string(seq);
    if (got.sessionId != session || got.seq != seq) {
        log.fail(where + ": reply carries session "
                 + std::to_string(got.sessionId) + " seq "
                 + std::to_string(got.seq));
        return false;
    }
    if (got.kind != expected.kind || got.classId != expected.classId
        || got.certaintyBits != expected.certaintyBits) {
        log.fail(where + ": classified as kind "
                 + std::to_string(got.kind) + " class "
                 + std::to_string(got.classId) + ", expected kind "
                 + std::to_string(expected.kind) + " class "
                 + std::to_string(expected.classId));
        return false;
    }
    const ResourceAllocation &want =
        breached ? fallback : expected.allocation;
    if (got.allocation != want) {
        log.fail(where + ": allocation "
                 + allocationName(got.allocation) + ", expected "
                 + allocationName(want)
                 + (breached ? " (budget fallback)" : ""));
        return false;
    }
    if (!breached && got.kind == 0
        && !file.holds(kind, got.classId, got.bucketUsed,
                       got.allocation)) {
        log.fail(where + ": cache hit " + allocationName(got.allocation)
                 + " is not the file's entry for class "
                 + std::to_string(got.classId) + " bucket "
                 + std::to_string(got.bucketUsed));
        return false;
    }
    return true;
}

void
checkSameAnswer(const AnswerMsg &a, const AnswerMsg &b,
                const std::string &what, CheckLog &log)
{
    const bool breached =
        ((a.flags | b.flags) & AnswerMsg::kBudgetBreached) != 0;
    if (a.kind != b.kind || a.classId != b.classId
        || a.certaintyBits != b.certaintyBits
        || (!breached && (a.allocation != b.allocation
                          || a.bucketUsed != b.bucketUsed)))
        log.fail(what + ": answers differ (class "
                 + std::to_string(a.classId) + " "
                 + allocationName(a.allocation) + " vs class "
                 + std::to_string(b.classId) + " "
                 + allocationName(b.allocation) + ")");
}

std::map<std::string, std::uint64_t>
parseReport(const std::string &text)
{
    std::map<std::string, std::uint64_t> values;
    std::istringstream in(text);
    std::string name;
    std::string value;
    while (in >> name >> value) {
        try {
            std::size_t used = 0;
            const unsigned long long v = std::stoull(value, &used);
            if (used == value.size())
                values[name] = v;
        } catch (const std::exception &) {
            // Non-integer values (quantile bounds) are not compared.
        }
    }
    return values;
}

void
checkReport(const std::map<std::string, std::uint64_t> &report,
            const AnswerTally &tally, CheckLog &log)
{
    const auto compare = [&](const char *name, std::uint64_t mine) {
        const auto it = report.find(name);
        if (it == report.end())
            log.fail(std::string("daemon report lacks ") + name);
        else if (it->second != mine)
            log.fail(std::string("daemon ") + name + " = "
                     + std::to_string(it->second)
                     + ", benchmark counted " + std::to_string(mine));
    };
    compare("serving.samples", tally.answers);
    compare("serving.cache_hits", tally.hits);
    compare("serving.unknowns", tally.unknowns);
    compare("serving.budget_breaches", tally.breaches);
}

} // namespace perfbench

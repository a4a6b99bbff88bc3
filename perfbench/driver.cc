/**
 * @file
 * perfbench — the repository's end-to-end benchmark program.
 *
 *   perfbench --workload <fleet-learn|fleet-churn|serve-socket>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             --dejavud <path> --out <dir>
 *
 * Every run has the same three parts; the workload sizes them (see
 * README.md for the make-up, seeds and reference figures):
 *
 *  1. Set-up, timed from process start: learn the daemon's seeded
 *     per-kind models in process (the serving bootstrap), save their
 *     repository widened to bounded per-kind tables, start the real
 *     `dejavud` with `--repository`, open every session and wait for
 *     the first answer, and build the workload's fleet.
 *  2. Fleet rounds: FleetStack::learnAll(1), then the reuse run, on a
 *     fleet with a shared repository, the profiling work queue (M=2)
 *     and the batched sampler. Wall times are the lower quartile over
 *     rounds; simulated outcomes must repeat exactly from round to
 *     round.
 *  3. Serving rounds, each: a pipelined segment over two connections
 *     (a window of requests in flight on each), a closed-loop segment
 *     (one request in flight, client and daemon pinned to two
 *     distinct CPUs) and the same lookups through in-process
 *     ServingServer::serve. Throughputs are medians over rounds.
 *
 * Every answer is checked (checks.hh). `--trace 1` records spans from
 * this file around calls into each module into an obs::TraceRecorder
 * (written as Chrome JSON for Perfetto) and prints per-layer metrics
 * instead of end-to-end ones. The last stdout line is the result
 * object.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "checks.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/classifier_engine.hh"
#include "core/clustering_engine.hh"
#include "core/controller.hh"
#include "core/tuner.hh"
#include "counters/monitor.hh"
#include "daemon.hh"
#include "experiments/actors.hh"
#include "experiments/runner.hh"
#include "experiments/scenario.hh"
#include "ml/feature_selection.hh"
#include "ml/kmeans.hh"
#include "obs/trace.hh"
#include "serving/bootstrap.hh"
#include "serving/client.hh"
#include "serving/decision.hh"
#include "sim/cluster.hh"

using namespace dejavu;
using namespace dejavu::serving;
using perfbench::AnswerTally;
using perfbench::CheckLog;
using perfbench::ExpectedAnswer;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kProcessStart = Clock::now();

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

std::uint64_t
nanosNow()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Exact quantile by the nearest-rank rule. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/** The sizes one workload gives the three parts of a run. */
struct WorkloadSpec
{
    std::string name;
    int services = 0;      ///< Fleet size (mixed KeyValue/SPECweb/RUBiS).
    int days = 2;          ///< Trace days (day 1 is the learning day).
    bool churn = false;    ///< Jitter, interference, daemons, host loss.
    double fleetShare = 0; ///< Share of --seconds given to fleet rounds.
    int sessions = 0;      ///< Serving sessions on the daemon.
    int pipelined = 0;     ///< Requests per pipelined segment.
    int closedLoop = 0;    ///< Requests per closed-loop segment.
    int direct = 0;        ///< Lookups per in-process segment.
    bool daemonRss = false;///< peak_rss_mib is the daemon's.
};

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> specs = {
        {"fleet-learn", 200, 2, false, 0.8, 200, 40000, 4000, 100000,
         false},
        {"fleet-churn", 100, 14, true, 0.8, 100, 40000, 4000, 100000,
         false},
        {"serve-socket", 3, 2, false, 0.1, 3000, 40000, 4000, 100000,
         true},
    };
    return specs;
}

constexpr ServiceKind kKinds[] = {ServiceKind::KeyValue,
                                  ServiceKind::SpecWeb,
                                  ServiceKind::Rubis};
constexpr int kSamplesPerKind = 64;
constexpr int kWindow = 64;              ///< Requests in flight per connection.
constexpr std::uint64_t kBudgetUs = 250; ///< dejavud's default budget.
/**
 * The fleet scenario's own seed. The fleets are the workload's fixed
 * input, so their simulated outcomes repeat exactly whatever --seed
 * is: across trace seeds the adaptation tail alone moves by up to 4x
 * (README.md), which would leave those metrics no usable bound.
 * --seed drives the serving side: the daemon's bootstrap models, the
 * collected sample traffic and the session-to-kind assignment.
 */
constexpr std::uint64_t kFleetSeed = 42;

std::unique_ptr<FleetStack>
buildFleet(const WorkloadSpec &spec, std::uint64_t seed)
{
    ScenarioOptions options;
    options.seed = seed;
    options.days = spec.days;
    options.interference = spec.churn;
    options.daemons = spec.churn;
    options.hostLoss = spec.churn;
    FleetBuilder builder(options);
    builder.slotPolicy(SlotPolicy::Fifo)
        .profilingHosts(2)
        .shareRepository(RepositorySharing::Shared)
        .profilingWorkMode(ProfilingWorkMode::WorkQueue)
        .samplingMode(SamplingMode::Batched)
        .recordSeries(false);
    if (spec.churn)
        builder.arrivalJitter(seed, kDefaultJitterSpread);
    for (int i = 0; i < spec.services; ++i)
        builder.add(kKinds[i % 3]);
    return builder.build();
}

std::vector<Workload>
learningWorkloads(const FleetMember &member)
{
    std::vector<Workload> learning;
    for (int h = 0; h < member.experimentConfig.reuseStartHour; ++h)
        learning.push_back(TraceDriver::workloadFor(
            *member.service, member.trace,
            member.experimentConfig.peakClients, h));
    return learning;
}

std::string
savedRepository(const SharedRepository &repo)
{
    std::ostringstream out;
    repo.save(out);
    return out.str();
}

/** Spans and per-call timings of a traced run. */
struct Tracer
{
    obs::TraceRecorder recorder{obs::TraceRecorder::Config{
        std::size_t{1} << 20, false}};
    obs::LaneId fleet = recorder.lane("bench/fleet", obs::ClockDomain::Wall);
    obs::LaneId learn = recorder.lane("bench/learn", obs::ClockDomain::Wall);
    obs::LaneId layers =
        recorder.lane("bench/layers", obs::ClockDomain::Wall);
    obs::LaneId serving =
        recorder.lane("bench/serving", obs::ClockDomain::Wall);
    std::size_t spans = 0;

    /** Time @p fn as one span named @p name on @p lane; returns ns. */
    template <typename Fn>
    std::uint64_t span(obs::LaneId lane, const char *name, Fn &&fn,
                       std::uint64_t arg = obs::TraceRecorder::kNoArg)
    {
        const std::uint64_t t0 = obs::wallNanos();
        fn();
        const std::uint64_t t1 = obs::wallNanos();
        const std::int64_t start = recorder.wallMicrosFrom(t0);
        recorder.complete(lane, name, start,
                          recorder.wallMicrosFrom(t1) - start,
                          obs::TraceRecorder::kNoDetail, arg);
        ++spans;
        return t1 - t0;
    }
};

/** Outcome of one fleet round. */
struct FleetRound
{
    double learnSec = 0.0;
    double runSec = 0.0;
    double adaptP50 = 0.0;
    double adaptP99 = 0.0;
    double costUsd = 0.0;
    std::uint64_t tunerRuns = 0;
    std::string learnedRepository;
    FleetExperiment::FleetSummary summary;
    std::uint64_t events = 0;
    double queueDelayP50 = 0.0;
    double queueDelayP99 = 0.0;
    std::vector<double> prepareMs;  ///< Traced runs only.
    std::vector<double> finalizeMs; ///< Traced runs only.
};

/** The representative workload the tuner replays for @p classId of a
 *  learned member, recomputed from the member's clustering and its
 *  learning workloads by the controller's documented rule. */
Workload
representativeOf(const FleetMember &member, int classId)
{
    const DejaVuController &controller = *member.controller;
    const std::vector<Workload> learning = learningWorkloads(member);
    const int trials = controller.config().trialsPerWorkload;
    const Clustering &clustering = controller.clustering();
    const auto workloadOfSample = [&](int sample) {
        return learning[static_cast<std::size_t>(sample / trials)];
    };
    if (controller.config().representativeRule
        == DejaVuController::RepresentativeRule::Medoid)
        return workloadOfSample(
            clustering.medoids[static_cast<std::size_t>(classId)]);
    int best = -1;
    double mostClients = -1.0;
    for (std::size_t i = 0; i < clustering.assignment.size(); ++i) {
        if (clustering.assignment[i] != classId)
            continue;
        const Workload w = workloadOfSample(static_cast<int>(i));
        if (w.clients > mostClients) {
            mostClients = w.clients;
            best = static_cast<int>(i);
        }
    }
    return workloadOfSample(best);
}

/** Judge every learned class allocation at the representative of the
 *  member that tuned it (the first member of its kind, in member
 *  order, that has the class — learnPrepared's sequential order). */
void
checkLearnedAllocations(FleetStack &stack, CheckLog &log)
{
    std::vector<perfbench::ClassVerdict> verdicts;
    std::map<ServiceKind, int> classesSeen;
    for (auto &memberPtr : stack.members) {
        FleetMember &member = *memberPtr;
        const ServiceKind kind = member.service->kind();
        const int k = member.controller->clustering().k;
        int &seen = classesSeen[kind];
        for (int c = seen; c < k; ++c) {
            const std::optional<ResourceAllocation> allocation =
                member.controller->repository().peek({c, 0});
            if (!allocation) {
                log.fail("no learned allocation for " + member.name
                         + " class " + std::to_string(c));
                continue;
            }
            verdicts.push_back(perfbench::judgeClassAllocation(
                *member.service, member.controller->config().slo,
                representativeOf(member, c), *allocation,
                member.cluster->maxAllocation(), member.name, c));
        }
        seen = std::max(seen, k);
    }
    perfbench::checkClassAllocations(verdicts, log);
}

FleetRound
runFleetRound(FleetStack &stack, Tracer *tracer, bool firstRound,
              CheckLog &log)
{
    FleetRound round;
    const Clock::time_point learnStart = Clock::now();
    if (!tracer) {
        stack.learnAll(1);
    } else {
        // The same work as learnAll(1), split at its public seam so
        // each half is timed per member.
        for (auto &member : stack.members) {
            const std::vector<Workload> learning =
                learningWorkloads(*member);
            round.prepareMs.push_back(1e-6 * static_cast<double>(
                tracer->span(tracer->learn, "prepareLearning", [&] {
                    member->controller->prepareLearning(learning);
                })));
        }
        for (auto &member : stack.members)
            round.finalizeMs.push_back(1e-6 * static_cast<double>(
                tracer->span(tracer->learn, "learnPrepared", [&] {
                    member->controller->learnPrepared();
                })));
    }
    round.learnSec = secondsSince(learnStart);

    SharedRepository *repo = stack.experiment->sharedRepository();
    round.learnedRepository = savedRepository(*repo);
    if (firstRound)
        checkLearnedAllocations(stack, log);

    stack.startInjectors();
    const Clock::time_point runStart = Clock::now();
    const std::vector<FleetExperiment::ServiceResult> results =
        stack.experiment->run();
    round.runSec = secondsSince(runStart);

    round.summary = stack.experiment->summary();
    round.events = stack.sim->queue().executed();
    std::vector<double> total;
    std::vector<double> queued;
    for (const auto &entry : stack.experiment->fleet().log()) {
        total.push_back(toSeconds(entry.totalAdaptation()));
        queued.push_back(toSeconds(entry.queueDelay()));
    }
    round.adaptP50 = quantile(total, 0.50);
    round.adaptP99 = quantile(total, 0.99);
    round.queueDelayP50 = quantile(queued, 0.50);
    round.queueDelayP99 = quantile(queued, 0.99);

    std::vector<perfbench::MemberCost> costs;
    for (const auto &r : results) {
        round.costUsd += r.result.costDollars;
        costs.push_back({r.name, r.result.costDollars,
                         r.result.maxCostDollars});
    }
    for (const auto &member : stack.members) {
        const Repository::Stats stats =
            member->controller->repository().stats();
        round.tunerRuns += stats.stores;
        perfbench::checkHitsWithinLookups(stats.hits, stats.lookups,
                                          member->name, log);
    }
    perfbench::checkCosts(costs, log);
    perfbench::checkHitsWithinLookups(round.summary.repoHits,
                                      round.summary.repoLookups,
                                      "fleet", log);
    perfbench::checkProfiling(round.summary.orphanedItems,
                              stack.hostLoss != nullptr,
                              round.summary.hostsFailed,
                              round.summary.hostsRestored, log);
    if (round.summary.adaptations == 0)
        log.fail("fleet completed no adaptations");
    return round;
}

/** The daemon-side traffic: per kind, real samples and the answers
 *  computed in this process for them. */
struct Traffic
{
    std::vector<std::vector<MetricSample>> samples;
    std::vector<std::vector<ExpectedAnswer>> expected;
    std::vector<ResourceAllocation> fallbacks;
    /** First answer the daemon gave to each (kind, sample). */
    std::vector<std::vector<std::optional<AnswerMsg>>> socketAnswer;
};

Traffic
makeTraffic(ServingBootstrap &bootstrap)
{
    Traffic traffic;
    for (ServiceKind kind : kKinds) {
        FleetMember &member = bootstrap.memberFor(kind);
        traffic.samples.push_back(
            bootstrap.collectSamples(kind, kSamplesPerKind));
        traffic.fallbacks.push_back(member.cluster->maxAllocation());
        std::vector<ExpectedAnswer> expected;
        for (const MetricSample &sample : traffic.samples.back()) {
            const DejaVuController::Decision decision =
                member.controller->decideFromSample(sample);
            // The controller folds lost entries into UnknownWorkload;
            // the bootstrap repository is unshared-by-peers at this
            // point, so a known class always has its entry.
            ExpectedAnswer e;
            e.kind = decision.kind
                    == DejaVuController::DecisionKind::CacheHit
                ? 0 : 1;
            e.classId = decision.classId;
            std::memcpy(&e.certaintyBits, &decision.certainty,
                        sizeof e.certaintyBits);
            e.allocation = decision.allocation;
            expected.push_back(e);
        }
        traffic.expected.push_back(std::move(expected));
        traffic.socketAnswer.emplace_back(kSamplesPerKind);
    }
    return traffic;
}

/** Where session @p index starts in its kind's sample pool. */
std::uint32_t
sampleOffset(std::uint64_t seed, std::uint64_t index)
{
    std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + index;
    x ^= x >> 31;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 29;
    return static_cast<std::uint32_t>(x % kSamplesPerKind);
}

/** One serving session as the benchmark drives it. */
struct SessionState
{
    std::uint32_t id = 0;
    int kind = 0;  ///< Index into kKinds.
    std::uint32_t seq = 0;
    std::uint32_t cursor = 0;  ///< Next sample index.
};

/** A request awaiting its reply. */
struct Pending
{
    std::uint32_t session;
    std::uint32_t seq;
    std::uint16_t kind;
    std::uint16_t sample;
};

/** One connection's sessions and in-flight requests. */
struct Lane
{
    std::unique_ptr<perfbench::Connection> conn;
    std::vector<SessionState> sessions;
    std::size_t next = 0;
    std::deque<Pending> inflight;
};

class ServingDriver
{
  public:
    ServingDriver(Traffic &traffic, const perfbench::RepositoryFile &file,
                  std::uint64_t seed, CheckLog &log)
        : _traffic(traffic), _file(file), _seed(seed), _log(log)
    {
    }

    AnswerTally tally;
    std::uint64_t requests = 0;

    /** Open @p count sessions on @p lane: kinds cycle, and each
     *  session starts at a seeded point of its kind's samples. */
    void openSessions(Lane &lane, int first, int count)
    {
        for (int i = 0; i < count; ++i) {
            const int kind = static_cast<int>(
                (static_cast<std::uint64_t>(first + i) + _seed) % 3);
            HelloMsg hello;
            hello.kind = kKinds[kind];
            hello.fallback = _traffic.fallbacks[kind];
            hello.owner = "perfbench";
            lane.conn->queue(encodeHello(hello));
            lane.conn->flush();
            lane.conn->receive(_reply);
            const std::optional<HelloAckMsg> ack =
                decodeHelloAck(_reply);
            if (!ack || !ack->accepted())
                fatal("dejavud refused session ", first + i);
            lane.sessions.push_back(
                {ack->sessionId, kind, 0,
                 sampleOffset(_seed, static_cast<std::uint64_t>(first + i))});
        }
    }

    /** Queue @p count samples on @p lane (not yet flushed). */
    void send(Lane &lane, int count)
    {
        for (int i = 0; i < count; ++i) {
            SessionState &s =
                lane.sessions[lane.next++ % lane.sessions.size()];
            const std::uint16_t sample = static_cast<std::uint16_t>(
                s.cursor++ % kSamplesPerKind);
            encodeSampleInto(
                _request, s.id, s.seq,
                _traffic.samples[static_cast<std::size_t>(s.kind)]
                                [sample].values);
            lane.conn->queue(_request);
            lane.inflight.push_back(
                {s.id, s.seq, static_cast<std::uint16_t>(s.kind),
                 sample});
            ++s.seq;
        }
        lane.conn->flush();
        requests += static_cast<std::uint64_t>(count);
    }

    /** Receive and check @p count replies on @p lane. */
    void receive(Lane &lane, int count)
    {
        for (int i = 0; i < count; ++i) {
            lane.conn->receive(_reply);
            const Pending p = lane.inflight.front();
            lane.inflight.pop_front();
            const std::optional<AnswerMsg> answer =
                decodeAnswer(_reply);
            if (!answer) {
                _log.fail("undecodable reply to session "
                          + std::to_string(p.session));
                continue;
            }
            perfbench::checkAnswer(
                *answer, p.session, p.seq, kKinds[p.kind],
                _traffic.expected[p.kind][p.sample],
                _traffic.fallbacks[p.kind], _file, tally, _log);
            std::optional<AnswerMsg> &first =
                _traffic.socketAnswer[p.kind][p.sample];
            if (!first)
                first = *answer;
        }
    }

    /** Pipelined segment: @p total requests over both lanes with a
     *  window of kWindow in flight on each. @return lookups/s. */
    double pipelined(Lane &a, Lane &b, int total)
    {
        const int perLane = total / 2;
        int sentA = 0;
        int sentB = 0;
        const Clock::time_point start = Clock::now();
        send(a, kWindow);
        sentA += kWindow;
        send(b, kWindow);
        sentB += kWindow;
        while (!a.inflight.empty() || !b.inflight.empty()) {
            for (auto [lane, sent] :
                 {std::pair<Lane *, int *>{&a, &sentA},
                  std::pair<Lane *, int *>{&b, &sentB}}) {
                const int pending =
                    static_cast<int>(lane->inflight.size());
                if (pending == 0)
                    continue;
                receive(*lane, pending);
                const int more = std::min(kWindow, perLane - *sent);
                if (more > 0) {
                    send(*lane, more);
                    *sent += more;
                }
            }
        }
        return static_cast<double>(sentA + sentB) / secondsSince(start);
    }

    /** Closed loop on @p lane: one request in flight; appends each
     *  round trip in microseconds to @p rttUs. */
    void closedLoop(Lane &lane, int count, std::vector<double> &rttUs)
    {
        for (int i = 0; i < count; ++i) {
            const std::uint64_t t0 = nanosNow();
            send(lane, 1);
            receive(lane, 1);
            rttUs.push_back(1e-3 * static_cast<double>(nanosNow() - t0));
        }
    }

  private:
    Traffic &_traffic;
    const perfbench::RepositoryFile &_file;
    std::uint64_t _seed;
    CheckLog &_log;
    WireFrame _request;
    WireFrame _reply;
};

/** The in-process serving path: the same models and file, served by
 *  ServingServer::serve on this thread. */
struct DirectPath
{
    std::unique_ptr<SharedRepository> repo;
    std::unique_ptr<ServingServer> server;
    std::vector<ServingClient> clients;
    std::vector<int> kindOf;
    std::vector<std::uint32_t> cursor;
    std::vector<std::uint32_t> seq;
    std::size_t next = 0;
};

DirectPath
makeDirectPath(ServingBootstrap &bootstrap, const std::string &fileText,
               const Traffic &traffic, int sessions, std::uint64_t seed)
{
    DirectPath direct;
    std::istringstream in(fileText);
    direct.repo = std::make_unique<SharedRepository>(
        SharedRepository::load(in, SharedRepository::Mode::Shared,
                               ServiceKind::Generic, 8));
    ServingServer::Config config;
    config.budgetNanos = kBudgetUs * 1000;
    config.maxSessions = sessions + 1;
    direct.server = std::make_unique<ServingServer>(*direct.repo, config);
    for (ServiceKind kind : kKinds)
        direct.server->registerModel(
            kind, bootstrap.memberFor(kind).controller->servingModel());
    for (int s = 0; s < sessions; ++s) {
        const int kind = static_cast<int>(
            (static_cast<std::uint64_t>(s) + seed) % 3);
        direct.clients.emplace_back(*direct.server);
        if (!direct.clients.back().hello(kKinds[kind],
                                         traffic.fallbacks[kind],
                                         "perfbench"))
            fatal("in-process server refused session ", s);
        direct.kindOf.push_back(kind);
        direct.cursor.push_back(
            sampleOffset(seed, static_cast<std::uint64_t>(s)));
        direct.seq.push_back(0);
    }
    return direct;
}

/** @p count in-process lookups; @return lookups/s. */
double
directSegment(DirectPath &direct, Traffic &traffic,
              const perfbench::RepositoryFile &file, int count,
              AnswerTally &tally, CheckLog &log)
{
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < count; ++i) {
        const std::size_t s = direct.next++ % direct.clients.size();
        const int kind = direct.kindOf[s];
        const std::uint32_t sample = direct.cursor[s]++ % kSamplesPerKind;
        ServingClient &client = direct.clients[s];
        const AnswerMsg answer =
            client.decide(traffic.samples[static_cast<std::size_t>(kind)]
                                         [sample].values);
        perfbench::checkAnswer(answer, client.sessionId(), direct.seq[s]++,
                               kKinds[kind],
                               traffic.expected[static_cast<std::size_t>(
                                   kind)][sample],
                               traffic.fallbacks[static_cast<std::size_t>(
                                   kind)],
                               file, tally, log);
        const std::optional<AnswerMsg> &viaSocket =
            traffic.socketAnswer[static_cast<std::size_t>(kind)][sample];
        if (viaSocket)
            perfbench::checkSameAnswer(answer, *viaSocket,
                                       "direct vs socket", log);
    }
    return static_cast<double>(count) / secondsSince(start);
}

/** Per-call timing of the serving hot-path pieces (traced runs). */
void
probeServingLayers(Tracer &tracer, ServingBootstrap &bootstrap,
                   const Traffic &traffic, DirectPath &direct,
                   std::map<std::string, double> &metrics)
{
    constexpr int kCalls = 50000;
    WireFrame frame;
    std::vector<WireFrame> answers;
    for (int k = 0; k < 3; ++k) {
        AnswerMsg msg;
        msg.classId = traffic.expected[static_cast<std::size_t>(k)][0]
                          .classId;
        msg.allocation = traffic.fallbacks[static_cast<std::size_t>(k)];
        answers.push_back(encodeAnswer(msg));
    }
    const auto &pool = traffic.samples;
    std::uint64_t sink = 0;
    const std::uint64_t encodeNs = tracer.span(
        tracer.layers, "serving.encodeSampleInto", [&] {
            for (int i = 0; i < kCalls; ++i) {
                encodeSampleInto(frame, 1, static_cast<std::uint32_t>(i),
                                 pool[static_cast<std::size_t>(i % 3)]
                                     [static_cast<std::size_t>(
                                         i % kSamplesPerKind)].values);
                sink += frame.size();
            }
        }, kCalls);
    const std::uint64_t decodeNs = tracer.span(
        tracer.layers, "serving.decodeAnswer", [&] {
            for (int i = 0; i < kCalls; ++i) {
                const std::optional<AnswerMsg> a =
                    decodeAnswer(answers[static_cast<std::size_t>(i % 3)]);
                sink += a ? a->seq : 1;
            }
        }, kCalls);
    std::vector<DecisionModel> models;
    for (ServiceKind kind : kKinds)
        models.push_back(
            bootstrap.memberFor(kind).controller->servingModel());
    std::vector<double> scratch;
    const std::uint64_t classifyNs = tracer.span(
        tracer.layers, "serving.classifySample", [&] {
            for (int i = 0; i < kCalls; ++i) {
                const ClassifierEngine::Outcome o = classifySample(
                    models[static_cast<std::size_t>(i % 3)],
                    pool[static_cast<std::size_t>(i % 3)]
                        [static_cast<std::size_t>(i % kSamplesPerKind)]
                            .values,
                    scratch);
                sink += static_cast<std::uint64_t>(o.classId + 1);
            }
        }, kCalls);
    // serve() on pre-encoded frames of live in-process sessions.
    std::vector<WireFrame> requests;
    for (std::size_t s = 0; s < 3; ++s) {
        WireFrame request;
        encodeSampleInto(request, direct.clients[s].sessionId(), 0,
                         pool[static_cast<std::size_t>(direct.kindOf[s])][0]
                             .values);
        requests.push_back(std::move(request));
    }
    WireFrame reply;
    const std::uint64_t serveNs = tracer.span(
        tracer.layers, "serving.ServingServer::serve", [&] {
            for (int i = 0; i < kCalls; ++i) {
                direct.server->serve(requests[static_cast<std::size_t>(i % 3)],
                                     monotonicNanos(), reply);
                sink += reply.size();
            }
        }, kCalls);
    std::vector<RepositorySnapshot> snapshots;
    std::vector<std::vector<RepositoryKey>> keys;
    for (ServiceKind kind : kKinds) {
        snapshots.push_back(direct.repo->snapshot(kind));
        std::vector<RepositoryKey> k;
        for (const auto &entry : snapshots.back().all())
            k.push_back(entry.key);
        keys.push_back(std::move(k));
    }
    const std::uint64_t findNs = tracer.span(
        tracer.layers, "core.RepositorySnapshot::find", [&] {
            for (int i = 0; i < kCalls; ++i) {
                const auto &k = keys[static_cast<std::size_t>(i % 3)];
                const auto hit = snapshots[static_cast<std::size_t>(i % 3)]
                                     .find(k[static_cast<std::size_t>(i)
                                             % k.size()]);
                sink += hit ? static_cast<std::uint64_t>(hit->instances) : 0;
            }
        }, kCalls);
    if (sink == 42)
        std::cerr << "";  // Keeps the loops' results observable.
    metrics["serving.encode_sample_ns"] =
        static_cast<double>(encodeNs) / kCalls;
    metrics["serving.decode_answer_ns"] =
        static_cast<double>(decodeNs) / kCalls;
    metrics["serving.classify_sample_ns"] =
        static_cast<double>(classifyNs) / kCalls;
    metrics["serving.serve_ns"] = static_cast<double>(serveNs) / kCalls;
    metrics["core.snapshot_find_ns"] =
        static_cast<double>(findNs) / kCalls;
}

/** Per-call timing of the learning pipeline's stages, called from
 *  outside on a fresh copy of the workload's fleet (so the measured
 *  fleets' random streams are untouched), plus the reuse decision on
 *  a learned member (traced runs). */
void
probeLearningLayers(Tracer &tracer, const WorkloadSpec &spec,
                    std::uint64_t seed, FleetStack &learned,
                    std::map<std::string, double> &metrics)
{
    std::unique_ptr<FleetStack> copy = buildFleet(spec, seed);
    const std::size_t probes =
        std::min<std::size_t>(6, copy->members.size());
    std::vector<double> collectUs, kmeansMs, cfsMs, identifyMs, trainMs,
        tuneMs;
    std::uint64_t experiments = 0;
    for (std::size_t m = 0; m < probes; ++m) {
        FleetMember &member = *copy->members[m];
        const DejaVuController::Config &config =
            member.controller->config();
        const std::vector<Workload> learning = learningWorkloads(member);
        std::vector<MetricSample> samples;
        for (const Workload &w : learning) {
            for (int t = 0; t < config.trialsPerWorkload; ++t) {
                collectUs.push_back(1e-3 * static_cast<double>(tracer.span(
                    tracer.layers, "counters.collectSignature", [&] {
                        samples.push_back(
                            member.profiler->collectSignature(w));
                    })));
            }
        }
        // The clustering engine's stages, one at a time.
        Dataset full(Monitor::metricNames());
        for (const MetricSample &s : samples)
            full.add(s.values);
        Standardizer standardizer;
        standardizer.fit(full);
        const Dataset fullStd = standardizer.transform(full);
        Clustering provisional;
        kmeansMs.push_back(1e-6 * static_cast<double>(tracer.span(
            tracer.layers, "ml.KMeans::runAuto", [&] {
                provisional = KMeans(Rng(seed + m), config.clustering.kmeans)
                                  .runAuto(fullStd);
            })));
        for (int i = 0; i < full.size(); ++i)
            full.setLabel(i, provisional.assignment[
                                 static_cast<std::size_t>(i)]);
        cfsMs.push_back(1e-6 * static_cast<double>(tracer.span(
            tracer.layers, "ml.CfsSubsetSelector::select", [&] {
                CfsSubsetSelector selector(config.clustering.cfs);
                const std::vector<int> chosen = selector.select(full);
                if (chosen.empty())
                    fatal("CFS selected no metrics");
            })));
        ClusteringEngine::Result result;
        identifyMs.push_back(1e-6 * static_cast<double>(tracer.span(
            tracer.layers, "core.ClusteringEngine::identifyClasses", [&] {
                result = ClusteringEngine(Rng(seed + m), config.clustering)
                             .identifyClasses(samples);
            })));
        trainMs.push_back(1e-6 * static_cast<double>(tracer.span(
            tracer.layers, "ml.ClassifierEngine::train", [&] {
                ClassifierEngine::Config cc;
                cc.algorithm = config.algorithm;
                cc.certaintyThreshold = config.certaintyThreshold;
                ClassifierEngine engine(cc);
                engine.train(result.labeledSignatures);
            })));
        const Workload &representative = learning[static_cast<std::size_t>(
            result.representatives[0] / config.trialsPerWorkload)];
        tuneMs.push_back(1e-6 * static_cast<double>(tracer.span(
            tracer.layers, "core.Tuner::tune", [&] {
                Tuner tuner(*member.profiler, config.slo,
                            config.searchSpace, config.tuner);
                experiments += static_cast<std::uint64_t>(
                    tuner.tune(representative).experiments);
            })));
    }
    metrics["counters.collect_signature_us"] = median(collectUs);
    metrics["ml.kmeans_auto_ms"] = median(kmeansMs);
    metrics["ml.cfs_select_ms"] = median(cfsMs);
    metrics["core.identify_classes_ms"] = median(identifyMs);
    metrics["ml.c45_train_ms"] = median(trainMs);
    metrics["core.tune_ms"] = median(tuneMs);
    metrics["core.tuner_experiments"] =
        static_cast<double>(experiments) / static_cast<double>(probes);

    // Reuse decisions on the last measured (learned and run) fleet.
    std::vector<double> decideUs;
    for (std::size_t m = 0; m < probes; ++m) {
        FleetMember &member = *learned.members[m];
        const std::vector<Workload> learning = learningWorkloads(member);
        for (const Workload &w : learning) {
            const MetricSample sample =
                member.profiler->collectSignature(w);
            decideUs.push_back(1e-3 * static_cast<double>(tracer.span(
                tracer.layers, "core.DejaVuController::decideFromSample",
                [&] { member.controller->decideFromSample(sample); })));
        }
    }
    metrics["core.decide_from_sample_us"] = median(decideUs);
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    std::string dejavud;
    std::string out = ".bench_out";
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            fatal(flag, " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::stoull(value);
        else if (flag == "--seconds")
            args.seconds = std::stoi(value);
        else if (flag == "--trace")
            args.trace = value == "1";
        else if (flag == "--dejavud")
            args.dejavud = value;
        else if (flag == "--out")
            args.out = value;
        else
            fatal("unknown argument ", flag);
    }
    if (args.seconds < 1)
        fatal("--seconds must be >= 1");
    if (args.dejavud.empty())
        fatal("--dejavud <path> is required");
    return args;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    out << text;
    if (!out)
        fatal("cannot write ", path);
}

std::string
jsonNumber(double v)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.10g", v);
    return buffer;
}

} // namespace

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::Silent);
    const Args args = parseArgs(argc, argv);
    const WorkloadSpec *specPtr = nullptr;
    for (const WorkloadSpec &w : workloads())
        if (w.name == args.workload)
            specPtr = &w;
    if (!specPtr)
        fatal("unknown workload '", args.workload,
              "' (fleet-learn | fleet-churn | serve-socket)");
    const WorkloadSpec &spec = *specPtr;
    const std::string runDir = args.out + "/" + spec.name + "-s"
        + std::to_string(args.seed) + "-t" + (args.trace ? "1" : "0");
    ::mkdir(args.out.c_str(), 0755);
    ::mkdir(runDir.c_str(), 0755);

    std::unique_ptr<Tracer> tracer;
    if (args.trace)
        tracer = std::make_unique<Tracer>();
    CheckLog log;

    // ---- Set-up (cold, from process start) -------------------------
    BootstrapOptions bootOptions;
    bootOptions.seed = args.seed;
    bootOptions.budgetNanos = kBudgetUs * 1000;
    bootOptions.learnThreads = 1;
    std::unique_ptr<ServingBootstrap> bootstrap =
        makeServingBootstrap(bootOptions);
    Traffic traffic = makeTraffic(*bootstrap);

    // The served file: the bootstrap repository, widened to bounded
    // per-kind tables (64 classes x 4 buckets beyond the learned ids).
    std::string fileText;
    {
        std::istringstream in(savedRepository(
            *bootstrap->stack->experiment->sharedRepository()));
        SharedRepository widened = SharedRepository::load(
            in, SharedRepository::Mode::Shared, ServiceKind::Generic, 8);
        for (ServiceKind kind : kKinds)
            widenRepository(widened, kind, 1000, 64, 4,
                            ResourceAllocation{});
        fileText = savedRepository(widened);
    }
    const std::string repoPath = runDir + "/repository.csv";
    writeFile(repoPath, fileText);
    perfbench::RepositoryFile file;
    if (!file.parse(readFile(repoPath)))
        log.fail("the saved repository file does not parse");

    const std::string socketPath = runDir + "/d.sock";
    auto daemon = std::make_unique<perfbench::Daemon>(
        std::vector<std::string>{args.dejavud, "--listen", socketPath,
                                 "--repository", repoPath, "--seed",
                                 std::to_string(args.seed), "--report"},
        runDir + "/dejavud.out", runDir + "/dejavud.err");
    ServingDriver serving(traffic, file, args.seed, log);
    Lane laneA;
    Lane laneB;
    laneA.conn = std::make_unique<perfbench::Connection>(socketPath, 60.0);
    laneB.conn = std::make_unique<perfbench::Connection>(socketPath, 60.0);
    serving.openSessions(laneA, 0, (spec.sessions + 1) / 2);
    serving.openSessions(laneB, (spec.sessions + 1) / 2, spec.sessions / 2);
    serving.send(laneA, 1);
    serving.receive(laneA, 1);
    DirectPath direct =
        makeDirectPath(*bootstrap, fileText, traffic, spec.sessions,
                       args.seed);
    std::unique_ptr<FleetStack> stack = buildFleet(spec, kFleetSeed);
    const double setupSec = secondsSince(kProcessStart);

    // ---- Measured rounds ---------------------------------------------
    // Fleet rounds and serving rounds interleave over the whole run so
    // that a slow spell of the host lands on both alike, and every
    // single-threaded timed phase rotates over the allowed CPUs so that
    // no one CPU's speed decides a figure. Round trips pin the client
    // thread and every daemon thread to two distinct CPUs.
    const std::vector<int> cpus = perfbench::allowedCpus();
    const bool pinned = cpus.size() >= 2;
    const auto pinDaemon = [&](const std::vector<int> &to) {
        for (pid_t tid : perfbench::threadsOf(daemon->pid()))
            perfbench::pinThread(tid, to);
    };
    std::vector<FleetRound> rounds;
    std::unique_ptr<FleetStack> lastFleet;
    std::vector<double> pipelinedRates;
    std::vector<double> directRates;
    std::vector<double> rttUs;
    AnswerTally directTally;
    std::uint64_t directLookups = 0;
    double fleetSec = 0.0;
    double servingSec = 0.0;
    const Clock::time_point measureStart = Clock::now();
    while (rounds.empty() || pipelinedRates.empty()
           || secondsSince(measureStart) < args.seconds) {
        const Clock::time_point roundStart = Clock::now();
        if (rounds.empty()
            || fleetSec < spec.fleetShare * (fleetSec + servingSec)) {
            if (pinned)
                perfbench::pinThread(0, {cpus[rounds.size() % cpus.size()]});
            lastFleet.reset();
            if (!stack)
                stack = buildFleet(spec, kFleetSeed);
            FleetRound round;
            auto body = [&] {
                round = runFleetRound(*stack, tracer.get(), rounds.empty(),
                                      log);
            };
            if (tracer)
                tracer->span(tracer->fleet, "fleet.round", body,
                             rounds.size());
            else
                body();
            if (!rounds.empty()) {
                const FleetRound &first = rounds.front();
                if (round.learnedRepository != first.learnedRepository
                    || round.adaptP50 != first.adaptP50
                    || round.adaptP99 != first.adaptP99
                    || round.costUsd != first.costUsd
                    || round.tunerRuns != first.tunerRuns
                    || round.events != first.events)
                    log.fail("fleet round " + std::to_string(rounds.size())
                             + " did not repeat round 0");
                round.learnedRepository.clear();
            }
            rounds.push_back(std::move(round));
            lastFleet = std::move(stack);
            perfbench::pinThread(0, cpus);
            fleetSec += secondsSince(roundStart);
            continue;
        }
        const std::size_t k = pipelinedRates.size();
        auto round = [&] {
            pipelinedRates.push_back(
                serving.pipelined(laneA, laneB, spec.pipelined));
            if (pinned) {
                pinDaemon({cpus[k % cpus.size()]});
                perfbench::pinThread(0, {cpus[(k + 1) % cpus.size()]});
            }
            serving.closedLoop(laneA, spec.closedLoop, rttUs);
            if (pinned)
                pinDaemon(cpus);
            directRates.push_back(directSegment(direct, traffic, file,
                                                spec.direct, directTally,
                                                log));
            directLookups += static_cast<std::uint64_t>(spec.direct);
            perfbench::pinThread(0, cpus);
        };
        if (tracer)
            tracer->span(tracer->serving, "serving.round", round, k);
        else
            round();
        servingSec += secondsSince(roundStart);
    }

    // ---- Checks that need the daemon gone, and the repeat learn -------
    const std::uint64_t daemonRss = daemon->peakRssBytes();
    laneA.conn.reset();
    laneB.conn.reset();
    if (!daemon->shutdown())
        log.fail("dejavud exited with an error");
    daemon.reset();
    perfbench::checkReport(
        perfbench::parseReport(readFile(runDir + "/dejavud.out")),
        serving.tally, log);
    {
        std::unique_ptr<FleetStack> parallel = buildFleet(spec, kFleetSeed);
        parallel->learnAll(2);
        perfbench::checkSameBytes(
            rounds.front().learnedRepository,
            savedRepository(*parallel->experiment->sharedRepository()),
            "repository after learnAll(1) vs learnAll(2)", log);
    }

    // ---- Report --------------------------------------------------------
    {
        std::ofstream perRound(runDir + "/rounds.txt");
        perRound << "# fleet rounds: learn_s run_s\n";
        for (const FleetRound &r : rounds)
            perRound << jsonNumber(r.learnSec) << ' ' << jsonNumber(r.runSec)
                     << '\n';
        perRound << "# serving rounds: lookups_per_s direct_lookups_per_s\n";
        for (std::size_t i = 0; i < pipelinedRates.size(); ++i)
            perRound << jsonNumber(pipelinedRates[i]) << ' '
                     << jsonNumber(directRates[i]) << '\n';
    }
    std::vector<double> learnSecs;
    std::vector<double> runSecs;
    for (const FleetRound &r : rounds) {
        learnSecs.push_back(r.learnSec);
        runSecs.push_back(r.runSec);
    }
    const FleetRound &first = rounds.front();
    // Host slowdowns only ever add time, and a fleet round is long and
    // rounds are few, so the fleet wall times take the lower quartile
    // of the rounds: the time the work takes when the host lets it
    // run. (Serving segments are short and many; they take medians.)
    const double learnSec = quantile(learnSecs, 0.25);
    const double runSec = quantile(runSecs, 0.25);
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const double ownRssMib = static_cast<double>(usage.ru_maxrss) / 1024.0;

    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;
    if (!tracer) {
        metrics = {
            {"learn_s", learnSec, "s"},
            {"run_s", runSec, "s"},
            {"adapt_p50_s", first.adaptP50, "sim_s"},
            {"adapt_p99_s", first.adaptP99, "sim_s"},
            {"fleet_cost_usd", first.costUsd, "USD"},
            {"tuner_runs", static_cast<double>(first.tunerRuns), "count"},
            {"peak_rss_mib",
             spec.daemonRss ? static_cast<double>(daemonRss) / 1048576.0
                            : ownRssMib,
             "MiB"},
            {"setup_s", setupSec, "s"},
            {"lookups_per_s", median(pipelinedRates), "1/s"},
            {"rtt_p50_us", quantile(rttUs, 0.50), "us"},
        };
    } else {
        std::map<std::string, double> layer;
        probeServingLayers(*tracer, *bootstrap, traffic, direct, layer);
        probeLearningLayers(*tracer, spec, kFleetSeed, *lastFleet, layer);
        std::uint64_t collectCalls = 0;
        for (const auto &member : lastFleet->members)
            collectCalls += static_cast<std::uint64_t>(
                member->experimentConfig.reuseStartHour
                * member->controller->config().trialsPerWorkload);
        std::vector<double> prepareMs, finalizeMs;
        for (const FleetRound &r : rounds) {
            prepareMs.insert(prepareMs.end(), r.prepareMs.begin(),
                             r.prepareMs.end());
            finalizeMs.insert(finalizeMs.end(), r.finalizeMs.begin(),
                              r.finalizeMs.end());
        }
        const FleetExperiment::FleetSummary &s = first.summary;
        const AnswerTally &t = serving.tally;
        const double signatureDemand =
            static_cast<double>(s.signatureSlots + s.coalescedSignatures);
        metrics = {
            {"counters.collect_signature_us",
             layer["counters.collect_signature_us"], "us"},
            {"counters.collect_signature_calls",
             static_cast<double>(collectCalls), "count"},
            {"ml.kmeans_auto_ms", layer["ml.kmeans_auto_ms"], "ms"},
            {"ml.cfs_select_ms", layer["ml.cfs_select_ms"], "ms"},
            {"ml.c45_train_ms", layer["ml.c45_train_ms"], "ms"},
            {"core.identify_classes_ms", layer["core.identify_classes_ms"],
             "ms"},
            {"core.prepare_learning_ms", median(prepareMs), "ms"},
            {"core.learn_prepared_ms", median(finalizeMs), "ms"},
            {"core.tune_ms", layer["core.tune_ms"], "ms"},
            {"core.tuner_experiments", layer["core.tuner_experiments"],
             "count"},
            {"core.decide_from_sample_us",
             layer["core.decide_from_sample_us"], "us"},
            {"core.repo_lookups", static_cast<double>(s.repoLookups),
             "count"},
            {"core.repo_hit_ratio",
             s.repoLookups ? static_cast<double>(s.repoHits)
                     / static_cast<double>(s.repoLookups)
                           : 0.0,
             "ratio"},
            {"core.snapshot_find_ns", layer["core.snapshot_find_ns"], "ns"},
            {"sim.events", static_cast<double>(first.events), "count"},
            {"sim.events_per_s", static_cast<double>(first.events) / runSec,
             "1/s"},
            {"experiments.learn_fraction", learnSec / (learnSec + runSec),
             "ratio"},
            {"profiling.queue_delay_p50_s", first.queueDelayP50, "sim_s"},
            {"profiling.queue_delay_p99_s", first.queueDelayP99, "sim_s"},
            {"profiling.signature_slots",
             static_cast<double>(s.signatureSlots), "count"},
            {"profiling.tuner_slots", static_cast<double>(s.tunerSlots),
             "count"},
            {"profiling.coalesced_signatures",
             static_cast<double>(s.coalescedSignatures), "count"},
            {"profiling.coalesce_ratio",
             signatureDemand > 0
                 ? static_cast<double>(s.coalescedSignatures)
                     / signatureDemand
                 : 0.0,
             "ratio"},
            {"profiling.tuner_cancelled",
             static_cast<double>(s.tunerCancelled), "count"},
            {"profiling.cancelled_host_lost",
             static_cast<double>(s.cancelledHostLost), "count"},
            {"serving.encode_sample_ns", layer["serving.encode_sample_ns"],
             "ns"},
            {"serving.decode_answer_ns", layer["serving.decode_answer_ns"],
             "ns"},
            {"serving.classify_sample_ns",
             layer["serving.classify_sample_ns"], "ns"},
            {"serving.serve_ns", layer["serving.serve_ns"], "ns"},
            {"serving.direct_lookups_per_s", median(directRates), "1/s"},
            {"serving.rtt_p99_us", quantile(rttUs, 0.99), "us"},
            {"serving.cache_hit_ratio",
             t.answers ? static_cast<double>(t.hits)
                     / static_cast<double>(t.answers)
                       : 0.0,
             "ratio"},
            {"serving.unknowns", static_cast<double>(t.unknowns), "count"},
            {"serving.budget_breaches", static_cast<double>(t.breaches),
             "count"},
            {"trace.learn_s", learnSec, "s"},
            {"trace.run_s", runSec, "s"},
            {"trace.spans", static_cast<double>(tracer->spans), "count"},
        };
        std::ofstream out(runDir + "/trace.json");
        tracer->recorder.writeChromeJson(out);
        std::ofstream counts(runDir + "/layers.txt");
        for (const Metric &m : metrics)
            counts << m.name << ' ' << jsonNumber(m.value) << ' ' << m.unit
                   << '\n';
    }

    std::cout << "workload " << spec.name << " seed " << args.seed
              << (tracer ? " (traced)" : "") << ": " << rounds.size()
              << " fleet rounds, " << pipelinedRates.size()
              << " serving rounds, round trips "
              << (pinned ? "pinned to two distinct CPUs of "
                               + std::to_string(cpus.size())
                         : std::string("unpinned: fewer than two CPUs allowed"))
              << "\n";
    for (const Metric &m : metrics)
        std::cout << "  " << m.name << " = " << jsonNumber(m.value) << " "
                  << m.unit << "\n";
    for (const std::string &failure : log.failures)
        std::cout << "CHECK FAILED: " << failure << "\n";

    const std::uint64_t attempted = serving.requests + directLookups
        + rounds.size() * static_cast<std::uint64_t>(spec.services);
    std::cout << "{\"correct\": " << (log.ok() ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": 0"
              << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::cout << (i ? ", " : "") << '"' << metrics[i].name
                  << "\": {\"value\": " << jsonNumber(metrics[i].value)
                  << ", \"unit\": \"" << metrics[i].unit << "\"}";
    std::cout << "}}" << std::endl;
    return 0;
}

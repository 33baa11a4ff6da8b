// `http_mix`: the network front door under a traffic mix.
//
// An in-process HttpServer fronts a WorkflowService (nproc/2 workers of one
// kernel thread) over loopback. This process is also the load generator,
// with two threads and connections:
//   - an open-loop reader sends a seeded mix of the suite workflows at fixed
//     offered rates and fetches each result with GET /result; a request is
//     timed from its scheduled send time to the last result byte, so a
//     stall also charges the requests queued behind it;
//   - one closed-loop writer (a round at most every 50 ms) alternates
//     PUT /relation between two variants of one base relation of a
//     multi-job workflow and resubmits that workflow with X-Incremental: 1.
// It exercises what the in-process workloads bypass: HTTP parse and CSV
// encode/decode, service queueing, plan-cache hits, fingerprint reuse, and
// DFS writes beside reads.
//
// Every result is compared Table::Identical with a reference computed at
// set-up. For that to be sound no two workflows on the server's DFS may
// share a relation they write, or read one base name holding different
// data: the mix takes the suite workflows in order and leaves out each
// one that clashes with an earlier one (PageRank and SSSP both read
// vertices/edges; the Hive and Lindi TPC-H queries both write q17_result).
// The writer's relations are read by no reader.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <list>
#include <optional>
#include <map>
#include <set>
#include <thread>

#include "perfbench/layers.h"
#include "perfbench/suite.h"
#include "perfbench/workloads.h"
#include "src/base/json.h"
#include "src/base/rng.h"
#include "src/frontends/frontend.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/relational/csv.h"
#include "src/service/service.h"
#include "src/workloads/synthetic_dag.h"

namespace perfbench {

using namespace musketeer;

namespace {

// Offered reader rates (workflows/s), lowest first. The first is the rate
// latency_ms_p50/tail are reported at; sustained_wps is the achieved rate
// of the highest step whose tail latency (normalized to host speed, as
// latency_ms_tail is) stays within kTailLimitMs with no failure and a
// generator that kept to its schedule. The rates keep the two workers of
// a 4-core host at most half busy when the host runs at a third of the
// reference speed: the tail then is the heaviest workflows' own time, not
// queueing that swings with the host (overload would show as 503s from
// the full queue, which count as failed requests).
constexpr double kRates[] = {20, 30, 45, 60};
// Share of the run spent at the first rate; the others split the rest.
constexpr double kFirstStepShare = 0.5;
constexpr double kTailLimitMs = 100;
// The untraced load runs in blocks of about this length, each followed by
// a burst of host speed samples while the server is idle.
constexpr double kBlockSeconds = 2.5;
constexpr auto kRequestTimeout = std::chrono::seconds(30);
constexpr size_t kTicketRetention = 256;
// Pause between GET /status sweeps. Each poll is a round trip through the
// server's event loop; at 250 us, with a reader thread per spare core, the
// polling slowed the workers it shared the cores with, by a share that
// swung from run to run (the p50's spread over ten runs was 0.24 of it).
// A result waits half an interval for its poll on average, a few percent
// of the p50.
constexpr auto kPollInterval = std::chrono::milliseconds(1);
// The writer starts a round at most every kWriterPeriod (it still waits for
// each round's result before the next). Without the pause its ~3 ms rounds
// would saturate a worker, make up 95% of the completions and tie the
// workload's throughput and CPU per workflow to that one loop.
constexpr auto kWriterPeriod = std::chrono::milliseconds(50);
// Request ids: readers count from 1, the writer and the traced stage
// rounds get their own ranges so spans of one request share an id.
constexpr uint64_t kWriterIds = 1'000'000'000;
constexpr uint64_t kRoundIds = 2'000'000'000;
constexpr uint64_t kReaderDataSeed = 1;

struct MixWorkflow : SuiteWorkflow {
  TablePtr reference;
  double result_kb = 0;  // CSV bytes of the reference, as /result ships it
  double makespan = 0;
};

// The writer's workflow: a 40-operator synthetic DAG over syn0..syn3 whose
// WHILE blocks make it several jobs (11 at the default size), and two
// variants of syn0 (the second appends 5% more rows), so an incremental
// resubmit recomputes the jobs downstream of syn0 and reuses the rest.
struct WriterWorkflow {
  WorkflowSpec spec;
  std::string language = "beer";
  std::string result_relation;
  std::string relation = "syn0";
  TableMap inputs;  // holds variant 0 of `relation`
  TablePtr variants[2];
  TablePtr references[2];
  size_t jobs = 0;
  double makespan = 0;
};

struct MixState {
  std::vector<MixWorkflow> mix;
  std::vector<std::string> excluded;
  WriterWorkflow writer;
  // Declared in teardown order reversed: the server goes first, then the
  // service's workers, then the DFS they use.
  std::unique_ptr<Dfs> dfs;
  std::unique_ptr<WorkflowService> service;
  std::unique_ptr<HttpServer> server;
};

// Relations a workflow reads (base inputs, with the data bound to them) and
// writes (every top-level operator output).
struct RelationUse {
  std::map<std::string, const Table*> reads;
  std::set<std::string> writes;
};

StatusOr<RelationUse> UseOf(const WorkflowSpec& spec, const TableMap& inputs) {
  MUSKETEER_ASSIGN_OR_RETURN(std::unique_ptr<Dag> dag,
                             ParseWorkflow(spec.language, spec.source));
  RelationUse use;
  for (const OperatorNode& node : dag->nodes()) {
    if (node.kind == OpKind::kInput) {
      auto it = inputs.find(node.output);
      use.reads[node.output] = it == inputs.end() ? nullptr : it->second.get();
    } else {
      use.writes.insert(node.output);
    }
  }
  return use;
}

// The first relation two workflows cannot share a DFS over, or "".
std::string Clash(const RelationUse& a, const RelationUse& b) {
  for (const std::string& w : a.writes) {
    if (b.writes.count(w) > 0 || b.reads.count(w) > 0) return w;
  }
  for (const std::string& w : b.writes) {
    if (a.reads.count(w) > 0) return w;
  }
  for (const auto& [name, table] : a.reads) {
    auto it = b.reads.find(name);
    if (it != b.reads.end() && it->second != table) return name;
  }
  return "";
}

double CsvKb(const Table& table) {
  return static_cast<double>(WriteCsv(table).size()) / 1024.0;
}

WriterWorkflow MakeWriter(uint64_t seed, bool small) {
  // A fixed shape (as for dag1000), the seed relabels its keys.
  SyntheticDagSpec spec;
  spec.target_ops = small ? 12 : 40;
  spec.seed = 1;
  SyntheticDagWorkload workload = MakeSyntheticDag(spec);
  WriterWorkflow writer;
  writer.spec = {"mix-writer", FrontendLanguage::kBeer, workload.source};
  writer.result_relation = workload.result_relation;
  writer.inputs = RelabelKeys(workload, spec.key_range, SubSeed(seed, 200));
  const TablePtr& base = writer.inputs.at(writer.relation);
  auto grown = std::make_shared<Table>(*base);
  for (size_t i = 0; i < std::max<size_t>(1, base->num_rows() / 20); ++i) {
    grown->AppendRowFrom(*base, i % base->num_rows());
  }
  writer.variants[0] = base;
  writer.variants[1] = grown;
  return writer;
}

std::unique_ptr<MixState> Setup(const WorkloadArgs& args, Report* report) {
  auto state = std::make_unique<MixState>();
  std::vector<RelationUse> uses;
  // The readers' tables are the same for every seed. The workload's p50 is
  // the median of a seven-way mix, which is the latency of one workflow
  // (Netflix), and that workflow's sampled input grows or shrinks by a
  // third with the data seed. The seed drives the request order and the
  // writer's relation contents instead; the suite workload varies the
  // readers' data.
  for (const SuiteWorkflow& wf : MakeSuite(kReaderDataSeed, args.small)) {
    auto use = UseOf(wf.spec, wf.inputs);
    if (!use.ok()) {
      report->Fail(wf.name + ": " + use.status().ToString());
      continue;
    }
    std::string clash;
    for (const RelationUse& other : uses) {
      if (clash.empty()) clash = Clash(*use, other);
    }
    if (!clash.empty()) {
      state->excluded.push_back(wf.name + " (" + clash + ")");
      continue;
    }
    uses.push_back(*use);
    MixWorkflow mix{wf, nullptr, 0, 0};
    auto reference = ComputeReference(mix.spec, mix.inputs, mix.result_relation, report);
    if (!reference.ok()) {
      report->Fail(wf.name + ": " + reference.status().ToString());
      continue;
    }
    mix.result_kb = CsvKb(*reference->table);
    mix.makespan = reference->makespan;
    mix.reference =
        args.corrupt_reference ? Corrupted(reference->table) : reference->table;
    state->mix.push_back(std::move(mix));
  }

  WriterWorkflow& writer = state->writer;
  writer = MakeWriter(args.seed, args.small);
  auto writer_use = UseOf(writer.spec, writer.inputs);
  if (!writer_use.ok()) {
    report->Fail("writer: " + writer_use.status().ToString());
  } else {
    for (const RelationUse& other : uses) {
      const std::string clash = Clash(*writer_use, other);
      if (!clash.empty()) report->Fail("writer shares relation " + clash);
    }
  }
  for (int v = 0; v < 2; ++v) {
    TableMap inputs = writer.inputs;
    inputs[writer.relation] = writer.variants[v];
    auto reference =
        ComputeReference(writer.spec, inputs, writer.result_relation, report);
    if (!reference.ok()) {
      report->Fail("writer: " + reference.status().ToString());
      writer.references[v] = std::make_shared<Table>();
      continue;
    }
    writer.references[v] =
        args.corrupt_reference ? Corrupted(reference->table) : reference->table;
    writer.jobs = reference->jobs;
    if (v == 0) writer.makespan = reference->makespan;
  }

  state->dfs = std::make_unique<Dfs>();
  for (const MixWorkflow& wf : state->mix) {
    for (const auto& [name, table] : wf.inputs) state->dfs->Put(name, table);
  }
  for (const auto& [name, table] : writer.inputs) state->dfs->Put(name, table);

  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  // One kernel thread per worker (on the suite's sizes one thread per
  // workflow is also the faster setting), and workers for half the cores:
  // the other half serve the event loop, the readers and the writer. With
  // a worker per core, concurrent heavy workflows and the generator's
  // threads fight over the cores, and those runs take up to four times as
  // long, which set the tail.
  ServiceConfig config;
  config.threads = 1;
  config.num_workers = std::max(1, nproc / 2);
  config.default_options = BenchRunOptions();
  state->service = std::make_unique<WorkflowService>(state->dfs.get(), config);
  // A long-lived server holds ticket_retention finished tickets, results
  // included. At the default (4096) a run never reaches that steady state
  // and memory grows to the end of it; 256 is seconds of submissions, and
  // every result is fetched within a fraction of one.
  ServerConfig server_config;
  server_config.ticket_retention = kTicketRetention;
  state->server = std::make_unique<HttpServer>(state->service.get(), server_config);
  Status started = state->server->Start();
  if (!started.ok()) report->Fail("server start: " + started.ToString());
  return state;
}

// What one request saw.
struct Outcome {
  bool ok = false;
  bool rejected = false;  // 429/503 at submit
  double latency_ms = 0;  // scheduled send -> last result byte
  double normalized_ms = 0;  // latency_ms at the reference host's speed
  double lag_ms = 0;      // how late the generator sent it
  double queue_ms = 0;    // from the final ticket JSON
  double run_ms = 0;
  bool cache_hit = false;
  int jobs_reused = 0;
  int variant = -1;  // writer rounds: the variant the PUT stored
  const MixWorkflow* workflow = nullptr;  // reader requests
};

double NumberIn(const JsonValue& json, const char* key) {
  const JsonValue* value = json.Find(key);
  return value != nullptr && value->is_number() ? value->number_value : 0;
}

// What a request sends and what its result must equal.
struct Target {
  const WorkflowSpec& spec;
  const std::string& language;
  const std::string& result_relation;
  const TablePtr& reference;
  double result_kb;
  bool incremental;
};

void Failed(const Target& target, const std::string& why) {
  std::fprintf(stderr, "perfbench: %s: %s\n", target.spec.id.c_str(), why.c_str());
}

// POST /submit; the ticket, or nullopt with the failure recorded in `out`.
std::optional<uint64_t> Submit(NetClient* client, SpanRecorder* spans,
                               uint64_t request, const Target& target,
                               Outcome* out) {
  NetClient::SubmitOptions options;
  options.workflow_id = target.spec.id;
  options.language = target.language;
  options.incremental = target.incremental;
  StatusOr<NetClient::SubmitReply> reply = InternalError("not sent");
  {
    ScopedSpan span(spans, "net.submit", request);
    reply = client->SubmitWorkflow(options, target.spec.source);
  }
  if (!reply.ok()) {
    Failed(target, reply.status().ToString());
    return std::nullopt;
  }
  if (reply->status != 202) {
    out->rejected = reply->status == 429 || reply->status == 503;
    Failed(target, "submit answered " + std::to_string(reply->status));
    return std::nullopt;
  }
  return reply->ticket;
}

// One GET /status/<ticket>: the ticket JSON once terminal, nullopt before.
StatusOr<std::optional<JsonValue>> Poll(NetClient* client, uint64_t ticket) {
  MUSKETEER_ASSIGN_OR_RETURN(std::string body,
                             client->Get("/status/" + std::to_string(ticket)));
  MUSKETEER_ASSIGN_OR_RETURN(JsonValue json, ParseJson(body));
  const JsonValue* state = json.Find("state");
  if (state == nullptr) return InternalError("status without state: " + body);
  const std::string& s = state->string_value;
  if (s == "DONE" || s == "FAILED" || s == "REJECTED" || s == "CANCELLED") {
    return std::optional<JsonValue>(std::move(json));
  }
  return std::optional<JsonValue>();
}

// Given the terminal ticket JSON: GET /result, compare, and complete `out`
// with the latency from `due`.
void Finish(NetClient* client, SpanRecorder* spans, uint64_t request,
            const Target& target, uint64_t ticket, const JsonValue& status,
            Clock::time_point due, Outcome* out) {
  out->queue_ms = 1000.0 * NumberIn(status, "queue_seconds");
  out->run_ms = 1000.0 * NumberIn(status, "total_seconds") - out->queue_ms;
  const JsonValue* hit = status.Find("cache_hit");
  out->cache_hit = hit != nullptr && hit->bool_value;
  out->jobs_reused = static_cast<int>(NumberIn(status, "jobs_reused"));
  if (status.Find("state")->string_value != "DONE") {
    out->latency_ms = MsBetween(due, Clock::now());
    Failed(target, status.Dump());
    return;
  }
  StatusOr<TableMap> tables = InternalError("not fetched");
  {
    ScopedSpan span(spans, "net.result_fetch", request);
    tables = client->FetchResult(ticket);
  }
  out->latency_ms = MsBetween(due, Clock::now());
  if (!tables.ok()) {
    Failed(target, tables.status().ToString());
    return;
  }
  auto it = tables->find(target.result_relation);
  if (it == tables->end() || !Table::Identical(*it->second, *target.reference)) {
    Failed(target, "result differs from reference");
    return;
  }
  if (spans != nullptr) spans->Count(request, "net.result_kb", target.result_kb);
  out->ok = true;
}

// Submit -> poll -> fetch -> compare on one connection, timed from `due`.
Outcome Request(NetClient* client, SpanRecorder* spans, uint64_t request,
                const Target& target, Clock::time_point due) {
  Outcome out;
  std::optional<uint64_t> ticket = Submit(client, spans, request, target, &out);
  const auto deadline = Clock::now() + kRequestTimeout;
  int polls = 0;
  while (ticket.has_value()) {
    ++polls;
    auto status = Poll(client, *ticket);
    if (!status.ok() || Clock::now() >= deadline) {
      Failed(target, status.ok() ? "timed out" : status.status().ToString());
      break;
    }
    if (status->has_value()) {
      Finish(client, spans, request, target, *ticket, **status, due, &out);
      break;
    }
    std::this_thread::sleep_for(kPollInterval);
  }
  if (spans != nullptr) spans->Count(request, "net.status_polls_per_request", polls);
  if (!out.ok) out.latency_ms = MsBetween(due, Clock::now());
  return out;
}

Target ReaderTarget(const MixWorkflow& wf) {
  return {wf.spec, wf.language, wf.result_relation, wf.reference, wf.result_kb,
          false};
}

// One PUT of the next variant, then an incremental resubmit.
Outcome WriterRound(NetClient* client, SpanRecorder* spans, const MixState& state,
                    uint64_t round) {
  const WriterWorkflow& writer = state.writer;
  const int v = static_cast<int>(round % 2);
  const uint64_t request = kWriterIds + round;
  const Clock::time_point start = Clock::now();
  Status pushed = OkStatus();
  {
    ScopedSpan span(spans, "net.put_relation", request);
    pushed = client->PushRelation(writer.relation, *writer.variants[v]);
  }
  if (!pushed.ok()) {
    std::fprintf(stderr, "perfbench: writer PUT: %s\n", pushed.ToString().c_str());
    return Outcome{};
  }
  // Only the PUT is traced: the net.* and service.* layer metrics describe
  // the readers' requests, whose latency is the workload's end-to-end one.
  Outcome out = Request(client, nullptr, request,
                        {writer.spec, writer.language, writer.result_relation,
                         writer.references[v], 0, /*incremental=*/true},
                        start);
  out.variant = v;
  return out;
}

// Connects one client per generator thread.
std::vector<std::unique_ptr<NetClient>> Connect(const MixState& state, int count,
                                                Report* report) {
  std::vector<std::unique_ptr<NetClient>> clients;
  for (int i = 0; i < count; ++i) {
    clients.push_back(std::make_unique<NetClient>());
    Status status = clients.back()->Connect("127.0.0.1", state.server->port());
    if (!status.ok()) report->Fail("connect: " + status.ToString());
  }
  return clients;
}

// Seeded reader order: back-to-back shuffles of the mix, so every workflow
// is sent equally often whatever the run length.
std::vector<size_t> ReaderOrder(size_t mix_size, uint64_t seed, size_t length) {
  Rng rng(SubSeed(seed, 300));
  std::vector<size_t> order;
  while (order.size() < length) {
    std::vector<size_t> round(mix_size);
    for (size_t i = 0; i < mix_size; ++i) round[i] = i;
    for (size_t i = mix_size; i > 1; --i) std::swap(round[i - 1], round[rng.NextBounded(i)]);
    order.insert(order.end(), round.begin(), round.end());
  }
  return order;
}

// The readers' outcomes for one fixed offered rate.
struct Step {
  double rate = 0;
  std::vector<Outcome> outcomes;
  double seconds = 0;
};

// Open-loop readers: request i of the step is due at start + i / rate and
// goes to thread i mod readers. A thread never waits for a result before
// sending: between sends it polls every ticket it has in flight on its
// connection (sends first, whenever one is due) and fetches each result as
// its ticket turns terminal, so the offered rate does not bend to latency.
Step RunReaders(const MixState& state, const std::vector<size_t>& order,
                size_t* next, double rate, double seconds,
                std::vector<std::unique_ptr<NetClient>>* clients,
                SpanRecorder* spans) {
  struct InFlight {
    uint64_t request = 0;
    const MixWorkflow* wf = nullptr;
    Clock::time_point due;
    uint64_t ticket = 0;
    int polls = 0;
    Outcome out;
  };
  const size_t readers = clients->size();
  const size_t count = static_cast<size_t>(rate * seconds);
  const size_t first = *next;
  *next += count;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  auto due_of = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(static_cast<double>(i) / rate));
  };
  std::vector<std::vector<Outcome>> per_thread(readers);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < readers; ++t) {
    threads.emplace_back([&, t] {
      NetClient* client = (*clients)[t].get();
      std::vector<Outcome>& done = per_thread[t];
      std::list<InFlight> pending;
      size_t i = t;
      auto send_due = [&] { return i < count && due_of(i) <= Clock::now(); };
      while (i < count || !pending.empty()) {
        if (send_due()) {
          InFlight f;
          f.request = first + i + 1;
          f.wf = &state.mix[order[(first + i) % order.size()]];
          f.due = due_of(i);
          f.out.lag_ms = MsBetween(f.due, Clock::now());
          f.out.workflow = f.wf;
          i += readers;
          std::optional<uint64_t> ticket =
              Submit(client, spans, f.request, ReaderTarget(*f.wf), &f.out);
          if (ticket.has_value()) {
            f.ticket = *ticket;
            pending.push_back(std::move(f));
          } else {
            f.out.latency_ms = MsBetween(f.due, Clock::now());
            done.push_back(f.out);
          }
          continue;
        }
        bool finished_any = false;
        for (auto it = pending.begin(); it != pending.end() && !send_due();) {
          ++it->polls;
          auto status = Poll(client, it->ticket);
          const bool timed_out = Clock::now() - it->due > kRequestTimeout;
          if (status.ok() && !status->has_value() && !timed_out) {
            ++it;
            continue;
          }
          const Target target = ReaderTarget(*it->wf);
          if (status.ok() && status->has_value()) {
            Finish(client, spans, it->request, target, it->ticket, **status,
                   it->due, &it->out);
          } else {
            Failed(target, status.ok() ? "timed out" : status.status().ToString());
            it->out.latency_ms = MsBetween(it->due, Clock::now());
          }
          if (spans != nullptr) {
            spans->Count(it->request, "net.status_polls_per_request", it->polls);
          }
          done.push_back(it->out);
          it = pending.erase(it);
          finished_any = true;
        }
        if (!finished_any && !send_due()) {
          Clock::time_point wake = Clock::now() + kPollInterval;
          if (i < count) wake = pending.empty() ? due_of(i) : std::min(wake, due_of(i));
          std::this_thread::sleep_until(wake);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  Step step;
  step.rate = rate;
  step.seconds = MsBetween(start, Clock::now()) / 1000.0;
  for (auto& outcomes : per_thread) {
    step.outcomes.insert(step.outcomes.end(), outcomes.begin(), outcomes.end());
  }
  return step;
}

std::vector<double> Latencies(const std::vector<Outcome>& outcomes) {
  std::vector<double> out;
  for (const Outcome& o : outcomes) out.push_back(o.latency_ms);
  return out;
}

std::vector<double> NormalizedLatencies(const std::vector<Outcome>& outcomes) {
  std::vector<double> out;
  for (const Outcome& o : outcomes) out.push_back(o.normalized_ms);
  return out;
}

double MaxLag(const std::vector<Outcome>& outcomes) {
  double lag = 0;
  for (const Outcome& o : outcomes) lag = std::max(lag, o.lag_ms);
  return lag;
}

// The closed-loop writer, on its own thread until stopped.
class WriterLoop {
 public:
  WriterLoop(const MixState& state, NetClient* client, SpanRecorder* spans)
      : thread_([this, &state, client, spans] {
          Clock::time_point next = Clock::now();
          // Set-up's warm-up ran rounds 0 and 1.
          for (uint64_t round = 2; !stop_.load(); ++round) {
            outcomes_.push_back(WriterRound(client, spans, state, round));
            next = std::max(next + kWriterPeriod, Clock::now());
            std::this_thread::sleep_until(next);
          }
        }) {}
  ~WriterLoop() { Stop(); }
  WriterLoop(const WriterLoop&) = delete;
  WriterLoop& operator=(const WriterLoop&) = delete;

  // Stops after the round in flight; returns every round's outcome.
  const std::vector<Outcome>& Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return outcomes_;
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<Outcome> outcomes_;  // written by thread_ until joined
  std::thread thread_;
};

}  // namespace

void RunHttpMix(const WorkloadArgs& args, Report* report) {
  std::unique_ptr<MixState> state = TimedSetups<MixState>(
      [&] {
        auto state = Setup(args, report);
        // Warm-up: every workflow once over the wire, and two writer rounds
        // (both variants), so plans are cached and fingerprints recorded.
        auto clients = Connect(*state, 1, report);
        for (const MixWorkflow& wf : state->mix) {
          Outcome out = Request(clients[0].get(), nullptr, 0, ReaderTarget(wf),
                                Clock::now());
          if (!out.ok && !args.corrupt_reference) report->Fail("warm-up " + wf.name);
        }
        for (uint64_t round = 0; round < 2; ++round) {
          if (!WriterRound(clients[0].get(), nullptr, *state, round).ok &&
              !args.corrupt_reference) {
            report->Fail("warm-up writer");
          }
        }
        return state;
      },
      report);
  if (state->mix.empty()) {
    report->Fail("no reader workflow");
    return;
  }
  std::string excluded;
  for (const std::string& e : state->excluded) {
    excluded += (excluded.empty() ? "" : ", ") + JsonQuote(e);
  }
  report->Info("mix_excluded", "[" + excluded + "]");
  report->InfoNumber("mix_workflows", static_cast<double>(state->mix.size()));

  // One reader thread (it never blocks on a result, see RunReaders): more
  // of them polling at once slow the workers (see kPollInterval).
  const int readers = 1;
  auto clients = Connect(*state, readers, report);
  auto writer_client = Connect(*state, 1, report);
  double max_rate = 0;
  for (double rate : kRates) max_rate = std::max(max_rate, rate);
  const std::vector<size_t> order = ReaderOrder(
      state->mix.size(), args.seed,
      static_cast<size_t>(max_rate * (args.seconds + kBlockSeconds)) +
          state->mix.size());
  size_t next = 0;
  auto count = [&](const std::vector<Outcome>& outcomes) {
    for (const Outcome& o : outcomes) report->Attempt(o.ok);
  };

  if (!args.trace) {
    // Each step runs as blocks of about kBlockSeconds; the readers drain at
    // a block's end and the host is sampled (the writer keeps its pace).
    // A block's latencies and CPU are normalized by the samples nearest to
    // its middle.
    HostSpeed& host = report->host();
    double cpu_ms = 0;
    double raw_cpu_ms = 0;
    std::vector<Step> steps;
    WriterLoop writer(*state, writer_client[0].get(), nullptr);
    // Warm-up at the first rate, checked but not timed: the first seconds
    // of load after set-up stall now and then for tens of ms.
    count(RunReaders(*state, order, &next, kRates[0], kBlockSeconds, &clients,
                     nullptr).outcomes);
    host.Burst(kHostBurst);
    const size_t num_steps = std::size(kRates);
    for (size_t s = 0; s < num_steps; ++s) {
      const double seconds =
          args.seconds * (s == 0 ? kFirstStepShare
                                 : (1 - kFirstStepShare) / static_cast<double>(num_steps - 1));
      const int blocks = std::max(1, static_cast<int>(std::lround(seconds / kBlockSeconds)));
      Step step;
      step.rate = kRates[s];
      for (int b = 0; b < blocks; ++b) {
        const double cpu0 = CpuSeconds();
        const Clock::time_point begin = Clock::now();
        Step block = RunReaders(*state, order, &next, kRates[s], seconds / blocks,
                                &clients, nullptr);
        const Clock::time_point end = Clock::now();
        const double block_cpu_ms = 1000.0 * (CpuSeconds() - cpu0);
        host.Burst(kHostBurst);
        const double factor = host.FactorAt(begin + (end - begin) / 2);
        for (Outcome& o : block.outcomes) o.normalized_ms = o.latency_ms / factor;
        step.outcomes.insert(step.outcomes.end(), block.outcomes.begin(),
                             block.outcomes.end());
        step.seconds += block.seconds;
        cpu_ms += block_cpu_ms / factor;
        raw_cpu_ms += block_cpu_ms;
      }
      steps.push_back(std::move(step));
    }
    const std::vector<Outcome>& written = writer.Stop();

    size_t completed = 0;
    std::string sweep;
    double sustained = 0;
    for (const Step& step : steps) {
      count(step.outcomes);
      size_t ok = 0;
      for (const Outcome& o : step.outcomes) ok += o.ok ? 1 : 0;
      completed += ok;
      const Tail tail = TailOf(NormalizedLatencies(step.outcomes));
      const double lag = MaxLag(step.outcomes);
      const bool met = ok == step.outcomes.size() && tail.value <= kTailLimitMs &&
                       lag <= kTailLimitMs;
      const double achieved = static_cast<double>(ok) / step.seconds;
      if (met) sustained = achieved;
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"offered\": %g, \"achieved\": %.3f, \"p50_ms\": %.3f, "
                    "\"tail_ms\": %.3f, \"tail_percentile\": %d, \"samples\": %zu, "
                    "\"lag_ms_max\": %.3f, \"met\": %s}",
                    sweep.empty() ? "" : ", ", step.rate, achieved,
                    Median(NormalizedLatencies(step.outcomes)), tail.value, tail.percentile,
                    tail.samples, lag, met ? "true" : "false");
      sweep += buf;
    }
    count(written);
    size_t written_ok = 0;
    for (const Outcome& o : written) written_ok += o.ok ? 1 : 0;
    completed += written_ok;

    ReportLatency(NormalizedLatencies(steps[0].outcomes), Latencies(steps[0].outcomes),
                  report);
    std::string by_workflow;
    for (const MixWorkflow& wf : state->mix) {
      std::vector<double> latencies;
      for (const Outcome& o : steps[0].outcomes) {
        if (o.workflow == &wf) latencies.push_back(o.normalized_ms);
      }
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s%s: %.3f", by_workflow.empty() ? "" : ", ",
                    JsonQuote(wf.name).c_str(), Median(latencies));
      by_workflow += buf;
    }
    report->Info("latency_ms_p50_by_workflow", "{" + by_workflow + "}");
    double load_seconds = 0;
    for (const Step& step : steps) load_seconds += step.seconds;
    report->Metric("throughput_wps", static_cast<double>(completed) / load_seconds,
                   "1/s");
    report->Metric("sustained_wps", sustained, "1/s");
    const double per_wf = static_cast<double>(std::max<size_t>(completed, 1));
    report->Normalized("cpu_ms_per_wf", cpu_ms / per_wf, raw_cpu_ms / per_wf, "ms");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    double makespan = state->writer.makespan;
    for (const MixWorkflow& wf : state->mix) makespan += wf.makespan;
    report->Metric("sim_makespan_s", makespan, "sim_s");
    report->InfoString("sim_makespan_source",
                       "in-process reference runs of the mix and the writer");
    report->Info("rate_sweep", "[" + sweep + "]");
    report->InfoNumber("tail_limit_ms", kTailLimitMs);
    report->InfoNumber("writer_rounds", static_cast<double>(written.size()));
    report->InfoNumber("writer_latency_ms_p50", Median(Latencies(written)));
    return;
  }

  // Traced: the first rate in four blocks, untraced and traced in turn (the
  // writer's PUTs traced throughout), then rounds of the layer-by-layer
  // stage calls over every workflow of the mix on the server's live DFS.
  SpanRecorder spans;
  std::vector<Outcome> plain;
  std::vector<Outcome> traced;
  std::vector<Outcome> written;
  {
    WriterLoop writer(*state, writer_client[0].get(), &spans);
    for (int block = 0; block < 4; ++block) {
      const bool on = block % 2 == 1;
      Step step = RunReaders(*state, order, &next, kRates[0], args.seconds / 8,
                             &clients, on ? &spans : nullptr);
      std::vector<Outcome>& into = on ? traced : plain;
      into.insert(into.end(), step.outcomes.begin(), step.outcomes.end());
    }
    written = writer.Stop();
  }
  count(plain);
  count(traced);
  count(written);

  const Clock::time_point rounds_start = Clock::now();
  for (uint64_t round = 0;
       round == 0 || MsBetween(rounds_start, Clock::now()) < 500.0 * args.seconds;
       ++round) {
    auto run = [&](const WorkflowSpec& spec, const std::string& relation,
                   const TablePtr& reference) {
      double ms = 0;
      report->Attempt(Matches(
          TracedRun(&spans, kRoundIds + round, state->dfs.get(), spec,
                    BenchRunOptions(), &ms),
          relation, reference));
    };
    for (const MixWorkflow& wf : state->mix) run(wf.spec, wf.result_relation, wf.reference);
    // The DFS holds the variant of the writer's last PUT.
    const int variant = written.empty() ? 1 : written.back().variant;
    run(state->writer.spec, state->writer.result_relation,
        state->writer.references[std::max(variant, 0)]);
  }

  ReportLayerMetrics(spans, report);
  const SpanRecorder::Folded folded = spans.FoldByRequest();
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
  for (const Outcome& o : traced) {
    queue_ms.push_back(o.queue_ms);
    run_ms.push_back(o.run_ms);
  }
  // Cache hits and rejections over every traced submission, the writer's
  // included: its PUTs are what could invalidate a cached plan.
  size_t submissions = 0;
  size_t hits = 0;
  size_t rejected = 0;
  for (const auto* outcomes : {&traced, &written}) {
    for (const Outcome& o : *outcomes) {
      ++submissions;
      hits += o.cache_hit ? 1 : 0;
      rejected += o.rejected ? 1 : 0;
    }
  }
  report->Metric("service.queue_wait_ms_p50", Median(queue_ms), "ms");
  report->Metric("service.queue_wait_ms_tail", TailOf(queue_ms).value, "ms");
  report->Metric("service.run_ms_p50", Median(run_ms), "ms");
  report->Metric("service.plan_cache_hit_ratio",
                 static_cast<double>(hits) /
                     static_cast<double>(std::max<size_t>(submissions, 1)),
                 "ratio");
  report->Metric("service.rejected", static_cast<double>(rejected), "count");
  for (const char* name : {"net.submit", "net.result_fetch", "net.put_relation"}) {
    report->Metric(std::string(name) + "_ms", MedianPerRequest(folded, name), "ms");
  }
  report->Metric("net.result_kb", MedianPerRequest(folded, "net.result_kb"), "KB");
  report->Metric("net.status_polls_per_request",
                 MedianPerRequest(folded, "net.status_polls_per_request"), "count");
  std::vector<double> reused;
  double reused_sum = 0;
  for (const Outcome& o : written) {
    reused.push_back(o.jobs_reused);
    reused_sum += o.jobs_reused;
  }
  report->Metric("stream.jobs_reused", Median(reused), "count");
  report->Metric("stream.reuse_ratio",
                 reused_sum / static_cast<double>(std::max<size_t>(
                                  written.size() * state->writer.jobs, 1)),
                 "ratio");
  report->Metric("generator.lag_ms_max", std::max(MaxLag(plain), MaxLag(traced)),
                 "ms");
  const double plain_p50 = Median(Latencies(plain));
  report->Metric("obs.trace_overhead_pct",
                 100.0 * (Median(Latencies(traced)) - plain_p50) / plain_p50, "%");
  report->InfoNumber("queue_wait_tail_percentile", TailOf(queue_ms).percentile);
  report->InfoNumber("writer_rounds", static_cast<double>(written.size()));
  report->InfoNumber("writer_jobs", static_cast<double>(state->writer.jobs));
  if (!args.spans_out.empty() && !spans.WriteJson(args.spans_out)) {
    report->Fail("cannot write spans to " + args.spans_out);
  }
}

}  // namespace perfbench

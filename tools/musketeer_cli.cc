// musketeer — command-line workflow runner and service driver.
//
// Runs a workflow written in any of the four front-end languages against
// CSV inputs, letting Musketeer choose back-end engines (or forcing them),
// and writes result relations back to CSV. With --serve the CLI instead
// stands up the concurrent workflow service (src/service/) and pushes every
// given workflow file through its submission queue and worker pool; with
// --listen it serves the network front door (src/net/).
//
// Usage:
//   musketeer [options] <workflow-file>            one-shot run
//   musketeer [options] --serve=N <files...>       service mode, N workers
//   musketeer --help                               list every option
//
// Each option is one row of kCliOptions below, or of RunOptionRows()
// (src/core/musketeer.h) for the run options the network front door also
// takes as X-* headers. A row holds the option's name, value hint, help
// text and parser, and --help prints the rows.
//
// Example:
//   ./build/tools/musketeer --input=purchases=p.csv:uid:int,region:int,amount:double
//       --output=top_shoppers=out.csv --explain top_shopper.beer

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "src/base/options.h"
#include "src/base/parallel.h"
#include "src/base/strings.h"
#include "src/cluster/sharded_dfs.h"
#include "src/core/musketeer.h"
#include "src/net/peer_dfs.h"
#include "src/net/server.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/relational/csv.h"
#include "src/service/service.h"
#include "src/service/shard_coordinator.h"

using namespace musketeer;

namespace {

constexpr int64_t kMaxInt = std::numeric_limits<int>::max();
constexpr int64_t kMaxInt64 = std::numeric_limits<int64_t>::max();

int Fail(const std::string& message) {
  std::fprintf(stderr, "musketeer: %s\n", message.c_str());
  return 1;
}

// Input relations are parsed with the flags but loaded only after the
// storage layer (plain, sharded, or peer) is chosen.
struct CliInput {
  std::string name;
  std::string file;
  Schema schema;
};

// Everything the command line sets.
struct CliArgs {
  RunOptions options;  // also the target of RunOptionRows()
  std::optional<FrontendLanguage> language;
  std::vector<CliInput> inputs;
  std::vector<std::pair<std::string, double>> scales;
  std::vector<std::pair<std::string, std::string>> outputs;  // relation, file
  bool explain = false;
  std::string trace_out;
  std::string history_file;
  bool dump_metrics = false;
  int serve_workers = 0;  // 0 = one-shot mode
  int repeat = 1;
  size_t queue_capacity = 64;
  bool plan_cache = true;
  int listen_port = -1;  // >= 0 = network server mode (0 picks a free port)
  std::chrono::milliseconds dispatch_latency{0};
  std::chrono::milliseconds keepalive_timeout{0};  // 0 = never reaped
  std::vector<std::pair<std::string, TenantQuota>> tenant_quotas;
  int num_shards = 0;  // >= 1 = in-process sharded one-shot mode
  PlacementPolicy placement = PlacementPolicy::kLocality;
  int shard_fault = -1;
  int shard_fault_after = 0;
  int shard_of_k = -1;  // >= 0 = socket shard mode (--shard-of=K/M)
  int shard_of_m = 0;
  std::vector<PeerAddress> peer_addrs;
  bool peers_given = false;
};

// "a<sep>b" -> {a, b}, split at the first `sep`; nullopt without one.
std::optional<std::pair<std::string, std::string>> SplitAt(
    std::string_view spec, char sep) {
  size_t at = spec.find(sep);
  if (at == std::string_view::npos) {
    return std::nullopt;
  }
  return std::make_pair(std::string(spec.substr(0, at)),
                        std::string(spec.substr(at + 1)));
}

// Parses an int option into `*out`.
Status SetInt(std::string_view value, int64_t min, int64_t max,
              std::string_view what, int* out) {
  MUSKETEER_ASSIGN_OR_RETURN(int64_t n, ParseIntOption(value, min, max, what));
  *out = static_cast<int>(n);
  return OkStatus();
}

Status SetMillis(std::string_view value, std::string_view what,
                 std::chrono::milliseconds* out) {
  MUSKETEER_ASSIGN_OR_RETURN(int64_t ms,
                             ParseIntOption(value, 0, kMaxInt64, what));
  *out = std::chrono::milliseconds(ms);
  return OkStatus();
}

Status SetFileName(std::string_view value, std::string* out) {
  if (value.empty()) {
    return InvalidArgumentError("needs a file name");
  }
  *out = std::string(value);
  return OkStatus();
}

// "alice=3:8:2" -> {weight 3, max_queued 8, max_in_flight 2}. Queued and
// in-flight caps are optional (0 = unbounded beyond the global queue).
std::optional<std::pair<std::string, TenantQuota>> ParseQuotaSpec(
    std::string_view spec) {
  auto tenant = SplitAt(spec, '=');
  if (!tenant.has_value() || tenant->first.empty()) {
    return std::nullopt;
  }
  std::vector<std::string> parts = StrSplit(tenant->second, ':');
  if (parts.size() > 3) {
    return std::nullopt;
  }
  std::optional<int64_t> caps[3] = {std::nullopt, 0, 0};
  for (size_t i = 0; i < parts.size(); ++i) {
    caps[i] = ParseInt64(parts[i]);
    if (!caps[i].has_value() || *caps[i] < (i == 0 ? 1 : 0) ||
        *caps[i] > kMaxInt) {
      return std::nullopt;
    }
  }
  TenantQuota quota;
  quota.weight = static_cast<int>(*caps[0]);
  quota.max_queued = static_cast<size_t>(*caps[1]);
  quota.max_in_flight = static_cast<int>(*caps[2]);
  return std::make_pair(tenant->first, quota);
}

// The CLI's own options; the shared run options are RunOptionRows().
constexpr OptionRow<CliArgs> kCliOptions[] = {
    {"language", "beer|hive|gas|lindi",
     "front-end (default: by file extension)",
     [](std::string_view value, CliArgs* args) -> Status {
       args->language = FrontendLanguageFromName(value);
       return args->language.has_value()
                  ? OkStatus()
                  : OptionValueError(value, "one of beer|hive|gas|lindi");
     }},
    {"input", "NAME=FILE:SCHEMA",
     "input relation; SCHEMA is col:TYPE,...\n"
     "with TYPE int|double|string, e.g.\n"
     "--input=prices=prices.csv:id:int,price:double",
     [](std::string_view value, CliArgs* args) -> Status {
       auto named = SplitAt(value, '=');
       auto file =
           named.has_value() ? SplitAt(named->second, ':') : std::nullopt;
       auto schema = file.has_value() ? ParseSchemaSpec(file->second)
                                      : std::nullopt;
       if (!schema.has_value()) {
         return OptionValueError(value, "NAME=FILE:SCHEMA");
       }
       args->inputs.push_back({named->first, file->first, std::move(*schema)});
       return OkStatus();
     }},
    {"scale", "NAME=FACTOR",
     "treat NAME as FACTOR x larger than its\n"
     "sample (simulated nominal size)",
     [](std::string_view value, CliArgs* args) -> Status {
       auto named = SplitAt(value, '=');
       auto factor = ParseRealOption(
           named.has_value() ? named->second : std::string(), 0,
           std::numeric_limits<double>::max(), "");
       if (!factor.ok() || *factor == 0) {
         return OptionValueError(value, "NAME=FACTOR with a finite FACTOR > 0");
       }
       args->scales.emplace_back(named->first, *factor);
       return OkStatus();
     }},
    {"cluster", "local|single|ec2:N", "cluster model (default: local)",
     [](std::string_view value, CliArgs* args) -> Status {
       if (value == "local") {
         args->options.cluster = LocalCluster();
       } else if (value == "single") {
         args->options.cluster = SingleMachine();
       } else if (auto n = StartsWith(value, "ec2:")
                               ? ParseInt64(value.substr(4))
                               : std::nullopt;
                  n.has_value() && *n >= 1 && *n <= kMaxInt) {
         args->options.cluster = Ec2Cluster(static_cast<int>(*n));
       } else {
         return OptionValueError(value, "local, single or ec2:N with N >= 1");
       }
       return OkStatus();
     }},
    {"engines", "naiad,hadoop,...", "restrict engine choice (default: all)",
     [](std::string_view value, CliArgs* args) -> Status {
       for (const std::string& name : StrSplit(value, ',')) {
         auto kind = EngineKindFromName(name);
         if (!kind.has_value()) {
           return OptionValueError(name, "engine names like naiad,hadoop");
         }
         args->options.engines.push_back(*kind);
       }
       return OkStatus();
     }},
    {"output", "NAME=FILE", "write relation NAME to FILE as CSV",
     [](std::string_view value, CliArgs* args) -> Status {
       auto named = SplitAt(value, '=');
       if (!named.has_value()) {
         return OptionValueError(value, "NAME=FILE");
       }
       args->outputs.push_back(std::move(*named));
       return OkStatus();
     }},
    {"threads", "N",
     "intra-query data-plane parallelism\n"
     "(default: MUSKETEER_THREADS env, else\n"
     "hardware concurrency)",
     [](std::string_view value, CliArgs*) -> Status {
       int threads = 0;
       MUSKETEER_RETURN_IF_ERROR(
           SetInt(value, 1, kMaxInt, "a thread count >= 1", &threads));
       SetParallelThreads(threads);
       return OkStatus();
     }},
    {"explain", "", "also print IR, partitioning & job code",
     [](std::string_view, CliArgs* args) -> Status {
       args->explain = true;
       return OkStatus();
     }},
    {"trace-out", "FILE",
     "write a Chrome trace_event JSON file\n"
     "(load in chrome://tracing / Perfetto)",
     [](std::string_view value, CliArgs* args) -> Status {
       return SetFileName(value, &args->trace_out);
     }},
    {"metrics", "", "dump the metrics registry on exit",
     [](std::string_view, CliArgs* args) -> Status {
       args->dump_metrics = true;
       return OkStatus();
     }},
    {"history-file", "FILE",
     "load relation-size history before the\n"
     "run and save it back after (JSON)",
     [](std::string_view value, CliArgs* args) -> Status {
       return SetFileName(value, &args->history_file);
     }},
    {"max-retries", "N", "per-engine retries per job",
     [](std::string_view value, CliArgs* args) -> Status {
       int retries = 0;
       MUSKETEER_RETURN_IF_ERROR(
           SetInt(value, 0, kMaxInt - 1, "a count >= 0", &retries));
       args->options.retry.max_attempts = retries + 1;
       return OkStatus();
     }},
    {"fault-rate", "F", "seeded fault-injection probability",
     [](std::string_view value, CliArgs* args) -> Status {
       MUSKETEER_ASSIGN_OR_RETURN(
           args->options.fault_rate,
           ParseRealOption(value, 0, 1, "a probability in [0, 1]"));
       return OkStatus();
     }},
    {"fault-seed", "S", "fault-injection seed",
     [](std::string_view value, CliArgs* args) -> Status {
       MUSKETEER_ASSIGN_OR_RETURN(
           int64_t seed,
           ParseIntOption(value, std::numeric_limits<int64_t>::min(),
                          kMaxInt64, "an integer"));
       args->options.fault_seed = static_cast<uint64_t>(seed);
       return OkStatus();
     }},
    {"no-failover", "", "disable cross-engine failover",
     [](std::string_view, CliArgs* args) -> Status {
       args->options.retry.enable_failover = false;
       return OkStatus();
     }},
    {"serve", "N",
     "run a workflow service with N workers;\n"
     "every positional file is submitted",
     [](std::string_view value, CliArgs* args) -> Status {
       return SetInt(value, 1, kMaxInt, "a worker count >= 1",
                     &args->serve_workers);
     }},
    {"repeat", "K", "service mode: submit each file K times",
     [](std::string_view value, CliArgs* args) -> Status {
       return SetInt(value, 1, kMaxInt, "a count >= 1", &args->repeat);
     }},
    {"queue", "CAP", "service mode: submission queue bound",
     [](std::string_view value, CliArgs* args) -> Status {
       MUSKETEER_ASSIGN_OR_RETURN(
           int64_t cap, ParseIntOption(value, 1, kMaxInt64, "a capacity >= 1"));
       args->queue_capacity = static_cast<size_t>(cap);
       return OkStatus();
     }},
    {"no-plan-cache", "", "service mode: disable the plan cache",
     [](std::string_view, CliArgs* args) -> Status {
       args->plan_cache = false;
       return OkStatus();
     }},
    {"listen", "PORT",
     "serve HTTP + line protocol (0 = any free\n"
     "port); compose with --serve=N for the\n"
     "worker count; Ctrl-C drains and exits",
     [](std::string_view value, CliArgs* args) -> Status {
       return SetInt(value, 0, 65535, "a port in [0, 65535] (0 = ephemeral)",
                     &args->listen_port);
     }},
    {"quota", "TENANT=W[:QUEUED[:INFLIGHT]]",
     "fair-share weight and queued/in-flight\n"
     "caps of one tenant",
     [](std::string_view value, CliArgs* args) -> Status {
       auto quota = ParseQuotaSpec(value);
       if (!quota.has_value()) {
         return OptionValueError(value,
                                 "TENANT=WEIGHT[:MAX_QUEUED[:MAX_INFLIGHT]]");
       }
       args->tenant_quotas.push_back(std::move(*quota));
       return OkStatus();
     }},
    {"keepalive-timeout-ms", "N",
     "close idle keep-alive connections after\n"
     "N ms; 0 = never, the default",
     [](std::string_view value, CliArgs* args) -> Status {
       return SetMillis(value, "a timeout >= 0 (0 = off)",
                        &args->keepalive_timeout);
     }},
    {"dispatch-latency-ms", "N",
     "simulated per-job engine dispatch wait\n"
     "in service/listen mode",
     [](std::string_view value, CliArgs* args) -> Status {
       return SetMillis(value, "a wait >= 0", &args->dispatch_latency);
     }},
    {"shards", "M",
     "one-shot across M in-process DFS shards\n"
     "(locality-aware placement; outputs are\n"
     "bit-identical to --shards=1 at any M)",
     [](std::string_view value, CliArgs* args) -> Status {
       return SetInt(value, 1, 64, "a shard count in [1, 64]",
                     &args->num_shards);
     }},
    {"placement", "locality|random", "shard placement policy",
     [](std::string_view value, CliArgs* args) -> Status {
       auto policy = PlacementPolicyFromName(std::string(value));
       if (!policy.has_value()) {
         return OptionValueError(value, "locality or random");
       }
       args->placement = *policy;
       return OkStatus();
     }},
    {"shard-fault", "SHARD@N",
     "kill SHARD's compute after N job\n"
     "dispatches; its data stays readable",
     [](std::string_view value, CliArgs* args) -> Status {
       auto parts = SplitAt(value, '@');
       if (!parts.has_value() ||
           !SetInt(parts->first, 0, kMaxInt, "", &args->shard_fault).ok() ||
           !SetInt(parts->second, 0, kMaxInt, "", &args->shard_fault_after)
                .ok()) {
         return OptionValueError(value, "SHARD@DISPATCHES");
       }
       return OkStatus();
     }},
    {"shard-of", "K/M",
     "serve shard K of an M-process cluster;\n"
     "compose with --listen and --peers",
     [](std::string_view value, CliArgs* args) -> Status {
       auto parts = SplitAt(value, '/');
       if (!parts.has_value() ||
           !SetInt(parts->second, 1, kMaxInt, "", &args->shard_of_m).ok() ||
           !SetInt(parts->first, 0, args->shard_of_m - 1, "",
                   &args->shard_of_k)
                .ok()) {
         return OptionValueError(value, "K/M with 0 <= K < M");
       }
       return OkStatus();
     }},
    {"peers", "H:P,...",
     "one host:port per shard, '-' for this\n"
     "process's slot; each process loads only\n"
     "the --input relations its shard owns",
     [](std::string_view value, CliArgs* args) -> Status {
       auto parsed = ParsePeerList(std::string(value));
       if (!parsed.has_value()) {
         return OptionValueError(value,
                                 "host:port,host:port,... ('-' = own slot)");
       }
       args->peer_addrs = std::move(*parsed);
       args->peers_given = true;
       return OkStatus();
     }},
};

void PrintUsage() {
  std::printf("usage: musketeer [options] <workflow-file>\n"
              "       musketeer [options] --serve=N <workflow-files...>\n"
              "%s%s%s",
              OptionUsageLine("help", "", "print this text").c_str(),
              OptionUsage<CliArgs>(kCliOptions).c_str(),
              OptionUsage(RunOptionRows()).c_str());
}

// Infers the front-end language for `path` from --language or the extension.
std::optional<FrontendLanguage> LanguageForFile(
    const std::string& path, std::optional<FrontendLanguage> forced) {
  if (forced.has_value()) {
    return forced;
  }
  size_t dot = path.rfind('.');
  if (dot == std::string::npos) {
    return std::nullopt;
  }
  return FrontendLanguageFromName(path.substr(dot + 1));
}

std::optional<WorkflowSpec> LoadWorkflowFile(
    const std::string& path, std::optional<FrontendLanguage> forced) {
  auto language = LanguageForFile(path, forced);
  if (!language.has_value()) {
    return std::nullopt;
  }
  std::ifstream in(path);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  WorkflowSpec spec;
  spec.id = path;
  spec.language = *language;
  spec.source = buf.str();
  return spec;
}

// The workflow service both service modes (--serve, --listen) stand up.
ServiceConfig MakeServiceConfig(const CliArgs& args, int workers,
                                const RunOptions& options,
                                HistoryStore* history) {
  ServiceConfig config;
  config.num_workers = workers;
  config.queue_capacity = args.queue_capacity;
  config.plan_cache_capacity = args.plan_cache ? 128 : 0;
  config.dispatch_latency = args.dispatch_latency;
  config.default_options = options;
  config.default_options.history = history;
  config.tenant_quotas = args.tenant_quotas;
  return config;
}

// SIGINT/SIGTERM set a flag; the listen loop polls it so shutdown runs on
// the main thread (HttpServer::Shutdown is not async-signal-safe).
std::atomic<bool> g_stop_requested{false};

void HandleStopSignal(int) { g_stop_requested.store(true); }

// Listen mode: stand up the workflow service plus the network front door
// and serve until SIGINT/SIGTERM. Any positional workflow files are
// submitted once at startup (a warm-up batch); remote clients then submit
// over HTTP or the line protocol.
int RunListen(Dfs* dfs, const std::vector<std::string>& paths,
              const CliArgs& args, const ServiceConfig& config) {
  WorkflowService service(dfs, config);

  for (const std::string& path : paths) {
    auto spec = LoadWorkflowFile(path, args.language);
    if (!spec.has_value()) {
      return Fail("cannot load workflow '" + path +
                  "' (missing file or unknown language)");
    }
    service.SubmitBlocking(std::move(*spec));
  }

  ServerConfig server_config;
  server_config.port = static_cast<uint16_t>(args.listen_port);
  server_config.keepalive_timeout = args.keepalive_timeout;
  HttpServer server(&service, server_config);
  Status started = server.Start();
  if (!started.ok()) {
    return Fail("listen failed: " + started.ToString());
  }
  std::printf("musketeer: listening on 127.0.0.1:%u (%d worker(s)); "
              "Ctrl-C to drain and exit\n",
              server.port(), config.num_workers);
  std::fflush(stdout);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (!g_stop_requested.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  // Cooperative shutdown: stop accepting + flush connections, then drain
  // the worker pool so accepted work still settles.
  std::printf("musketeer: shutting down...\n");
  server.Shutdown();
  service.Shutdown();
  ServiceStats stats = service.stats();
  std::printf("%llu submitted, %llu done, %llu failed, %llu rejected, "
              "%llu cancelled\n",
              (unsigned long long)stats.submitted,
              (unsigned long long)stats.completed,
              (unsigned long long)stats.failed,
              (unsigned long long)stats.rejected,
              (unsigned long long)stats.cancelled);
  return stats.failed == 0 ? 0 : 1;
}

// Service mode: submit every workflow file `repeat` times through the
// concurrent service and report per-submission status plus throughput.
int RunServe(Dfs* dfs, const std::vector<std::string>& paths,
             const CliArgs& args, const ServiceConfig& config) {
  std::vector<WorkflowSpec> specs;
  for (const std::string& path : paths) {
    auto spec = LoadWorkflowFile(path, args.language);
    if (!spec.has_value()) {
      return Fail("cannot load workflow '" + path +
                  "' (missing file or unknown language)");
    }
    specs.push_back(std::move(*spec));
  }

  WorkflowService service(dfs, config);

  const auto start = std::chrono::steady_clock::now();
  std::vector<WorkflowHandle> handles;
  for (int r = 0; r < args.repeat; ++r) {
    for (const WorkflowSpec& spec : specs) {
      handles.push_back(service.SubmitBlocking(spec));
    }
  }
  service.Drain();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::printf("%-28s %-9s %10s %10s %10s %6s\n", "workflow", "state",
              "sim (s)", "queue (ms)", "total (ms)", "cache");
  for (const WorkflowHandle& h : handles) {
    char sim[32] = "-";
    if (h->state() == WorkflowState::kDone) {
      std::snprintf(sim, sizeof(sim), "%.1f", h->result()->makespan);
    }
    std::printf("%-28s %-9s %10s %10.2f %10.2f %6s\n", h->spec().id.c_str(),
                WorkflowStateName(h->state()), sim, h->queue_seconds() * 1e3,
                h->total_seconds() * 1e3, h->plan_cache_hit() ? "hit" : "miss");
  }
  for (const WorkflowHandle& h : handles) {
    if (!h->result().ok() && h->state() != WorkflowState::kQueued) {
      std::fprintf(stderr, "%s: %s\n", h->spec().id.c_str(),
                   h->result().status().ToString().c_str());
    }
  }
  ServiceStats stats = service.stats();
  std::printf(
      "\n%llu submitted, %llu done, %llu failed, %llu rejected; "
      "plan cache %llu hit / %llu miss\n",
      (unsigned long long)stats.submitted, (unsigned long long)stats.completed,
      (unsigned long long)stats.failed, (unsigned long long)stats.rejected,
      (unsigned long long)stats.plan_cache_hits,
      (unsigned long long)stats.plan_cache_misses);
  std::printf("%d worker(s): %zu submissions in %.3f s = %.1f submissions/s\n",
              config.num_workers, handles.size(), elapsed,
              elapsed > 0 ? handles.size() / elapsed : 0.0);
  return stats.failed == 0 && stats.rejected == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  std::vector<std::string> workflow_paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    }
    std::optional<Status> applied = ApplyFlag<CliArgs>(kCliOptions, arg, &args);
    if (!applied.has_value()) {
      applied = ApplyFlag(RunOptionRows(), arg, &args.options);
    }
    if (applied.has_value()) {
      if (!applied->ok()) {
        return Fail(applied->message());
      }
      continue;
    }
    if (StartsWith(arg, "--")) {
      PrintUsage();
      return Fail("unknown option " + arg);
    }
    workflow_paths.push_back(arg);
  }
  if (workflow_paths.empty() && args.listen_port < 0) {
    PrintUsage();
    return Fail("no workflow file given");
  }
  if (args.listen_port < 0 && args.serve_workers == 0 &&
      workflow_paths.size() > 1) {
    return Fail("multiple workflow files need --serve=N");
  }
  if (args.num_shards > 0 && args.shard_of_k >= 0) {
    return Fail("--shards (in-process) and --shard-of (socket) are exclusive");
  }
  if (args.num_shards > 0 &&
      (args.serve_workers > 0 || args.listen_port >= 0)) {
    return Fail("--shards is a one-shot mode; use --shard-of for servers");
  }
  if (args.shard_of_k >= 0) {
    if (args.listen_port < 0) {
      return Fail("--shard-of needs --listen=PORT (peers fetch relations "
                  "over the front door)");
    }
    if (!args.peers_given ||
        static_cast<int>(args.peer_addrs.size()) != args.shard_of_m) {
      return Fail("--shard-of=K/M needs --peers with exactly M entries");
    }
  } else if (args.peers_given) {
    return Fail("--peers only makes sense with --shard-of=K/M");
  }

  // Stand up the chosen storage layer, then load inputs into it.
  Dfs plain_dfs;
  std::unique_ptr<ShardedDfs> sharded_dfs;
  std::unique_ptr<PeerDfs> peer_dfs;
  Dfs* dfs = &plain_dfs;
  if (args.num_shards > 0) {
    sharded_dfs = std::make_unique<ShardedDfs>(args.num_shards);
    dfs = sharded_dfs.get();
  } else if (args.shard_of_k >= 0) {
    peer_dfs = std::make_unique<PeerDfs>(args.shard_of_k, args.shard_of_m,
                                         std::move(args.peer_addrs));
    dfs = peer_dfs.get();
  }

  for (const CliInput& input : args.inputs) {
    if (peer_dfs != nullptr &&
        peer_dfs->OwnerOf(input.name) != args.shard_of_k) {
      continue;  // another process in the cluster owns (and loads) this one
    }
    auto table = LoadCsvFile(input.file, input.schema);
    if (!table.ok()) {
      return Fail("loading " + input.file + ": " + table.status().ToString());
    }
    dfs->Put(input.name, std::make_shared<Table>(std::move(table).value()));
  }

  // Apply nominal scales.
  for (const auto& [name, factor] : args.scales) {
    if (peer_dfs != nullptr && peer_dfs->OwnerOf(name) != args.shard_of_k) {
      continue;  // the owning process applies this relation's scale
    }
    auto table = dfs->Get(name);
    if (!table.ok()) {
      return Fail("--scale names unknown input '" + name + "'");
    }
    auto scaled = std::make_shared<Table>(**table);
    scaled->set_scale(factor);
    dfs->Put(name, scaled);
  }

  HistoryStore history;
  if (!args.history_file.empty()) {
    Status loaded = history.LoadFrom(args.history_file);
    if (!loaded.ok()) {
      return Fail("loading " + args.history_file + ": " + loaded.ToString());
    }
  }
  RuntimeHistory runtime_history;
  if (!args.trace_out.empty()) {
    Tracer::Global().Enable(true);
  }

  // Observability epilogue shared by both modes: flush the trace, persist
  // history, dump metrics.
  auto epilogue = [&](int exit_code) {
    if (!args.trace_out.empty()) {
      Status written = Tracer::Global().WriteChromeTrace(args.trace_out);
      if (!written.ok()) {
        return Fail(written.ToString());
      }
      std::printf("wrote %zu trace span(s) to %s\n",
                  Tracer::Global().span_count(), args.trace_out.c_str());
    }
    if (!args.history_file.empty()) {
      Status saved = history.SaveTo(args.history_file);
      if (!saved.ok()) {
        return Fail(saved.ToString());
      }
    }
    if (args.dump_metrics) {
      std::printf("--- metrics ---\n%s",
                  MetricsRegistry::Global().DumpText().c_str());
    }
    return exit_code;
  };

  RunOptions options = args.options;
  if (!args.history_file.empty()) {
    options.history = &history;
  }
  options.runtime_history = &runtime_history;
  // One process, one fingerprint store: one-shot runs record into it (a
  // --repeat'd or resubmitted workflow in --serve/--listen mode instead uses
  // the service-owned store, plumbed when options.fingerprints stays null).
  FingerprintStore fingerprints;

  if (args.listen_port >= 0) {
    if (peer_dfs != nullptr) {
      std::printf("musketeer: serving shard %d of %d (%s partitioning)\n",
                  args.shard_of_k, args.shard_of_m,
                  ShardingStrategyName(ShardingStrategy::kConsistentHash));
    }
    return epilogue(RunListen(
        dfs, workflow_paths, args,
        MakeServiceConfig(args, args.serve_workers > 0 ? args.serve_workers : 4,
                          options, &history)));
  }
  if (args.serve_workers > 0) {
    return epilogue(RunServe(
        dfs, workflow_paths, args,
        MakeServiceConfig(args, args.serve_workers, options, &history)));
  }

  // One-shot from here on: record fingerprints into the process-local store
  // so an --incremental run of a multi-sink workflow can reuse within itself.
  options.fingerprints = &fingerprints;

  const std::string& workflow_path = workflow_paths[0];
  auto loaded = LoadWorkflowFile(workflow_path, args.language);
  if (!loaded.has_value()) {
    return Fail("cannot load workflow '" + workflow_path +
                "' (missing file, or pass --language=)");
  }
  WorkflowSpec workflow = std::move(*loaded);

  Musketeer m(dfs);

  if (args.explain) {
    auto dag = m.Lower(workflow, /*optimize=*/true);
    if (!dag.ok()) {
      return Fail(dag.status().ToString());
    }
    std::printf("--- optimized IR (%d operators) ---\n%s\n",
                (*dag)->TotalOperatorCount(), (*dag)->DebugString().c_str());
  }

  // Sharded one-shot: the plan fans out across the coordinator's shards
  // instead of executing inline. Results are Table::Identical either way.
  std::unique_ptr<ShardCoordinator> coordinator;
  if (sharded_dfs != nullptr) {
    CoordinatorConfig coord_config;
    coord_config.placement = args.placement;
    coord_config.fault_shard = args.shard_fault;
    coord_config.fault_after_dispatches = args.shard_fault_after;
    coord_config.default_options = options;
    coordinator =
        std::make_unique<ShardCoordinator>(sharded_dfs.get(), coord_config);
  }

  auto result = coordinator != nullptr ? coordinator->Run(workflow, options)
                                       : m.Run(workflow, options);
  if (!result.ok()) {
    return Fail(result.status().ToString());
  }

  std::printf("%zu job(s), %.1f simulated seconds on %s (%s partitioner%s):\n",
              result->plans.size(), result->makespan,
              options.cluster.name.c_str(),
              result->partition_strategy.c_str(),
              result->replans > 0
                  ? (", " + std::to_string(result->replans) + " replan(s)")
                        .c_str()
                  : "");
  for (size_t i = 0; i < result->plans.size(); ++i) {
    std::printf("  job %zu: %s (%.1f s)\n", i + 1,
                result->plans[i].name.c_str(),
                result->job_results[i].makespan);
  }
  if (result->jobs_reused > 0) {
    std::printf("incremental: %d job(s) reused\n", result->jobs_reused);
  }
  if (result->total_faults_injected > 0 || result->total_retries > 0 ||
      result->total_failovers > 0) {
    std::printf("fault tolerance: %d injected fault(s), %d retry(ies), "
                "%d failover(s)\n",
                result->total_faults_injected, result->total_retries,
                result->total_failovers);
    for (const JobRecovery& rec : result->recovery) {
      if (rec.attempts > 1 || rec.failovers > 0) {
        std::printf("  %s: %d attempt(s), %s -> %s\n", rec.job.c_str(),
                    rec.attempts, EngineKindName(rec.planned_engine),
                    EngineKindName(rec.final_engine));
      }
    }
  }
  if (coordinator != nullptr) {
    const CoordinatorStats cs = coordinator->stats();
    std::string per_shard;
    for (uint64_t jobs : cs.jobs_per_shard) {
      if (!per_shard.empty()) per_shard += " ";
      per_shard += std::to_string(jobs);
    }
    std::printf("sharding: %d shard(s), jobs [%s], placement %s, "
                "locality %llu/%llu\n",
                coordinator->num_shards(), per_shard.c_str(),
                PlacementPolicyName(args.placement),
                (unsigned long long)cs.locality_hits,
                (unsigned long long)cs.placements);
    std::printf("          %llu cross-shard fetch(es), %.2f MB at "
                "%.1f MB/s measured\n",
                (unsigned long long)cs.remote_fetches,
                cs.remote_bytes_fetched / kMB, cs.measured_remote_mbps);
    if (cs.shard_failovers > 0) {
      std::printf("          %llu shard failover(s)\n",
                  (unsigned long long)cs.shard_failovers);
    }
  }
  if (args.explain) {
    for (const JobPlan& plan : result->plans) {
      std::printf("\n--- %s ---\n%s", plan.name.c_str(),
                  plan.generated_code.c_str());
    }
  }

  for (const auto& [relation, file] : args.outputs) {
    auto table = dfs->Get(relation);
    if (!table.ok()) {
      return Fail("workflow produced no relation '" + relation + "'");
    }
    Status saved = SaveCsvFile(**table, file);
    if (!saved.ok()) {
      return Fail(saved.ToString());
    }
    std::printf("wrote %s (%zu rows) to %s\n", relation.c_str(),
                (*table)->num_rows(), file.c_str());
  }

  // Without --output, show the sink relations inline.
  if (args.outputs.empty()) {
    for (const auto& [name, table] : result->outputs) {
      std::printf("\n%s:\n%s", name.c_str(), table->DebugString(10).c_str());
    }
  }
  return epilogue(0);
}

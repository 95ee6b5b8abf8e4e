// selcli — command-line front end for the sel library.
//
//   selcli gen-data <power|forest|census|dmv|uniform:D> <rows> <out.csv>
//          [seed]
//   selcli gen-workload <data.csv> <count> <out.csv>
//          [box|ball|halfspace] [data|random|gaussian] [seed]
//   selcli train <workload.csv> <model.out> [<estimator-spec>]
//   selcli compile <model.in> <plan.out>
//   selcli evaluate <model.out> <workload.csv>
//   selcli estimate <model.out> <schema-a,b,c> "<predicate>"
//   selcli estimators
//   selcli stats <workload.csv> [<estimator-spec>] [<metrics-out.csv>]
//          [--json]
//   selcli online <workload.csv> [<estimator-spec>] [--rollback]
//   selcli serve <workload.csv> [<estimator-spec>] [--port <p>]
//   selcli query <host:port> <schema-a,b,c> "<predicate>"
//          [--feedback <truth>]
//   selcli query <host:port> --stats | --ping
//
// Estimators come from the EstimatorRegistry; `<estimator-spec>` is a
// registry spec string such as "quadhist:tau=0.002" (run
// `selcli estimators` for the full table). The full loop: capture a
// query log as a workload CSV, train offline, ship the model file,
// evaluate or answer ad-hoc WHERE predicates. `compile` lowers a
// trained model file to its flat CompiledPlan serving form (DESIGN.md
// §11) — the plan file loads like any model and serves without the
// training-side code. `stats` runs a train-and-predict pass with the
// metrics registry enabled and dumps every counter/gauge/histogram it
// produced (see DESIGN.md §10). `online` replays a labeled workload
// through the feedback loop with quality-gated publication (DESIGN.md
// §13) and reports the accept/reject counters; `--rollback` finishes by
// republishing the previous last-good snapshot — the operator escape
// hatch exercised end to end. `serve` hosts an OnlineEstimator behind
// the TCP frame protocol (DESIGN.md §14) until SIGINT/SIGTERM, then
// drains gracefully; `query` is its command-line peer.
#include <csignal>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "sel/sel.h"
#include "workload/workload_io.h"

// Maps a Status to process exit inside command handlers (relies on the
// enclosing scope's Fail()).
#define SEL_RETURN_STATUS_AS_EXIT(expr)      \
  do {                                       \
    ::sel::Status _st = (expr);              \
    if (!_st.ok()) return Fail(_st);         \
  } while (0)

namespace sel {

std::string JoinNames(const std::vector<std::string>& names,
                      const char* sep) {
  std::string joined;
  for (const auto& n : names) {
    if (!joined.empty()) joined += sep;
    joined += n;
  }
  return joined;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  selcli gen-data <name> <rows> <out.csv> [seed]\n"
      "  selcli gen-workload <data.csv> <count> <out.csv> "
      "[box|ball|halfspace] [data|random|gaussian] [seed]\n"
      "  selcli train <workload.csv> <model.out> [<estimator-spec>]\n"
      "  selcli compile <model.in> <plan.out>\n"
      "  selcli evaluate <model.out> <workload.csv>\n"
      "  selcli estimate <model.out> <schema-a,b,c> \"<predicate>\"\n"
      "  selcli estimators\n"
      "  selcli stats <workload.csv> [<estimator-spec>] "
      "[<metrics-out.csv>] [--json]\n"
      "  selcli online <workload.csv> [<estimator-spec>] [--rollback]\n"
      "  selcli serve <workload.csv> [<estimator-spec>] [--port <p>]\n"
      "  selcli query <host:port> <schema-a,b,c> \"<predicate>\" "
      "[--feedback <truth>]\n"
      "  selcli query <host:port> --stats | --ping\n"
      "\n"
      "estimator specs are \"name[:key=value,...]\", e.g. "
      "\"quadhist:tau=0.002\";\n"
      "registered estimators: %s\n",
      JoinNames(EstimatorRegistry::Global().Names(), "|").c_str());
  return 2;
}

int Estimators() {
  const EstimatorRegistry& reg = EstimatorRegistry::Global();
  std::printf("%-14s %-18s %-14s %-5s %s\n", "name", "model", "paper",
              "save", "options");
  for (const std::string& name : reg.Names()) {
    const EstimatorRegistry::Entry* e = reg.Find(name);
    std::printf("%-14s %-18s %-14s %-5s %s\n", name.c_str(),
                e->display_name.c_str(), e->paper_section.c_str(),
                e->save ? "yes" : "no", e->options_summary.c_str());
  }
  return 0;
}

/// Exit-code map: scripts can tell "bad input" (3) from "corrupt file"
/// (10) without scraping stderr. Usage errors exit 2 (see Usage()).
int ExitCodeFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return 0;
    case StatusCode::kInvalidArgument: return 3;
    case StatusCode::kFailedPrecondition: return 4;
    case StatusCode::kNotFound: return 5;
    case StatusCode::kOutOfRange: return 6;
    case StatusCode::kNotConverged: return 7;
    case StatusCode::kUnimplemented: return 8;
    case StatusCode::kInternal: return 9;
    case StatusCode::kIOError: return 10;
  }
  return 1;
}

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return ExitCodeFor(st.code());
}

int GenData(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string name = argv[0];
  const size_t rows = std::strtoull(argv[1], nullptr, 10);
  const std::string out = argv[2];
  const uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 7000;
  if (rows == 0) return Usage();
  auto data = MakeDatasetByName(name, rows, seed);
  if (!data.ok()) return Fail(data.status());
  const Status st = SaveDatasetCsv(data.value(), out);
  if (!st.ok()) return Fail(st);
  std::printf("wrote %zu rows x %d attrs to %s\n", data.value().num_rows(),
              data.value().dim(), out.c_str());
  return 0;
}

int GenWorkload(int argc, char** argv) {
  if (argc < 3) return Usage();
  auto data = LoadDatasetCsv(argv[0]);
  if (!data.ok()) return Fail(data.status());
  const size_t count = std::strtoull(argv[1], nullptr, 10);
  const std::string out = argv[2];
  WorkloadOptions opts;
  if (argc > 3) {
    const std::string t = argv[3];
    if (t == "box") {
      opts.query_type = QueryType::kBox;
    } else if (t == "ball") {
      opts.query_type = QueryType::kBall;
    } else if (t == "halfspace") {
      opts.query_type = QueryType::kHalfspace;
    } else {
      return Usage();
    }
  }
  if (argc > 4) {
    const std::string c = argv[4];
    if (c == "data") {
      opts.centers = CenterDistribution::kDataDriven;
    } else if (c == "random") {
      opts.centers = CenterDistribution::kRandom;
    } else if (c == "gaussian") {
      opts.centers = CenterDistribution::kGaussian;
    } else {
      return Usage();
    }
  }
  if (argc > 5) opts.seed = std::strtoull(argv[5], nullptr, 10);
  const CountingKdTree index(data.value().rows());
  WorkloadGenerator gen(&data.value(), &index, opts);
  const Workload w = gen.Generate(count);
  const Status st = SaveWorkloadCsv(w, out);
  if (!st.ok()) return Fail(st);
  std::printf("wrote %zu labeled %s queries (%s centers) to %s\n", w.size(),
              QueryTypeName(opts.query_type),
              CenterDistributionName(opts.centers), out.c_str());
  return 0;
}

int Train(int argc, char** argv) {
  if (argc < 2) return Usage();
  auto workload = LoadWorkloadCsv(argv[0]);
  if (!workload.ok()) return Fail(workload.status());
  const Workload& w = workload.value();
  if (w.empty()) {
    return Fail(Status::InvalidArgument("workload is empty"));
  }
  const std::string out = argv[1];
  const std::string spec_string = argc > 2 ? argv[2] : "quadhist";
  const int dim = w[0].query.dim();
  const size_t n = w.size();

  auto spec = EstimatorSpec::Parse(spec_string);
  if (!spec.ok()) return Fail(spec.status());
  const EstimatorRegistry& reg = EstimatorRegistry::Global();
  const EstimatorRegistry::Entry* entry = reg.Find(spec.value().name);
  if (entry == nullptr) {
    return Fail(reg.UnknownEstimatorError(spec.value().name));
  }
  // Capability check up front: do not spend training time on a model we
  // cannot serialize afterwards.
  if (!reg.SupportsSave(spec.value().name)) {
    return Fail(Status::Unimplemented(
        "estimator '" + spec.value().name +
        "' does not support serialization; savable estimators: " +
        JoinNames(reg.SavableNames(), ", ")));
  }
  auto built = EstimatorRegistry::Build(spec.value(), dim, n);
  if (!built.ok()) return Fail(built.status());
  SelectivityModel& model = *built.value();
  {
    // SEL_TRAIN_DEADLINE_MS bounds the offline train too; on expiry the
    // solver chain degrades (the trail below says deadline_exceeded)
    // instead of running unboundedly.
    ScopedDeadline train_scope(TrainDeadlineFromEnv());
    SEL_RETURN_STATUS_AS_EXIT(model.Train(w));
  }
  std::printf("trained %s: %zu buckets, train loss %.3g, %.3fs\n",
              model.Name().c_str(), model.NumBuckets(),
              model.train_stats().train_loss,
              model.train_stats().train_seconds);
  const TrainStats& ts = model.train_stats();
  std::printf("solver: %s (fallback_level=%d%s)\n",
              ts.converged ? "converged" : "NOT converged",
              ts.fallback_level,
              ts.solver_status.empty()
                  ? ""
                  : (std::string("; ") + ts.solver_status).c_str());
  const Status save = SaveModel(model, out);
  if (!save.ok()) return Fail(save);
  std::printf("model written to %s\n", out.c_str());
  return 0;
}

int Compile(int argc, char** argv) {
  if (argc < 2) return Usage();
  auto model = LoadModel(argv[0]);
  if (!model.ok()) return Fail(model.status());
  auto compiled = PlanModel::Create(model.value()->Compile());
  if (!compiled.ok()) return Fail(compiled.status());
  const Status save = SaveModel(*compiled.value(), argv[1]);
  if (!save.ok()) return Fail(save);
  const CompiledPlan& p = *compiled.value()->shared_plan();
  std::printf("compiled %s -> plan: %zu entries (%zu box, %zu point), "
              "dim %d\nplan written to %s\n",
              argv[0], p.size(), p.num_box_entries(), p.num_point_entries(),
              p.dim(), argv[1]);
  return 0;
}

int Evaluate(int argc, char** argv) {
  if (argc < 2) return Usage();
  auto model = LoadModel(argv[0]);
  if (!model.ok()) return Fail(model.status());
  auto workload = LoadWorkloadCsv(argv[1]);
  if (!workload.ok()) return Fail(workload.status());
  auto model_dim = PeekModelDim(argv[0]);
  if (!model_dim.ok()) return Fail(model_dim.status());
  for (size_t i = 0; i < workload.value().size(); ++i) {
    const int dim = workload.value()[i].query.dim();
    if (dim != model_dim.value()) {
      return Fail(Status::InvalidArgument(
          "workload record " + std::to_string(i + 1) + " has " +
          std::to_string(dim) + " dimensions but the model was trained on " +
          std::to_string(model_dim.value())));
    }
  }
  // Q-error floor of 1e-6: the workload CSV does not carry the dataset
  // size, so "one in a million tuples" stands in for one-tuple resolution.
  WallTimer timer;
  const ErrorReport r =
      EvaluateModel(*model.value(), workload.value(), 1e-6);
  const double seconds = timer.Seconds();
  std::printf("queries: %zu\nthreads: %d\neval_seconds: %.4f\n"
              "rms: %.6f\nmae: %.6f\nlinf: %.6f\n"
              "q50: %.3f\nq95: %.3f\nq99: %.3f\nqmax: %.3f\n",
              r.num_queries, DefaultPool()->size(), seconds, r.rms, r.mae,
              r.linf, r.q50, r.q95, r.q99, r.qmax);
  return 0;
}

int Estimate(int argc, char** argv) {
  if (argc < 3) return Usage();
  auto model = LoadModel(argv[0]);
  if (!model.ok()) return Fail(model.status());
  const std::vector<std::string> schema = Split(argv[1], ',');
  auto model_dim = PeekModelDim(argv[0]);
  if (!model_dim.ok()) return Fail(model_dim.status());
  if (static_cast<int>(schema.size()) != model_dim.value()) {
    return Fail(Status::InvalidArgument(
        "schema has " + std::to_string(schema.size()) +
        " attributes but the model was trained on " +
        std::to_string(model_dim.value())));
  }
  PredicateParser parser(schema);
  auto query = parser.Parse(argv[2]);
  if (!query.ok()) return Fail(query.status());
  auto est = model.value()->TryEstimate(query.value());
  if (!est.ok()) return Fail(est.status());
  std::printf("%.6f\n", est.value());
  return 0;
}

int Stats(int argc, char** argv) {
  // --json may appear anywhere; positional args keep their order.
  bool json = false;
  std::vector<char*> pos;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      pos.push_back(argv[i]);
    }
  }
  if (pos.empty()) return Usage();
  auto workload = LoadWorkloadCsv(pos[0]);
  if (!workload.ok()) return Fail(workload.status());
  const Workload& w = workload.value();
  if (w.empty()) {
    return Fail(Status::InvalidArgument("workload is empty"));
  }
  const std::string spec_string = pos.size() > 1 ? pos[1] : "quadhist";
  auto spec = EstimatorSpec::Parse(spec_string);
  if (!spec.ok()) return Fail(spec.status());
  if (EstimatorRegistry::Global().Find(spec.value().name) == nullptr) {
    return Fail(
        EstimatorRegistry::Global().UnknownEstimatorError(spec.value().name));
  }

  // Instrument the whole train-and-predict pass regardless of SEL_METRICS:
  // the point of this subcommand is to show the registry's output.
  SetMetricsEnabled(true);
  MetricsRegistry::Global().Reset();
  // Re-publish the dispatch gauge: Reset() zeroed it, and the SIMD level
  // was resolved before metrics were enabled.
  SetSimdLevel(ActiveSimdLevel());
  // JSON mode prints nothing but the document so scripts can pipe the
  // whole stdout into a parser.
  if (!json) std::printf("simd path: %s\n", SimdLevelName(ActiveSimdLevel()));

  auto built =
      EstimatorRegistry::Build(spec.value(), w[0].query.dim(), w.size());
  if (!built.ok()) return Fail(built.status());
  SEL_RETURN_STATUS_AS_EXIT(built.value()->Train(w));
  (void)EstimateBatch(*built.value(), w);

  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  if (json) {
    std::printf("%s\n", snap.ToJson().c_str());
  } else {
    std::printf("%s", snap.ToText().c_str());
  }
  if (pos.size() > 2) {
    const std::string out = pos[2];
    std::ofstream csv(out);
    if (!csv.good()) {
      return Fail(Status::IOError("cannot open: " + out));
    }
    csv << snap.ToCsv();
    csv.flush();
    if (!csv.good()) return Fail(Status::IOError("write failed: " + out));
    if (!json) std::printf("metrics csv written to %s\n", out.c_str());
  }
  return 0;
}

int Online(int argc, char** argv) {
  if (argc < 1) return Usage();
  auto workload = LoadWorkloadCsv(argv[0]);
  if (!workload.ok()) return Fail(workload.status());
  const Workload& w = workload.value();
  if (w.empty()) {
    return Fail(Status::InvalidArgument("workload is empty"));
  }
  OnlineOptions opts;
  bool rollback = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--rollback") {
      rollback = true;
    } else {
      opts.estimator = arg;
    }
  }
  auto online = OnlineEstimator::Create(w[0].query.dim(), opts);
  if (!online.ok()) return Fail(online.status());
  OnlineEstimator& est = *online.value();
  for (const auto& z : w) {
    SEL_RETURN_STATUS_AS_EXIT(est.Feedback(z.query, z.selectivity));
  }
  // Flush the tail of the window; a rejected final candidate is a
  // reported outcome, not a CLI failure — the incumbent keeps serving.
  if (est.window_size() > 0) (void)est.Retrain();
  std::printf("fed %zu records (window %zu); retrains=%zu failed=%zu "
              "interval=%zu\n",
              w.size(), est.window_size(), est.retrain_count(),
              est.failed_retrain_count(), est.current_retrain_interval());
  std::printf("publish: accepted=%zu rejected_quality=%zu "
              "rejected_deadline=%zu rejection_streak=%zu ring=%zu\n",
              est.publish_accepted_count(),
              est.publish_rejected_quality_count(),
              est.publish_rejected_deadline_count(), est.rejection_streak(),
              est.rollback_ring_size());
  if (!est.last_error().ok()) {
    std::printf("last_error: %s\n", est.last_error().ToString().c_str());
  }
  if (rollback) {
    const Status st = est.RollbackLastGood();
    if (!st.ok()) return Fail(st);
    std::printf("rolled back to the previous last-good snapshot "
                "(ring now %zu deep)\n",
                est.rollback_ring_size());
  }
  return 0;
}

namespace {

/// Self-pipe the signal handlers write one byte into; main blocks on
/// the read end. The only async-signal-safe way to turn SIGINT/SIGTERM
/// into "return from a blocking call and drain".
int g_signal_pipe[2] = {-1, -1};

void OnShutdownSignal(int /*signo*/) {
  const char byte = 1;
  // write(2) is async-signal-safe; a full pipe just means a signal is
  // already pending, so a dropped byte is fine.
  (void)!::write(g_signal_pipe[1], &byte, 1);
}

}  // namespace

int Serve(int argc, char** argv) {
  if (argc < 1) return Usage();
  int port_override = -1;
  std::string spec = "quadhist";
  const std::string workload_path = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port") {
      if (i + 1 >= argc) return Usage();
      port_override = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else {
      spec = arg;
    }
  }
  auto workload = LoadWorkloadCsv(workload_path);
  if (!workload.ok()) return Fail(workload.status());
  const Workload& w = workload.value();
  if (w.empty()) {
    return Fail(Status::InvalidArgument("workload is empty"));
  }

  OnlineOptions oopts;
  oopts.estimator = spec;
  auto online = OnlineEstimator::Create(w[0].query.dim(), oopts);
  if (!online.ok()) return Fail(online.status());
  OnlineEstimator& est = *online.value();
  for (const auto& z : w) {
    SEL_RETURN_STATUS_AS_EXIT(est.Feedback(z.query, z.selectivity));
  }
  // Flush the window tail so the server starts with a trained model
  // covering the whole bootstrap workload.
  if (est.window_size() > 0) (void)est.Retrain();
  if (!est.trained()) {
    return Fail(Status::FailedPrecondition(
        "bootstrap training failed: " + est.last_error().ToString()));
  }

  // The server is the long-lived metrics producer; stats frames should
  // always have data regardless of SEL_METRICS.
  SetMetricsEnabled(true);
  SetSimdLevel(ActiveSimdLevel());

  EstimatorServer::Options sopts = EstimatorServer::Options::FromEnv();
  if (port_override >= 0) sopts.port = port_override;
  auto server = EstimatorServer::Start(&est, sopts);
  if (!server.ok()) return Fail(server.status());

  if (::pipe(g_signal_pipe) != 0) {
    return Fail(Status::IOError("pipe() failed"));
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnShutdownSignal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  // The smoke test and the bench harness parse this exact line for the
  // resolved ephemeral port; flush so they see it before connecting.
  std::printf("listening on 127.0.0.1:%d (model %s, dim %d, window %zu)\n",
              server.value()->port(), spec.c_str(), est.dim(),
              est.window_size());
  std::fflush(stdout);

  // Block until a shutdown signal lands (EINTR restarts the read).
  char byte = 0;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }

  std::printf("draining...\n");
  std::fflush(stdout);
  server.value()->Shutdown();

  // Flush observability before exit: final counters to stdout, buffered
  // trace (if SEL_TRACE armed it) to its file.
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  std::printf("%s", snap.ToText().c_str());
  const Status trace_st = TraceRecorder::Global().Stop();
  if (!trace_st.ok()) {
    std::fprintf(stderr, "warning: trace flush failed: %s\n",
                 trace_st.ToString().c_str());
  }
  std::printf("server drained; exiting\n");
  return 0;
}

int QueryCmd(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::vector<std::string> host_port = Split(argv[0], ':');
  if (host_port.size() != 2) {
    return Fail(Status::InvalidArgument(
        "expected <host:port>, got: " + std::string(argv[0])));
  }
  const int port =
      static_cast<int>(std::strtol(host_port[1].c_str(), nullptr, 10));
  auto client = EstimatorClient::Connect(host_port[0], port);
  if (!client.ok()) return Fail(client.status());

  const std::string mode = argv[1];
  if (mode == "--ping") {
    SEL_RETURN_STATUS_AS_EXIT(client.value()->Ping());
    std::printf("pong\n");
    return 0;
  }
  if (mode == "--stats") {
    auto stats = client.value()->Stats();
    if (!stats.ok()) return Fail(stats.status());
    std::printf("%s\n", stats.value().c_str());
    return 0;
  }
  if (argc < 3) return Usage();
  const std::vector<std::string> schema = Split(argv[1], ',');
  PredicateParser parser(schema);
  auto query = parser.Parse(argv[2]);
  if (!query.ok()) return Fail(query.status());
  double feedback_truth = -1.0;
  bool feedback = false;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--feedback") == 0) {
      if (i + 1 >= argc) return Usage();
      feedback = true;
      feedback_truth = std::strtod(argv[++i], nullptr);
    }
  }
  if (feedback) {
    SEL_RETURN_STATUS_AS_EXIT(
        client.value()->Feedback(query.value(), feedback_truth));
    std::printf("feedback recorded\n");
    return 0;
  }
  auto est = client.value()->Estimate(query.value());
  if (!est.ok()) return Fail(est.status());
  std::printf("%.6f\n", est.value());
  return 0;
}

}  // namespace sel

int main(int argc, char** argv) {
  if (argc < 2) return sel::Usage();
  const std::string cmd = argv[1];
  argc -= 2;
  argv += 2;
  if (cmd == "gen-data") return sel::GenData(argc, argv);
  if (cmd == "gen-workload") return sel::GenWorkload(argc, argv);
  if (cmd == "train") return sel::Train(argc, argv);
  if (cmd == "compile") return sel::Compile(argc, argv);
  if (cmd == "evaluate") return sel::Evaluate(argc, argv);
  if (cmd == "estimate") return sel::Estimate(argc, argv);
  if (cmd == "estimators") return sel::Estimators();
  if (cmd == "stats") return sel::Stats(argc, argv);
  if (cmd == "online") return sel::Online(argc, argv);
  if (cmd == "serve") return sel::Serve(argc, argv);
  if (cmd == "query") return sel::QueryCmd(argc, argv);
  return sel::Usage();
}

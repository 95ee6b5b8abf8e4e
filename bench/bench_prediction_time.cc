// Prediction time (§4.1's closing remark): all the compared models
// estimate by aggregating per-bucket computations, so prediction time is
// dictated by model complexity. This bench makes that relationship
// explicit — per-query estimation latency vs bucket count per model —
// through the one serving path, the CompiledPlan each model builds at
// the end of Train (DESIGN.md §11), with the SIMD leaf kernels on
// (simd=auto) and pinned off (simd=scalar).
//
// Methodology mirrors tools/check_bench.py: alternating
// auto/scalar rounds with a min-statistic per level, so one-sided cache
// warmup or a scheduler hiccup cannot fake (or hide) a difference.
#include "bench_common.h"

using namespace sel;
using namespace sel::bench;

int main() {
  const PreparedData prep = Prepare("power", 2100000, {0, 1});
  WorkloadOptions wopts;
  wopts.seed = 6100;
  Banner("Prediction time vs model complexity (§4.1)", prep, wopts);

  const std::vector<size_t> sizes = ScaledSizes({50, 200, 500, 1000});
  const size_t probe_count = 2000;
  const int rounds = 3;
  WorkloadOptions probe_opts = wopts;
  probe_opts.seed = wopts.seed + 1;
  WorkloadGenerator probe_gen(&prep.data, prep.index.get(), probe_opts);
  const Workload probes = probe_gen.Generate(probe_count);

  TablePrinter t({"model", "buckets", "simd", "us_per_estimate"});
  CsvWriter csv("bench_prediction_time.csv");
  csv.WriteRow(
      std::vector<std::string>{"model", "buckets", "simd", "us_per_est"});
  const SimdLevel levels[] = {MaxSupportedSimdLevel(), SimdLevel::kScalar};
  const char* level_names[] = {"auto", "scalar"};
  for (size_t n : sizes) {
    WorkloadOptions train_opts = wopts;
    train_opts.seed = wopts.seed + n;
    WorkloadGenerator train_gen(&prep.data, prep.index.get(), train_opts);
    const Workload train = train_gen.Generate(n);
    for (const char* kind : {"quadhist", "ptshist", "quicksel"}) {
      auto built = EstimatorRegistry::Build(kind, prep.data.dim(), n);
      SEL_CHECK_MSG(built.ok(), "%s", built.status().ToString().c_str());
      auto& model = built.value();
      SEL_CHECK(model->Train(train).ok());

      // Both levels run the identical EstimateBatch harness (same
      // thread-pool fan-out, same per-query loop); only the kernel
      // dispatch differs, pinned the way SEL_SIMD would.
      double best_us[2] = {0.0, 0.0};
      double sink = 0.0;
      for (int r = 0; r < rounds; ++r) {
        for (int l = 0; l < 2; ++l) {
          SetSimdLevel(levels[l]);
          WallTimer timer;
          sink += EstimateBatch(*model, probes)[0];
          const double us = timer.Seconds() * 1e6 / probe_count;
          if (r == 0 || us < best_us[l]) best_us[l] = us;
        }
      }
      SetSimdLevel(MaxSupportedSimdLevel());
      SEL_CHECK(sink >= 0.0);
      const std::string buckets = std::to_string(model->NumBuckets());
      for (int l = 0; l < 2; ++l) {
        t.AddRow({model->Name(), buckets, level_names[l],
                  FormatDouble(best_us[l], 2)});
        csv.WriteRow(std::vector<std::string>{
            model->Name(), buckets, level_names[l], FormatDouble(best_us[l])});
      }
    }
  }
  csv.Close();
  t.Print();
  std::printf("\nExpected: latency grows ~linearly in bucket count for the "
              "flat models (PtsHist point tests, QuickSel kernel "
              "intersections) and sublinearly for QuadHist, whose plan "
              "tree prunes subtrees fully inside/outside the query. "
              "simd=auto should beat simd=scalar wherever leaf scans "
              "dominate: same Eq. (6)/(7) sums, same bits, but the leaf "
              "kernels run full-width vector blocks.\n");
  return 0;
}

// Umbrella public header for the sel library — a from-scratch C++
// implementation of "Selectivity Functions of Range Queries are
// Learnable" (Hu et al., SIGMOD 2022).
//
// Quickstart:
//
//   #include "sel/sel.h"
//
//   sel::Dataset data = sel::MakePowerLike(100000);
//   sel::CountingKdTree index(data.rows());
//   sel::WorkloadOptions wopts;            // data-driven boxes
//   sel::WorkloadGenerator gen(&data, &index, wopts);
//   sel::Workload train = gen.Generate(500), test = gen.Generate(500);
//
//   sel::QuadHistOptions qopts;
//   sel::QuadHist model(data.dim(), qopts);
//   SEL_CHECK(model.Train(train).ok());
//   double estimate = model.Estimate(test[0].query);
//   sel::ErrorReport report = sel::EvaluateModel(model, test);
#ifndef SEL_SEL_SEL_H_
#define SEL_SEL_SEL_H_

#include "baselines/avi.h"
#include "baselines/isomer.h"
#include "baselines/quicksel.h"
#include "common/check.h"
#include "common/csv.h"
#include "common/deadline.h"
#include "common/env.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "common/normal.h"
#include "core/arrangement.h"
#include "core/estimator_registry.h"
#include "core/gmm.h"
#include "core/model.h"
#include "core/model_io.h"
#include "core/online.h"
#include "core/ptshist.h"
#include "core/quadhist.h"
#include "data/csv_io.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "eval/experiment.h"
#include "eval/table_printer.h"
#include "geometry/ball.h"
#include "geometry/box.h"
#include "geometry/halfspace.h"
#include "geometry/point.h"
#include "geometry/polynomial.h"
#include "geometry/query.h"
#include "geometry/semialgebraic.h"
#include "geometry/sampling.h"
#include "geometry/volume.h"
#include "index/kdtree.h"
#include "learning/fat_shattering.h"
#include "learning/low_crossing.h"
#include "learning/sample_complexity.h"
#include "learning/shattering.h"
#include "learning/vc_dimension.h"
#include "eval_metrics/metrics.h"
#include "parser/predicate_parser.h"
#include "serve/compiled_plan.h"
#include "serve/plan_model.h"
#include "server/client.h"
#include "server/proto.h"
#include "server/server.h"
#include "solver/lp.h"
#include "solver/nnls.h"
#include "solver/qp.h"
#include "solver/simplex_projection.h"
#include "solver/sparse.h"
#include "workload/workload.h"

#endif  // SEL_SEL_SEL_H_

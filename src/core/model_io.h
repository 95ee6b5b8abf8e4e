// Model persistence: trained estimators serialize to a line-oriented
// text format and load back as models with identical predictions.
// A DBMS deploys this by training offline from its query log and shipping
// the file to the optimizer process.
//
// Format (one record per line, space-separated, '#' comments allowed):
//   selmodel 1 <registry-name> <dim> <num_buckets>
//   box <lo...> <hi...> <weight>         (box-bucket estimators)
//   point <coords...> <weight>           (point-bucket estimators)
//   gauss <mean...> <stddev...> <weight> (gmm)
//   psrc <name> / popts <qmc> <hmax>     (plan metadata)
//   pbox <lo...> <hi...> <weight> <inv_vol> (plan box entries)
//   ppoint <coords...> <weight>          (plan point entries)
//
// The header carries the EstimatorRegistry name; SaveModel/LoadModel
// dispatch through the registry's per-estimator save/load hooks, so an
// estimator opts into persistence by registering them (queryable via
// EstimatorRegistry::SupportsSave). The flat-form kind tags
// "histogram" and "static" (box records) and "points" and
// "staticpoints" (point records) are not registry names: each loads its
// records straight into a PlanModel.
#ifndef SEL_CORE_MODEL_IO_H_
#define SEL_CORE_MODEL_IO_H_

#include <iosfwd>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/estimator_registry.h"
#include "core/gmm.h"
#include "core/model.h"

namespace sel {

/// Serializes `model` to `path` via its registry save hook. Fails with
/// Unimplemented (listing the savable estimators) if the model's
/// registry entry has no save support.
Status SaveModel(const SelectivityModel& model, const std::string& path);

/// Loads any saved model by dispatching the header's registry name to
/// the matching load hook; the result estimates identically to the
/// serialized one (box/point estimators load as a PlanModel over their
/// records; GMMs load as a fresh GmmModel equivalent).
Result<std::unique_ptr<SelectivityModel>> LoadModel(const std::string& path);

/// Reads only the header of a saved model and returns its dimension.
/// Request-handling edges (e.g. selcli estimate) use this to reject a
/// query whose schema does not match the model before touching the
/// estimation path, which treats a dimension mismatch as API misuse.
Result<int> PeekModelDim(const std::string& path);

/// Writes a complete box-bucket model (header + records) under `kind`.
/// Shared by the registry save hooks of every histogram-form estimator.
Status WriteBoxModel(std::ostream& out, const std::string& kind,
                     const std::vector<Box>& buckets, const Vector& weights);

/// Writes a complete point-bucket model (header + records).
Status WritePointModel(std::ostream& out, const std::string& kind,
                       const std::vector<Point>& points,
                       const Vector& weights);

/// Writes a complete Gaussian-mixture model (header + records).
Status WriteGaussModel(std::ostream& out, const std::string& kind,
                       const std::vector<Point>& means,
                       const std::vector<Point>& stddevs,
                       const Vector& weights);

/// Reads `ctx.num_buckets` box records and returns a PlanModel over
/// them (Eq. 6; zero-weight records are dropped). A file whose records
/// cannot lower (e.g. every weight zero) is an IOError.
Result<std::unique_ptr<SelectivityModel>> LoadBoxModel(ModelLoadContext& ctx);

/// Reads point records and returns a PlanModel over them (Eq. 7).
Result<std::unique_ptr<SelectivityModel>> LoadPointModel(
    ModelLoadContext& ctx);

/// Reads gauss records and returns a GmmModel (FromParameters).
Result<std::unique_ptr<SelectivityModel>> LoadGaussModel(
    ModelLoadContext& ctx);

/// Writes a complete compiled serving plan (header + metadata + mixed
/// pbox/ppoint records) under the "plan" kind. Stored inverse volumes
/// are reused verbatim on load, so the round-trip is arithmetic-exact.
Status WritePlanModel(std::ostream& out, const CompiledPlan& plan);

/// Reads a serialized plan and returns a PlanModel executing it.
Result<std::unique_ptr<SelectivityModel>> LoadPlanModel(
    ModelLoadContext& ctx);

/// Writes a histogram-form model (boxes + weights) to `path` under the
/// legacy "histogram" kind tag (loads back as a PlanModel).
Status SaveHistogramModel(const std::vector<Box>& buckets,
                          const Vector& weights, const std::string& path);

/// Writes a point-form model to `path` (legacy "points" kind tag).
Status SavePointModel(const std::vector<Point>& points,
                      const Vector& weights, const std::string& path);

/// Writes a trained GMM to `path`.
Status SaveGmmModel(const GmmModel& model, const std::string& path);

}  // namespace sel

#endif  // SEL_CORE_MODEL_IO_H_

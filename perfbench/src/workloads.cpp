// The workloads of the end-to-end benchmark.
//
// Every workload serves the paper's WeightedSharing network with seeded,
// untrained weights: cost does not depend on weight values, and the trained
// .rfc files in bench_cache/ no longer load. Every workload uses the shipped
// defaults (default kernel backend, default EngineConfig / FrontDoorConfig
// and brownout thresholds, no ROADFUSION_* variable), so a later change to
// a default shows in the numbers. No workload runs more than 4 threads,
// engine workers included. Inputs are generated from --seed before timing
// starts, and every response is checked against the graph-path reference
// (forward_fused on constants at the fusion weight the response reports).
//
// cam_128x384 — one camera, closed loop, one frame in flight, 128x384
//   frames (4x the trained 32x96 on each side). Each frame carries its own
//   sparse LiDAR scan; the timed path is kitti::preprocess_depth ->
//   InferenceEngine::submit -> result. Model compute dominates here: the
//   working set is larger than L2, and sizing on a 4-core AVX2 host put a
//   predict at ~60-66 ms and preprocessing at ~4 ms, so kernel, plan and
//   decoder work shows on this workload. It skips batching, the front
//   door, the stream cache and the RGB-only path.
// drive_stream — one temporally coherent 32x96 drive from
//   scenario::StreamGenerator under fog:0.5+night:0.4, LiDAR refreshing
//   every 3rd frame, served serially through a one-shard FrontDoor with a
//   StreamFeatureCache (depth_unchanged on frames without a refresh). The
//   timed path is submit -> result. It is the only workload on the
//   cache-hit path (infer_logits_stream), which skips the depth encoder and
//   today bypasses the compiled plan.
//
// A third workload, an open loop of Poisson arrivals from 8 cameras at a
// fixed 200 req/s into the default 2-shard FrontDoor, is left out: on a
// shared 4-vCPU host its runs were bimodal (see CHANGES.md), and it returns
// with the work that makes it steady.
//
// The older bench_* binaries and BENCH_*.json files are left alone;
// retiring them is separate work.
#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>

#include "autograd/ops.hpp"
#include "autograd/variable.hpp"
#include "kitti/dataset.hpp"
#include "kitti/sensor_health.hpp"
#include "obs/metrics.hpp"
#include "roadseg/roadseg_net.hpp"
#include "runtime/engine.hpp"
#include "scenario/corruption.hpp"
#include "scenario/stream.hpp"
#include "serve/front_door.hpp"
#include "stats.hpp"
#include "tensor/workspace.hpp"
#include "trace.hpp"
#include "train/checkpoint.hpp"
#include "tune/dispatch.hpp"

namespace rfbench {
namespace {

using namespace roadfusion;
using tensor::Tensor;
using Clock = SteadyClock;

constexpr double kLatencyLimitMs = 100.0;  // one 10 Hz LiDAR period
/// A response passes the oracle when every probability is within this of
/// the graph-path reference and every pixel lands on the same side of 0.5.
constexpr float kProbTolerance = 1e-4f;
/// Set-ups per run, each one setup_s sample.
constexpr int kSetUps = 10;
constexpr int kTraceSlices = 20;  // alternating untraced / traced slices
/// latency_tail_ms is the median of the tail over up to this many
/// consecutive slices of the run (see sliced_tail).
constexpr size_t kMaxTailSlices = 8;
/// ... and at most this percentile. On a shared 4-vCPU host, p99 of a
/// ~4 ms drive_stream request moved up to 2x between runs of the same code
/// (ten-run spreads of 27-56% in three of five sets), because a host
/// scheduling stall of a few ms lands on more than 1% of requests during
/// spells lasting minutes. p90 stays clear of those stalls. The uncapped
/// tail is still printed in the detail line.
constexpr double kTailMaxPercentile = 90.0;

constexpr int kCamFrames = 16;
constexpr int kDriveFrames = 48;  // a multiple of the LiDAR period
constexpr int kDriveLidarPeriod = 3;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Ticks of the machine's aggregate CPU line in /proc/stat. On a virtual
/// machine, steal is time the host ran something else while a vCPU wanted
/// to run; latency moves with it while CPU time per frame does not, so the
/// detail line reports its share to tell host noise from a regression.
struct HostTicks {
  double steal = 0.0;
  double total = 0.0;
};

HostTicks host_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;  // "cpu": user nice system idle iowait irq softirq steal
  HostTicks ticks;
  double value = 0.0;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    ticks.total += value;
    ticks.steal = field == 7 ? value : ticks.steal;
  }
  return ticks;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so that
/// peak_rss_mb() covers only what runs after it: the serving stack in the
/// timed phase, not the oracle's graph passes or the set-up repeats.
void reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  if (!clear_refs) {
    throw std::runtime_error(
        "cannot reset the peak RSS through /proc/self/clear_refs");
  }
}

/// VmHWM of /proc/self/status in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// ---------------------------------------------------------------------------
// Inputs and the graph-path oracle
// ---------------------------------------------------------------------------

struct Input {
  Tensor rgb;     ///< (3, H, W)
  Tensor sparse;  ///< (1, H, W) metric range before preprocessing
  Tensor depth;   ///< (1, H, W) network depth input
  bool depth_refreshed = true;
  bool triage_degraded = false;  ///< sensor health alone says RGB-only
  Tensor ref_fused;              ///< graph-path probabilities, weight 1
  Tensor ref_rgb_only;           ///< graph-path probabilities, weight 0
};

kitti::DatasetConfig geometry(int64_t h, int64_t w) {
  kitti::DatasetConfig config;
  config.image_height = h;
  config.image_width = w;
  return config;
}

vision::Camera camera_for(const kitti::DatasetConfig& c) {
  return vision::Camera(c.image_width, c.image_height, c.fov_deg,
                        c.cam_height, c.cam_pitch);
}

/// One procedural road frame with the dataset's category and lighting mix.
Input render_input(const kitti::DatasetConfig& config,
                   const vision::Camera& camera, SeedStream& rng) {
  static const kitti::RoadCategory kCategories[] = {
      kitti::RoadCategory::kUM, kitti::RoadCategory::kUMM,
      kitti::RoadCategory::kUU};
  const kitti::RoadCategory category = kCategories[rng.next() % 3];
  const double u = rng.uniform();
  const kitti::Lighting lighting =
      u < config.p_night ? kitti::Lighting::kNight
      : u < config.p_night + config.p_overexposure
          ? kitti::Lighting::kOverexposure
      : u < config.p_night + config.p_overexposure + config.p_shadows
          ? kitti::Lighting::kShadows
          : kitti::Lighting::kDay;
  const kitti::Scene scene =
      kitti::Scene::generate(category, lighting, rng.next());
  tensor::Rng noise(rng.next());
  Input input;
  input.rgb = kitti::render_rgb(scene, camera, noise);
  input.sparse = kitti::project_to_sparse_depth(
      kitti::scan(scene, config.lidar, noise), camera);
  input.depth = kitti::preprocess_depth(input.sparse, config.depth);
  return input;
}

Tensor as_nchw(const Tensor& chw) {
  return chw.reshaped(tensor::Shape::nchw(1, chw.shape().dim(0),
                                          chw.shape().dim(1),
                                          chw.shape().dim(2)));
}

/// Road probabilities (1, H, W) through the autograd graph path.
Tensor graph_probabilities(const roadseg::RoadSegNet& net, const Tensor& rgb,
                           const Tensor& depth, float fusion_weight) {
  const autograd::InferenceModeGuard no_grad;
  const roadseg::ForwardResult result = net.forward_fused(
      autograd::Variable::constant(as_nchw(rgb)),
      autograd::Variable::constant(as_nchw(depth)), fusion_weight);
  return autograd::sigmoid(result.logits)
      .value()
      .reshaped(tensor::Shape::chw(1, rgb.shape().dim(1), rgb.shape().dim(2)));
}

/// Triage verdict plus the reference at both fidelities: a response is
/// checked against the one it reports serving (a front door may force a
/// healthy frame RGB-only; that is off-fidelity, not wrong).
void attach_references(const roadseg::RoadSegNet& oracle,
                       std::vector<Input>& inputs) {
  for (Input& input : inputs) {
    const kitti::SensorHealthReport health =
        kitti::check_sensor_health(input.rgb, input.depth);
    if (health.status == kitti::SensorStatus::kInvalid) {
      throw std::runtime_error("generated input is invalid: " + health.detail);
    }
    input.triage_degraded = health.status == kitti::SensorStatus::kDegraded;
    input.ref_fused = graph_probabilities(oracle, input.rgb, input.depth, 1.0f);
    input.ref_rgb_only =
        graph_probabilities(oracle, input.rgb, input.depth, 0.0f);
  }
}

struct Verdict {
  bool correct = false;
  bool bitwise = false;
};

Verdict check_output(const Tensor& out, const Tensor& ref) {
  Verdict verdict;
  if (!(out.shape() == ref.shape())) {
    return verdict;
  }
  const size_t bytes = static_cast<size_t>(out.numel()) * sizeof(float);
  if (std::memcmp(out.raw(), ref.raw(), bytes) == 0) {
    return {true, true};
  }
  const float* o = out.raw();
  const float* r = ref.raw();
  for (int64_t i = 0; i < out.numel(); ++i) {
    if (!(std::fabs(o[i] - r[i]) <= kProbTolerance) ||
        (o[i] > 0.5f) != (r[i] > 0.5f)) {
      return verdict;
    }
  }
  verdict.correct = true;
  return verdict;
}

Verdict check_result(const runtime::InferenceResult& result,
                     const Input& input) {
  return check_output(result.output,
                      result.degraded ? input.ref_rgb_only : input.ref_fused);
}

// ---------------------------------------------------------------------------
// Registry deltas
// ---------------------------------------------------------------------------

using RegistryView = std::map<std::string, obs::MetricSnapshot>;

RegistryView registry_now() {
  RegistryView view;
  for (obs::MetricSnapshot& m : obs::MetricsRegistry::global().snapshot()) {
    view[m.name] = std::move(m);
  }
  return view;
}

double counter_delta(const RegistryView& before, const RegistryView& after,
                     const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) {
    return 0.0;
  }
  const auto b = before.find(name);
  return a->second.value - (b == before.end() ? 0.0 : b->second.value);
}

/// Quantile of a registry histogram's observations between two snapshots,
/// interpolated linearly inside the bucket that holds it (the registry
/// keeps buckets, not samples).
double histogram_quantile(const RegistryView& before,
                          const RegistryView& after, const std::string& name,
                          double q) {
  const auto a = after.find(name);
  if (a == after.end()) {
    return 0.0;
  }
  const auto b = before.find(name);
  const std::vector<double>& bounds = a->second.bounds;
  std::vector<double> counts(a->second.buckets.size());
  double total = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = static_cast<double>(a->second.buckets[i]) -
                (b == before.end() ? 0.0
                                   : static_cast<double>(b->second.buckets[i]));
    total += counts[i];
  }
  if (total <= 0.0) {
    return 0.0;
  }
  const double target = q * total;
  double cumulative = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0.0 && cumulative + counts[i] >= target) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = i < bounds.size() ? bounds[i] : bounds.back();
      return lo + (hi - lo) * (target - cumulative) / counts[i];
    }
    cumulative += counts[i];
  }
  return bounds.back();
}

// ---------------------------------------------------------------------------
// The serving stack and its set-up
// ---------------------------------------------------------------------------

roadseg::RoadSegConfig model_config() {
  roadseg::RoadSegConfig config;
  config.scheme = core::FusionScheme::kWeightedSharing;
  return config;
}

/// Exactly one of `engine` / `door` is set. Members are destroyed in
/// reverse order, so the serving threads stop before the model goes.
struct Stack {
  std::unique_ptr<roadseg::RoadSegNet> net;
  std::unique_ptr<runtime::InferenceEngine> engine;
  std::unique_ptr<serve::FrontDoor> door;

  std::future<runtime::InferenceResult> submit(
      Tensor rgb, Tensor depth, const serve::ServeOptions& options) {
    if (door) {
      return door->submit(std::move(rgb), std::move(depth), options);
    }
    runtime::SubmitOptions submit_options;
    submit_options.stream_cache = options.stream_cache;
    submit_options.depth_unchanged = options.depth_unchanged;
    return engine->submit(std::move(rgb), std::move(depth), submit_options);
  }

  runtime::RuntimeStats engine_stats() const {
    return door ? door->stats().engine : engine->stats();
  }
};

std::unique_ptr<roadseg::RoadSegNet> load_net(const std::string& checkpoint) {
  tensor::Rng rng(0);
  auto net = std::make_unique<roadseg::RoadSegNet>(model_config(), rng);
  train::load_model(*net, checkpoint);
  net->set_training(false);
  return net;
}

/// `door_shards` 0 serves through a bare InferenceEngine.
Stack build_stack(const std::string& checkpoint, int door_shards) {
  Stack stack;
  stack.net = load_net(checkpoint);
  if (door_shards == 0) {
    stack.engine = std::make_unique<runtime::InferenceEngine>(
        *stack.net, runtime::EngineConfig{});
  } else {
    serve::FrontDoorConfig config;
    config.shards = door_shards;
    stack.door = std::make_unique<serve::FrontDoor>(*stack.net, config);
  }
  return stack;
}

// ---------------------------------------------------------------------------
// Measurement phases
// ---------------------------------------------------------------------------

/// Everything one timed phase observed.
struct Phase {
  std::vector<double> latency_ms;  ///< served responses
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< refused or failed: no response
  uint64_t served = 0;
  uint64_t correct = 0;
  uint64_t bitwise = 0;
  uint64_t good = 0;
  std::map<std::string, uint64_t> outcomes;
  double wall_s = 0.0;  ///< rate denominator
  double cpu_s = 0.0;
  HostTicks host;  ///< over the phase

  void record(const Response& response, bool bitwise_equal) {
    ++attempted;
    const Outcome outcome = classify(response, kLatencyLimitMs);
    ++outcomes[to_string(outcome)];
    if (response.shed || response.failed) {
      ++failed;
      return;
    }
    ++served;
    latency_ms.push_back(response.latency_ms);
    correct += response.correct ? 1 : 0;
    bitwise += bitwise_equal ? 1 : 0;
    good += outcome == Outcome::kGood ? 1 : 0;
  }

  void merge(const Phase& other) {
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                      other.latency_ms.end());
    attempted += other.attempted;
    failed += other.failed;
    served += other.served;
    correct += other.correct;
    bitwise += other.bitwise;
    good += other.good;
    for (const auto& [name, count] : other.outcomes) {
      outcomes[name] += count;
    }
    wall_s += other.wall_s;
    cpu_s += other.cpu_s;
    host.steal += other.host.steal;
    host.total += other.host.total;
  }
};

/// Result of one request of a closed loop.
struct Served {
  Response response;
  bool bitwise = false;
};

/// Serves requests one at a time until `seconds` have passed.
Phase closed_loop(double seconds, const std::function<Served(uint64_t)>& one) {
  Phase phase;
  const HostTicks host0 = host_ticks();
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  for (uint64_t k = 0; ms_between(t0, Clock::now()) < seconds * 1e3; ++k) {
    const Served served = one(k);
    phase.record(served.response, served.bitwise);
  }
  phase.wall_s = ms_between(t0, Clock::now()) / 1e3;
  phase.cpu_s = cpu_seconds() - cpu0;
  const HostTicks host1 = host_ticks();
  phase.host = {host1.steal - host0.steal, host1.total - host0.total};
  return phase;
}

// ---------------------------------------------------------------------------
// Layer probes: direct calls into kitti and roadseg at the workload's geometry
// ---------------------------------------------------------------------------

/// Median milliseconds of repeated calls to `fn` (after one warm-up call),
/// each recorded as a probe span: at least 5 and at most 200 calls, stopping
/// once a quarter second is spent.
double probe(SpanRecorder& tracer, const std::string& name,
             const std::function<void()>& fn) {
  fn();
  std::vector<double> ms;
  const auto t0 = Clock::now();
  while (ms.size() < 5 ||
         (ms.size() < 200 && ms_between(t0, Clock::now()) < 250.0)) {
    const auto start = Clock::now();
    fn();
    const auto end = Clock::now();
    tracer.add(name, start, end, 0, -1, 0);
    ms.push_back(ms_between(start, end));
  }
  return median(ms);
}

std::map<std::string, double> layer_probes(const roadseg::RoadSegNet& net,
                                             const Input& input,
                                             bool probe_preprocess,
                                             SpanRecorder& tracer) {
  std::map<std::string, double> out;
  const Tensor& rgb = input.rgb;
  const Tensor& depth = input.depth;
  const int64_t h = rgb.shape().dim(1);
  const int64_t w = rgb.shape().dim(2);
  if (probe_preprocess) {
    out["kitti.preprocess_ms"] = probe(tracer, "kitti.preprocess_depth", [&] {
      kitti::preprocess_depth(input.sparse, kitti::DepthPreprocConfig{});
    });
  }
  out["roadseg.predict_ms"] =
      probe(tracer, "probe.roadseg.predict", [&] { net.predict(rgb, depth); });
  out["roadseg.predict_rgb_only_ms"] =
      probe(tracer, "probe.roadseg.predict_rgb_only",
            [&] { net.predict_fused(rgb, depth, 0.0f); });
  Tensor rgb4(tensor::Shape::nchw(4, 3, h, w));
  Tensor depth4(tensor::Shape::nchw(4, 1, h, w));
  for (int64_t n = 0; n < 4; ++n) {
    std::memcpy(rgb4.raw() + n * rgb.numel(), rgb.raw(),
                static_cast<size_t>(rgb.numel()) * sizeof(float));
    std::memcpy(depth4.raw() + n * depth.numel(), depth.raw(),
                static_cast<size_t>(depth.numel()) * sizeof(float));
  }
  out["roadseg.predict_batch4_ms"] = probe(
      tracer, "probe.roadseg.predict_batch4", [&] { net.predict(rgb4, depth4); });
  roadseg::StreamFeatureCache cache;
  out["roadseg.predict_stream_miss_ms"] =
      probe(tracer, "probe.roadseg.predict_stream_miss",
            [&] { net.predict_stream(rgb, depth, 1.0f, cache, false); });
  out["roadseg.predict_stream_hit_ms"] =
      probe(tracer, "probe.roadseg.predict_stream_hit",
            [&] { net.predict_stream(rgb, depth, 1.0f, cache, true); });

  // Stems and decoder as the plan calls them, inside an arena like the
  // serving path's.
  tensor::Workspace workspace;
  const tensor::WorkspaceScope scope(workspace);
  const Tensor rgb_nchw = as_nchw(rgb);
  const Tensor depth_nchw = as_nchw(depth);
  out["roadseg.stems_ms"] = probe(tracer, "probe.roadseg.stems", [&] {
    net.rgb_encoder().forward_stage_infer(0, rgb_nchw);
    net.depth_encoder().forward_stage_infer(0, depth_nchw);
  });
  std::vector<Tensor> skips;
  skips.push_back(net.rgb_encoder().forward_stage_infer(0, rgb_nchw));
  for (int stage = 1; stage < net.num_stages(); ++stage) {
    skips.push_back(
        net.rgb_encoder().forward_stage_infer(stage, skips.back()));
  }
  out["roadseg.decoder_ms"] = probe(tracer, "probe.roadseg.decoder", [&] {
    net.decoder().forward_infer(skips.data(), static_cast<int>(skips.size()));
  });
  return out;
}

// ---------------------------------------------------------------------------
// The workloads
// ---------------------------------------------------------------------------

/// One workload: its inputs, how to set up its serving stack, and how to
/// measure on the stack set up last.
struct Workload {
  std::vector<Input> inputs;
  std::string checkpoint;  ///< removed with the workload
  int door_shards = 0;     ///< 0 serves through a bare InferenceEngine
  /// Serves one input on a fresh stack; true when it passes the oracle.
  std::function<bool(Stack&)> first_response;
  std::unique_ptr<roadseg::StreamFeatureCache> cache;  ///< drive_stream only
  /// Runs one timed phase of `seconds` on `stack`, recording spans when
  /// traced.
  std::function<Phase(double seconds, SpanRecorder* tracer)> phase;

  Stack stack;  ///< the stack set up last
  std::vector<double> setup_s;
  /// Conv bindings resolved over the latest set-up, by selected solver.
  std::map<std::string, double> solver_selected;

  ~Workload() {
    std::error_code ignored;
    std::filesystem::remove(checkpoint, ignored);
  }
};

/// One setup_s sample: load_model -> prepare_inference (inside the engine
/// or door constructor) -> first correct response, from an empty binding
/// cache as in a fresh process. The previous stack is torn down outside the
/// clock, and the new one replaces it. The registry's per-solver selection
/// counts over the set-up are kept, so a change of solver between commits
/// shows even though the timed phase resolves no binding.
void set_up(Workload& wl) {
  static const std::string kSelected =
      "roadfusion_solver_selected_total{solver=\"";
  wl.stack = Stack{};
  tune::clear_binding_cache();
  const RegistryView before = registry_now();
  const auto t0 = Clock::now();
  Stack stack = build_stack(wl.checkpoint, wl.door_shards);
  if (!wl.first_response(stack)) {
    throw std::runtime_error("set-up: first response failed the oracle");
  }
  wl.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  wl.stack = std::move(stack);
  const RegistryView after = registry_now();
  wl.solver_selected.clear();
  for (const auto& [name, metric] : after) {
    if (name.rfind(kSelected, 0) == 0) {
      const size_t end = name.find('"', kSelected.size());
      wl.solver_selected[name.substr(kSelected.size(),
                                     end - kSelected.size())] =
          counter_delta(before, after, name);
    }
  }
}

std::string write_checkpoint(const Options& options, uint64_t model_seed) {
  std::filesystem::create_directories(options.out_dir);
  const std::string path = options.out_dir + "/model_" + options.workload +
                           "_" + std::to_string(options.seed) + ".rfm";
  tensor::Rng rng(model_seed);
  roadseg::RoadSegNet net(model_config(), rng);
  train::save_model(net, path);
  return path;
}

void make_cam(const Options& options, Workload& wl, uint64_t& next_request) {
  SeedStream rng(options.seed);
  wl.checkpoint = write_checkpoint(options, rng.next());
  const kitti::DatasetConfig config = geometry(128, 384);
  const vision::Camera camera = camera_for(config);
  for (int i = 0; i < kCamFrames; ++i) {
    wl.inputs.push_back(render_input(config, camera, rng));
  }
  attach_references(*load_net(wl.checkpoint), wl.inputs);

  const auto serve = [config, &next_request](Stack& stack, const Input& in,
                                             SpanRecorder* tracer) {
    Tensor rgb = in.rgb;  // staging copy, outside the clock
    Served served;
    const auto t0 = Clock::now();
    Tensor depth = kitti::preprocess_depth(in.sparse, config.depth);
    const auto t1 = Clock::now();
    std::future<runtime::InferenceResult> future;
    Clock::time_point t2;
    Clock::time_point t3;
    try {
      future = stack.submit(std::move(rgb), std::move(depth), {});
      t2 = Clock::now();
      const runtime::InferenceResult result = future.get();
      t3 = Clock::now();
      const Verdict verdict = check_result(result, in);
      served.response.degraded = result.degraded;
      served.response.correct = verdict.correct;
      served.bitwise = verdict.bitwise;
    } catch (const std::exception&) {
      t3 = Clock::now();
      t2 = t2 == Clock::time_point{} ? t3 : t2;
      served.response.failed = true;
    }
    served.response.triage_degraded = in.triage_degraded;
    served.response.latency_ms = ms_between(t0, t3);
    if (tracer != nullptr) {
      const uint64_t id = next_request++;
      const int root = tracer->open("request", t0, id, 0);
      tracer->add("kitti.preprocess_depth", t0, t1, id, root, 0);
      tracer->add("runtime.submit", t1, t2, id, root, 0);
      tracer->add("runtime.wait", t2, t3, id, root, 0);
      tracer->close(root, t3);
    }
    return served;
  };
  wl.first_response = [&wl, serve](Stack& stack) {
    return serve(stack, wl.inputs.front(), nullptr).response.correct;
  };
  wl.phase = [&wl, serve](double seconds, SpanRecorder* tracer) {
    return closed_loop(seconds, [&](uint64_t k) {
      return serve(wl.stack, wl.inputs[k % wl.inputs.size()], tracer);
    });
  };
}

void make_drive(const Options& options, Workload& wl, uint64_t& next_request) {
  SeedStream rng(options.seed);
  wl.checkpoint = write_checkpoint(options, rng.next());
  scenario::StreamConfig config;
  config.corruptions = scenario::parse_corruptions("fog:0.5+night:0.4");
  config.lidar_period = kDriveLidarPeriod;
  config.scene_seed = rng.next();
  config.noise_seed = rng.next();
  config.corruption_seed = rng.next();
  scenario::StreamGenerator generator(config);
  for (int i = 0; i < kDriveFrames; ++i) {
    scenario::StreamFrame frame = generator.next();
    Input input;
    input.rgb = std::move(frame.rgb);
    input.depth = std::move(frame.depth);
    input.depth_refreshed = frame.depth_refreshed;
    wl.inputs.push_back(std::move(input));
  }
  // The stream restarts at frame 0 (a refresh) after its last frame, so
  // cycling the recorded frames keeps depth_unchanged truthful.
  if (!wl.inputs.front().depth_refreshed) {
    throw std::runtime_error("drive_stream: frame 0 carries no LiDAR scan");
  }
  attach_references(*load_net(wl.checkpoint), wl.inputs);
  // A preprocessing probe input at the stream's geometry.
  const vision::Camera camera = camera_for(config.dataset);
  wl.inputs.front().sparse = render_input(config.dataset, camera, rng).sparse;

  wl.cache = std::make_unique<roadseg::StreamFeatureCache>();
  const auto serve = [&next_request](Stack& stack, const Input& in,
                                     roadseg::StreamFeatureCache& cache,
                                     SpanRecorder* tracer) {
    Tensor rgb = in.rgb;  // staging copies, outside the clock
    Tensor depth = in.depth;
    serve::ServeOptions options;
    options.tenant = "stream";
    options.route_key = 1;
    options.stream_cache = &cache;
    options.depth_unchanged = !in.depth_refreshed;
    Served served;
    const auto t0 = Clock::now();
    Clock::time_point t1;
    Clock::time_point t2;
    try {
      std::future<runtime::InferenceResult> future =
          stack.submit(std::move(rgb), std::move(depth), options);
      t1 = Clock::now();
      const runtime::InferenceResult result = future.get();
      t2 = Clock::now();
      const Verdict verdict = check_result(result, in);
      served.response.degraded = result.degraded;
      served.response.correct = verdict.correct;
      served.bitwise = verdict.bitwise;
    } catch (const std::exception&) {
      t2 = Clock::now();
      t1 = t1 == Clock::time_point{} ? t2 : t1;
      served.response.failed = true;
      cache.invalidate();
    }
    served.response.triage_degraded = in.triage_degraded;
    served.response.latency_ms = ms_between(t0, t2);
    if (tracer != nullptr) {
      const uint64_t id = next_request++;
      const int root = tracer->open("request", t0, id, 0);
      tracer->add("serve.submit", t0, t1, id, root, 0);
      tracer->add("serve.wait", t1, t2, id, root, 0);
      tracer->close(root, t2);
    }
    return served;
  };
  wl.door_shards = 1;
  wl.first_response = [&wl, serve](Stack& stack) {
    roadseg::StreamFeatureCache first;
    return serve(stack, wl.inputs.front(), first, nullptr).response.correct;
  };
  wl.phase = [&wl, serve](double seconds, SpanRecorder* tracer) {
    // Every phase starts the drive over at frame 0, a LiDAR refresh.
    return closed_loop(seconds, [&](uint64_t k) {
      return serve(wl.stack, wl.inputs[k % wl.inputs.size()], *wl.cache,
                   tracer);
    });
  };
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

std::string json_object(const std::vector<std::pair<std::string, std::string>>& kv) {
  std::string out = "{";
  for (size_t i = 0; i < kv.size(); ++i) {
    out += (i ? ",\"" : "\"") + kv[i].first + "\":" + kv[i].second;
  }
  return out + "}";
}

std::string phase_detail(const Phase& phase) {
  const SlicedTail tail =
      sliced_tail(phase.latency_ms, kMaxTailSlices, kTailMaxPercentile);
  const TailPoint uncapped = tail_point(phase.latency_ms);
  std::vector<std::pair<std::string, std::string>> outcomes;
  for (const auto& [name, count] : phase.outcomes) {
    outcomes.emplace_back(name, format_number(static_cast<double>(count)));
  }
  const double attempted = static_cast<double>(std::max<uint64_t>(phase.attempted, 1));
  return json_object({
      {"attempted", format_number(static_cast<double>(phase.attempted))},
      {"served", format_number(static_cast<double>(phase.served))},
      {"error_rate",
       format_number(static_cast<double>(phase.failed + phase.served -
                                       phase.correct) / attempted)},
      {"latency_tail_percentile", format_number(tail.percentile)},
      {"latency_tail_samples_beyond", format_number(static_cast<double>(tail.beyond))},
      {"latency_tail_slices", format_number(static_cast<double>(tail.slices))},
      {"latency_samples", format_number(static_cast<double>(tail.samples))},
      {"latency_uncapped_tail_percentile", format_number(uncapped.percentile)},
      {"latency_uncapped_tail_ms", format_number(uncapped.value)},
      {"latency_limit_ms", format_number(kLatencyLimitMs)},
      {"host_steal_share",
       format_number(phase.host.total > 0.0 ? phase.host.steal / phase.host.total
                                            : 0.0)},
      {"bitwise_equal_ratio",
       format_number(static_cast<double>(phase.bitwise) /
                   static_cast<double>(std::max<uint64_t>(phase.served, 1)))},
      {"outcomes", json_object(outcomes)},
  });
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"cam_128x384",
                                                  "drive_stream"};
  return kNames;
}

RunResult run_workload(const Options& options) {
  uint64_t next_request = 1;
  Workload wl;
  const auto setup_start = Clock::now();
  if (options.workload == "cam_128x384") {
    make_cam(options, wl, next_request);
  } else if (options.workload == "drive_stream") {
    make_drive(options, wl, next_request);
  } else {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  const double bench_setup_s = ms_between(setup_start, Clock::now()) / 1e3;

  RunResult result;
  // Set-up samples and bindings, known once the run has set up.
  using Fields = std::vector<std::pair<std::string, std::string>>;
  const auto detail_with = [&](const Fields& more) {
    Fields detail = {
        {"distinct_inputs",
         format_number(static_cast<double>(wl.inputs.size()))},
        {"bench_setup_s", format_number(bench_setup_s)},
        {"setup_samples_s", [&] {
           std::string s = "[";
           for (size_t i = 0; i < wl.setup_s.size(); ++i) {
             s += (i ? "," : "") + format_number(wl.setup_s[i]);
           }
           return s + "]";
         }()},
        {"setup_solver_selected", [&] {
           Fields counts;
           for (const auto& [solver, count] : wl.solver_selected) {
             counts.emplace_back(solver, format_number(count));
           }
           return json_object(counts);
         }()},
    };
    detail.insert(detail.end(), more.begin(), more.end());
    return json_object(detail);
  };

  if (!options.trace) {
    // kSetUps rounds of (set up a fresh stack; serve on it for a share of
    // the run), so the set-up samples spread over the whole run and a spell
    // of host noise moves their median little. The peak-RSS mark is reset
    // after each set-up, so peak_rss_mb covers serving only.
    Phase phase;
    double peak_mb = 0.0;
    for (int round = 0; round < kSetUps; ++round) {
      set_up(wl);
      reset_peak_rss();
      phase.merge(wl.phase(options.seconds / kSetUps, nullptr));
      peak_mb = std::max(peak_mb, peak_rss_mb());
    }
    const SlicedTail tail =
        sliced_tail(phase.latency_ms, kMaxTailSlices, kTailMaxPercentile);
    result.attempted = phase.attempted;
    result.failed = phase.failed + (phase.served - phase.correct);
    // Any refused, failed or wrong response makes the run incorrect.
    result.correct = result.failed == 0 && phase.served > 0;
    result.metrics = {
        {"setup_s", median(wl.setup_s)},
        {"latency_p50_ms", median(phase.latency_ms)},
        {"latency_tail_ms", tail.value},
        {"throughput_fps", static_cast<double>(phase.correct) / phase.wall_s},
        {"goodput_rps", static_cast<double>(phase.good) / phase.wall_s},
        {"cpu_ms_per_frame",
         phase.cpu_s * 1e3 / static_cast<double>(std::max<uint64_t>(phase.served, 1))},
        {"peak_rss_mb", peak_mb},
    };
    result.detail_json = detail_with({{"phase", phase_detail(phase)}});
    return result;
  }

  // Traced run: set up kSetUps times and keep the last stack; then
  // untraced and traced slices alternate on it, so both halves see the same
  // host conditions and the ratio of their median latencies is the tracing
  // overhead; then the layer probes. Counter-derived layer metrics cover
  // both halves.
  for (int i = 0; i < kSetUps; ++i) {
    set_up(wl);
  }
  const RegistryView before = registry_now();
  const serve::FrontDoorStats door_before =
      wl.stack.door ? wl.stack.door->stats() : serve::FrontDoorStats{};
  const int64_t hits_before = wl.cache ? wl.cache->hits : 0;
  const int64_t misses_before = wl.cache ? wl.cache->misses : 0;

  SpanRecorder tracer;
  Phase untraced;
  Phase traced;
  for (int slice = 0; slice < kTraceSlices; ++slice) {
    const bool on = slice % 2 == 1;
    (on ? traced : untraced)
        .merge(wl.phase(options.seconds / kTraceSlices, on ? &tracer : nullptr));
  }
  Phase both = untraced;
  both.merge(traced);

  const RegistryView after = registry_now();
  const serve::FrontDoorStats door_after =
      wl.stack.door ? wl.stack.door->stats() : serve::FrontDoorStats{};
  const double arena_peak =
      static_cast<double>(tensor::Workspace::global_stats().peak_bytes);
  const runtime::RuntimeStats engine = wl.stack.engine_stats();
  if (wl.stack.door) {
    wl.stack.door->shutdown();
  } else {
    wl.stack.engine->shutdown();
  }

  const std::vector<Span> timed_spans = tracer.spans();
  const auto timed_layers = SpanRecorder::layer_times(timed_spans);
  const bool preprocess_timed = timed_layers.count("kitti.preprocess_depth") > 0;
  std::map<std::string, double> probes =
      layer_probes(*wl.stack.net, wl.inputs.front(), !preprocess_timed, tracer);
  if (preprocess_timed) {
    probes["kitti.preprocess_ms"] =
        timed_layers.at("kitti.preprocess_depth").median_ms;
  }

  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double forwards = counter_delta(before, after,
                                        "roadfusion_engine_batches_formed_total");
  const double submitted =
      static_cast<double>(door_after.submitted - door_before.submitted);
  const auto span_median = [&](const std::string& name) {
    const auto it = timed_layers.find(name);
    return it == timed_layers.end() ? 0.0 : it->second.median_ms;
  };

  std::map<std::string, double> m = probes;
  m["plan.declined_per_forward"] = ratio(
      counter_delta(before, after, "roadfusion_plan_declined_total"), forwards);
  m["plan.compiles_in_timed_phase"] =
      counter_delta(before, after, "roadfusion_plan_compiles_total");
  for (const std::string& solver : counted_solvers()) {
    m["tune.solver_selected." + solver] = counter_delta(
        before, after,
        "roadfusion_solver_selected_total{solver=\"" + solver + "\"}");
  }
  m["runtime.queue_wait_p50_ms"] =
      histogram_quantile(before, after, "roadfusion_engine_queue_wait_ms", 0.5);
  m["runtime.queue_wait_p99_ms"] =
      histogram_quantile(before, after, "roadfusion_engine_queue_wait_ms", 0.99);
  m["runtime.mean_batch_size"] = ratio(
      counter_delta(before, after, "roadfusion_engine_batched_requests_total"),
      forwards);
  m["runtime.engine_latency_p50_ms"] = engine.p50_latency_ms;
  m["serve.submit_ms"] = span_median("serve.submit");
  m["serve.forced_degraded_ratio"] = ratio(
      static_cast<double>(door_after.forced_degraded - door_before.forced_degraded),
      submitted);
  m["serve.shed_ratio"] =
      ratio(static_cast<double>(door_after.shed - door_before.shed), submitted);
  m["serve.spill_ratio"] =
      ratio(static_cast<double>(door_after.spills - door_before.spills), submitted);
  m["serve.tier1_entries"] = static_cast<double>(door_after.tier_entries[1] -
                                                 door_before.tier_entries[1]);
  m["serve.tier2_entries"] = static_cast<double>(door_after.tier_entries[2] -
                                                 door_before.tier_entries[2]);
  const double hits = wl.cache ? static_cast<double>(wl.cache->hits - hits_before) : 0.0;
  const double misses =
      wl.cache ? static_cast<double>(wl.cache->misses - misses_before) : 0.0;
  m["stream.cache_hit_ratio"] = ratio(hits, hits + misses);
  m["tensor.arena_peak_bytes"] = arena_peak;
  m["obs.tracing_overhead_ratio"] =
      median(traced.latency_ms) / median(untraced.latency_ms) - 1.0;
  m["check.bitwise_equal_ratio"] = ratio(static_cast<double>(both.bitwise),
                                         static_cast<double>(both.served));

  result.metrics = std::move(m);
  result.attempted = both.attempted;
  result.failed = both.failed + (both.served - both.correct);
  result.correct = result.failed == 0 && both.served > 0;

  // Self time per span name over the traced half and the probes, and the
  // share of request latency no benchmark span accounts for.
  const std::vector<Span> all_spans = tracer.spans();
  std::vector<std::pair<std::string, std::string>> layers;
  for (const auto& [name, layer] : SpanRecorder::layer_times(all_spans)) {
    layers.emplace_back(
        name, json_object({{"spans", format_number(static_cast<double>(layer.spans))},
                           {"total_ms", format_number(layer.total_ms)},
                           {"self_ms", format_number(layer.self_ms)},
                           {"median_ms", format_number(layer.median_ms)}}));
  }
  const std::string trace_path = options.out_dir + "/trace_" +
                                 options.workload + "_" +
                                 std::to_string(options.seed) + ".json";
  std::ofstream(trace_path) << SpanRecorder::chrome_json(all_spans);
  result.detail_json = detail_with({
      {"untraced_phase", phase_detail(untraced)},
      {"traced_phase", phase_detail(traced)},
      {"span_layers", json_object(layers)},
      {"request_unaccounted_share",
       format_number(SpanRecorder::unaccounted_share(timed_spans, "request"))},
      {"chrome_trace", "\"" + trace_path + "\""},
  });
  return result;
}

}  // namespace rfbench

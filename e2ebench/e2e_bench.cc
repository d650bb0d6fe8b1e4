// e2e_bench — end-to-end clustering-job benchmark driver.
//
//   e2e_bench --workload hz-basic|hz-enhanced-prune|vertical|serve-mesh3
//             --seed N --seconds S [--trace 0|1] [--smoke]
//             [--trace-out spans.jsonl]
//
// Runs whole clustering jobs through the public core API
// (PartyRuntime::Connect/Run, PartyServer::Start/SubmitJob), checks every
// job's labels against an independent reference, and prints one JSON
// object of raw measurements as the last line of stdout; run.py turns it
// into the benchmark's metrics. Every layer is measured from outside: by
// timing the calls this file makes into that layer's public functions,
// and by a Channel decorator around the endpoints it hands to the
// runtimes. With --trace 1 the decorator records every Send/Recv, the
// crypto/bigint probes run, and the spans are written to --trace-out.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bigint/ifma.h"
#include "bigint/kernels.h"
#include "bigint/limb.h"
#include "bigint/montgomery.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/run.h"
#include "core/serve.h"
#include "crypto/paillier.h"
#include "crypto/rsa.h"
#include "data/fixed_point.h"
#include "data/generators.h"
#include "data/partitioners.h"
#include "dbscan/dbscan.h"
#include "eval/cost_model.h"
#include "eval/metrics.h"
#include "eval/plan_eval.h"
#include "net/memory_channel.h"
#include "net/party_mesh.h"
#include "net/socket_channel.h"

namespace ppdbscan {
namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

/// Seconds since process start (the time base of every span).
double Now() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// --- minimal JSON writer -----------------------------------------------------

/// Streaming JSON builder: objects and arrays nest, commas are automatic.
class Json {
 public:
  Json& Open(char bracket) {
    Comma();
    out_ += bracket;
    first_.push_back(true);
    return *this;
  }
  Json& Close(char bracket) {
    out_ += bracket;
    first_.pop_back();
    return *this;
  }
  Json& Key(const std::string& key) {
    Comma();
    out_ += Quote(key) + ':';
    pending_value_ = true;
    return *this;
  }
  Json& Num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(buf);
  }
  Json& Int(uint64_t v) { return Raw(std::to_string(v)); }
  Json& Bool(bool v) { return Raw(v ? "true" : "false"); }
  Json& Str(const std::string& v) { return Raw(Quote(v)); }
  Json& Nums(const std::vector<double>& vs) {
    Open('[');
    for (double v : vs) Num(v);
    return Close(']');
  }
  const std::string& str() const { return out_; }

  static std::string Quote(const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        q += '\\';
        q += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        q += buf;
      } else {
        q += c;
      }
    }
    return q + "\"";
  }

 private:
  Json& Raw(const std::string& text) {
    Comma();
    out_ += text;
    return *this;
  }
  void Comma() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
  }

  std::string out_;
  std::vector<bool> first_;
  bool pending_value_ = false;
};

// --- spans -------------------------------------------------------------------

/// One timed interval at a layer boundary. `parent` is the id of the span
/// that caused it (0 for roots); job/attempt/party tie spans of one job
/// together across parties.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int64_t id = 0;
  int64_t parent = 0;
  int64_t job = -1;
  int attempt = 0;
  int party = -1;
  int tag = -1;  // message tag of a net.send/net.recv span
};

/// In-memory span store, written once at exit. Disabled (records nothing)
/// unless --trace 1.
class Tracer {
 public:
  void Enable() { enabled_ = true; }
  int64_t NewId() { return next_id_.fetch_add(1); }

  void Record(Span span) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  bool Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":%s,\"start\":%.9f,\"end\":%.9f,\"id\":%" PRId64
                   ",\"parent\":%" PRId64 ",\"job\":%" PRId64
                   ",\"attempt\":%d,\"party\":%d,\"tag\":%d}\n",
                   Json::Quote(s.name).c_str(), s.start, s.end, s.id,
                   s.parent, s.job, s.attempt, s.party, s.tag);
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

/// Records [construction, destruction) as a span named `name`.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name, int64_t parent = 0, int64_t job = -1,
                      int party = -1)
      : span_{std::move(name), Now(), 0, GlobalTracer().NewId(), parent, job,
              0, party, -1} {}
  ~ScopedSpan() {
    span_.end = Now();
    GlobalTracer().Record(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
};

// --- the Channel decorator ---------------------------------------------------

/// Cost of one message tag within one party's job.
struct TagCost {
  double compute_s = 0;  // the party's gap before the frame (send or recv)
  double wait_s = 0;     // time blocked in Recv for the frame
  double send_s = 0;     // time inside Send for the frame
  uint64_t frames = 0;
  uint64_t bytes = 0;
};

/// One party's timeline of one job across all of its decorated links.
/// The compute gap before each frame is charged to that frame's tag, so
/// the per-tag compute + wait + send sums reconcile with the job's wall
/// time up to the trailing gap after the party's last frame.
struct PartySnapshot {
  double wall_s = 0;
  std::map<int, TagCost> by_tag;  // recorded jobs only
  uint64_t comparator_queries = 0;
};

/// Frames that open one secure comparison (smc/comparator.cc, smc/ymp.cc):
/// ideal, blinded-Paillier and YMPP queries.
bool IsComparatorQuery(int tag) {
  return tag == 0x0401 || tag == 0x0403 || tag == 0x0301;
}

class PartyTimeline {
 public:
  explicit PartyTimeline(int party) : party_(party) {}

  void Begin(bool recording, int64_t job, int64_t job_span) {
    std::lock_guard<std::mutex> lock(mu_);
    recording_ = recording;
    job_ = job;
    job_span_ = job_span;
    start_ = mark_ = Now();
    by_tag_.clear();
    queries_ = 0;
  }

  PartySnapshot End() {
    std::lock_guard<std::mutex> lock(mu_);
    recording_ = false;
    return PartySnapshot{Now() - start_, by_tag_, queries_.load()};
  }

  /// Whether frames are timed; when not, the decorator only counts.
  bool recording() const { return recording_.load(); }

  void CountSent(int tag) {
    if (IsComparatorQuery(tag)) queries_.fetch_add(1);
  }

  void Charge(int tag, double t0, double t1, bool recv, size_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!recording_) return;
    TagCost& cost = by_tag_[tag];
    cost.compute_s += std::max(0.0, t0 - mark_);
    (recv ? cost.wait_s : cost.send_s) += t1 - t0;
    cost.frames += 1;
    cost.bytes += bytes;
    mark_ = t1;
    GlobalTracer().Record(Span{recv ? "net.recv" : "net.send", t0, t1,
                               GlobalTracer().NewId(), job_span_, job_, 0,
                               party_, tag});
  }

 private:
  const int party_;
  std::mutex mu_;
  std::atomic<bool> recording_{false};
  std::atomic<uint64_t> queries_{0};
  int64_t job_ = -1;
  int64_t job_span_ = 0;
  double start_ = 0;
  double mark_ = 0;
  std::map<int, TagCost> by_tag_;
};

int TagOf(const std::vector<uint8_t>& frame) {
  return frame.size() < 2 ? -1 : (frame[0] << 8 | frame[1]);
}

/// Forwards to the wrapped endpoint (not owned) and, while its party's job
/// is recorded, charges every frame to the party's timeline — modelled on
/// net/recording_channel.h. Unrecorded jobs pay one tag check per send.
class TimedChannel : public Channel {
 public:
  TimedChannel(Channel* inner, PartyTimeline* timeline)
      : inner_(inner), timeline_(timeline) {}

  void Close() override { inner_->Close(); }
  void set_recv_deadline_ms(int deadline_ms) override {
    Channel::set_recv_deadline_ms(deadline_ms);
    inner_->set_recv_deadline_ms(deadline_ms);
  }

 protected:
  Status SendImpl(const std::vector<uint8_t>& frame) override {
    timeline_->CountSent(TagOf(frame));
    if (!timeline_->recording()) return inner_->Send(frame);
    const double t0 = Now();
    Status status = inner_->Send(frame);
    if (status.ok()) {
      timeline_->Charge(TagOf(frame), t0, Now(), false, frame.size());
    }
    return status;
  }
  Result<std::vector<uint8_t>> RecvImpl() override {
    if (!timeline_->recording()) return inner_->Recv();
    const double t0 = Now();
    Result<std::vector<uint8_t>> frame = inner_->Recv();
    if (frame.ok()) {
      timeline_->Charge(TagOf(*frame), t0, Now(), true, frame->size());
    }
    return frame;
  }

 private:
  Channel* inner_;
  PartyTimeline* timeline_;
};

// --- workloads ---------------------------------------------------------------

constexpr double kScale = 16.0;
constexpr double kEps = 1.0;
constexpr size_t kMinPts = 4;
constexpr double kNoiseBox = 8.0;
/// Seeds that do not come from --seed: the gate inputs, and the parties'
/// key material (so the gate pass's ciphertext bytes are seed-fixed too).
constexpr uint64_t kGateSeed = 0x9a7e;
constexpr uint64_t kKeySeed = 0x5eed0000;
/// Public coordinate bound every party configures its comparator with
/// (blob centers lie in [-4, 4] with stddev 0.5, noise in [-8, 8]).
constexpr int64_t kMaxAbsCoord = 12 * 16;

enum class Scheme { kHorizontal, kVertical, kMultiparty };
enum class Transport { kMemory, kSocket };

struct Workload {
  std::string name;
  Scheme scheme = Scheme::kHorizontal;
  Transport transport = Transport::kMemory;
  HorizontalMode mode = HorizontalMode::kBasic;
  PlanMode plan = PlanMode::kExact;
  bool spatial_split = false;
  size_t per_cluster = 0;  // blob points per cluster (3 clusters)
  size_t noise = 0;        // uniform noise points
  /// Gate inputs: fixed (the same for every --seed), run once before the
  /// measured window; their seed-fixed counts are gated exactly.
  size_t gate_inputs = 1;
  /// Seed-derived inputs the measured window cycles over.
  size_t timed_inputs = 1;
  /// serve-mesh3 only: points per party range over [min, max].
  size_t party_min = 0;
  size_t party_max = 0;
  size_t setups = 9;  // Connect / Start repetitions for setup_s
};

std::optional<Workload> FindWorkload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "hz-basic") {
    w.per_cluster = smoke ? 4 : 14;
    w.noise = smoke ? 2 : 6;
    w.timed_inputs = smoke ? 1 : 4;
  } else if (name == "hz-enhanced-prune") {
    w.transport = Transport::kSocket;
    w.mode = HorizontalMode::kEnhanced;
    w.plan = PlanMode::kPrune;
    w.spatial_split = true;
    w.per_cluster = smoke ? 6 : 64;
    w.noise = smoke ? 2 : 4;
    w.gate_inputs = smoke ? 1 : 3;
    w.timed_inputs = smoke ? 1 : 32;  // about one job each per window
  } else if (name == "vertical") {
    w.scheme = Scheme::kVertical;
    w.per_cluster = smoke ? 3 : 8;
    w.noise = smoke ? 1 : 4;
    w.timed_inputs = smoke ? 1 : 4;
  } else if (name == "serve-mesh3") {
    w.scheme = Scheme::kMultiparty;
    w.transport = Transport::kSocket;
    w.party_min = 2;
    w.party_max = smoke ? 2 : 4;
    w.gate_inputs = smoke ? 1 : 6;
    w.timed_inputs = smoke ? 1 : 27;  // the full 3 x 3 x 3 size mix
    w.setups = 5;
  } else {
    return std::nullopt;
  }
  if (smoke) w.setups = 1;
  return w;
}

/// One job's inputs: the pooled dataset plus each party's view.
struct JobInput {
  Dataset all{2};
  std::vector<Dataset> views;
  /// Horizontal-family: row of `all` for each party-local row.
  std::vector<std::vector<size_t>> ids;
};

Dataset Encode(const RawDataset& raw) {
  Result<Dataset> ds = FixedPointEncoder(kScale).Encode(raw);
  PPD_CHECK(ds.ok());
  for (size_t i = 0; i < ds->size(); ++i) {
    for (int64_t c : ds->point(i)) {
      PPD_CHECK(c >= -kMaxAbsCoord && c <= kMaxAbsCoord);
    }
  }
  return std::move(ds).value();
}

/// Seeded blobs-plus-noise points in random order. The three blob centers
/// are fixed — the middle one straddles x = 0, where the spatial split
/// cuts — so the seed moves the points but not the geometry the planner's
/// savings depend on, and job cost stays comparable across seeds.
RawDataset MakePoints(SecureRng& rng, size_t per_cluster, size_t noise) {
  static constexpr double kCenters[3][2] = {{-4, -1}, {0, 1}, {4, -1}};
  RawDataset raw;
  for (const auto& center : kCenters) {
    RawDataset blob = MakeBlobs(rng, 1, per_cluster, 2, 0.5, 0.0);
    for (std::vector<double>& p : blob.points) {
      p[0] += center[0];
      p[1] += center[1];
      raw.points.push_back(std::move(p));
      raw.true_labels.push_back(static_cast<int>(raw.true_labels.size() /
                                                 per_cluster));
    }
  }
  AddUniformNoise(raw, rng, noise, kNoiseBox);
  for (size_t i = raw.size(); i > 1; --i) {
    size_t j = rng.UniformU64(i);
    std::swap(raw.points[i - 1], raw.points[j]);
    std::swap(raw.true_labels[i - 1], raw.true_labels[j]);
  }
  return raw;
}

/// Splits `all` into consecutive row blocks of the given sizes.
void SplitRows(JobInput& in, const std::vector<size_t>& sizes) {
  size_t row = 0;
  for (size_t size : sizes) {
    Dataset view(in.all.dims());
    std::vector<size_t> ids;
    for (size_t k = 0; k < size; ++k, ++row) {
      PPD_CHECK(view.Add(in.all.point(row)).ok());
      ids.push_back(row);
    }
    in.views.push_back(std::move(view));
    in.ids.push_back(std::move(ids));
  }
}

/// serve-mesh3's job-size mix: every (n0, n1, n2) with each party's size
/// in [party_min, party_max], in a seeded order; the first `count` are
/// used. A full mix has the same job sizes, and so the same latency
/// distribution, for every seed; only their order and points differ.
std::vector<std::vector<size_t>> ServeSizeMix(const Workload& w,
                                              uint64_t seed, size_t count) {
  std::vector<std::vector<size_t>> shapes;
  for (size_t a = w.party_min; a <= w.party_max; ++a) {
    for (size_t b = w.party_min; b <= w.party_max; ++b) {
      for (size_t c = w.party_min; c <= w.party_max; ++c) {
        shapes.push_back({a, b, c});
      }
    }
  }
  SecureRng rng(seed);
  for (size_t i = shapes.size(); i > 1; --i) {
    std::swap(shapes[i - 1], shapes[rng.UniformU64(i)]);
  }
  PPD_CHECK(count <= shapes.size());
  shapes.resize(count);
  return shapes;
}

JobInput MakeJobInput(const Workload& w, uint64_t seed,
                      const std::vector<size_t>& party_sizes) {
  SecureRng rng(seed);
  JobInput in;
  if (w.scheme == Scheme::kMultiparty) {
    size_t total = 0;
    for (size_t size : party_sizes) total += size;
    // Mostly clustered points with a little noise, like the other jobs.
    const size_t per_cluster = (total - total / 6) / 3;
    RawDataset raw = MakePoints(rng, per_cluster, total - 3 * per_cluster);
    in.all = Encode(raw);
    SplitRows(in, party_sizes);
    return in;
  }
  RawDataset raw = MakePoints(rng, w.per_cluster, w.noise);
  in.all = Encode(raw);
  if (w.scheme == Scheme::kVertical) {
    Result<VerticalPartition> split = PartitionVertical(in.all, 1);
    PPD_CHECK(split.ok());
    in.views.push_back(std::move(split->alice));
    in.views.push_back(std::move(split->bob));
    return in;
  }
  if (w.spatial_split) {
    Result<HorizontalPartition> split =
        PartitionHorizontalSpatial(in.all, 0, 0.5);
    PPD_CHECK(split.ok());
    in.views.push_back(std::move(split->alice));
    in.views.push_back(std::move(split->bob));
    in.ids.push_back(std::move(split->alice_ids));
    in.ids.push_back(std::move(split->bob_ids));
    return in;
  }
  // Random 50/50 split: the rows are already in random order.
  SplitRows(in, {in.all.size() / 2, in.all.size() - in.all.size() / 2});
  return in;
}

ProtocolOptions MakeOptions(const Workload& w) {
  ProtocolOptions options;
  options.params.eps_squared =
      *FixedPointEncoder(kScale).EncodeEpsSquared(kEps);
  options.params.min_pts = kMinPts;
  options.comparator.kind = ComparatorKind::kBlindedPaillier;
  options.comparator.magnitude_bound =
      RecommendedComparatorBound(2, kMaxAbsCoord);
  options.mode = w.mode;
  options.plan.mode = w.plan;
  return options;
}

std::vector<ClusteringJob> MakeJobs(const Workload& w, const JobInput& in,
                                    const ProtocolOptions& options) {
  std::vector<ClusteringJob> jobs;
  for (size_t p = 0; p < in.views.size(); ++p) {
    const PartyRole role = p == 0 ? PartyRole::kAlice : PartyRole::kBob;
    switch (w.scheme) {
      case Scheme::kHorizontal:
        jobs.push_back(ClusteringJob::Horizontal(in.views[p], role, options));
        break;
      case Scheme::kVertical:
        jobs.push_back(ClusteringJob::Vertical(in.views[p], role, options));
        break;
      case Scheme::kMultiparty:
        jobs.push_back(ClusteringJob::Multiparty(in.views[p], p,
                                                 in.views.size(), options));
        break;
    }
  }
  return jobs;
}

// --- references --------------------------------------------------------------

/// What every party of one job must output.
struct Reference {
  std::vector<PartyClusteringResult> parties;
  Labels central;  // plaintext DBSCAN over the pooled points
};

PartyClusteringResult FromDbscan(const DbscanResult& r) {
  return PartyClusteringResult{r.labels, r.is_core, r.num_clusters};
}

/// Horizontal: the plaintext exact-semantics oracle per party. Vertical:
/// centralized DBSCAN for every party. Multiparty: an in-process
/// ExecuteLocal run of the same job.
Result<Reference> MakeReference(const Workload& w, const JobInput& in,
                                const std::vector<ClusteringJob>& jobs,
                                const SmcOptions& smc, uint64_t seed) {
  Reference ref;
  const DbscanParams params = jobs[0].options.params;
  ref.central = RunDbscan(in.all, params).labels;
  switch (w.scheme) {
    case Scheme::kHorizontal:
      for (size_t p = 0; p < in.views.size(); ++p) {
        ref.parties.push_back(FromDbscan(SimulateHorizontalParty(
            in.views[p], {&in.views[1 - p]}, params)));
      }
      break;
    case Scheme::kVertical: {
      const DbscanResult central = RunDbscan(in.all, params);
      ref.parties.assign(in.views.size(), FromDbscan(central));
      break;
    }
    case Scheme::kMultiparty: {
      std::vector<LocalJob> local;
      for (size_t p = 0; p < jobs.size(); ++p) {
        local.push_back({jobs[p], seed + 1000 + p});
      }
      PPD_ASSIGN_OR_RETURN(std::vector<RunOutcome> outs,
                           ExecuteLocal(local, smc));
      for (RunOutcome& out : outs) {
        ref.parties.push_back(std::move(out.clustering));
      }
      break;
    }
  }
  return ref;
}

bool Matches(const PartyClusteringResult& got,
             const PartyClusteringResult& want, Scheme scheme) {
  if (got.is_core != want.is_core) return false;
  if (scheme == Scheme::kVertical) {
    return AdjustedRandIndex(got.labels, want.labels) >= 1.0 - 1e-12;
  }
  return got.labels == want.labels;
}

/// ARI of the parties' combined labels against centralized DBSCAN. Each
/// party's cluster ids are its own, so they are offset to stay distinct.
double AriVsCentral(const Workload& w, const JobInput& in,
                    const std::vector<const PartyClusteringResult*>& outs,
                    const Labels& central) {
  if (w.scheme == Scheme::kVertical) {
    return AdjustedRandIndex(outs[0]->labels, central);
  }
  Labels combined(in.all.size(), kUnclassified);
  int32_t offset = 0;
  for (size_t p = 0; p < outs.size(); ++p) {
    for (size_t i = 0; i < in.ids[p].size(); ++i) {
      const int32_t l = outs[p]->labels[i];
      combined[in.ids[p][i]] = l >= 0 ? l + offset : l;
    }
    offset += static_cast<int32_t>(outs[p]->num_clusters);
  }
  return AdjustedRandIndex(combined, central);
}

// --- per-job record ----------------------------------------------------------

/// Everything measured about one job, summed over parties unless noted.
struct JobRecord {
  size_t input = 0;
  double wall_s = 0;
  bool gate = false;  // a gate-pass job (fixed input, outside the window)
  bool traced = false;
  bool ok = false;
  std::string error;
  double ari = 0;
  uint64_t bytes = 0;
  uint64_t frames = 0;
  uint64_t rounds = 0;
  uint64_t encrypted = 0;   // PlanStats::encrypted_comparisons
  uint64_t selection = 0;   // selection_comparisons
  uint64_t candidates = 0;  // PlanStats::candidate_points
  uint64_t exact = 0;       // PlanStats::exact_comparisons
  uint64_t comparator_queries = 0;  // counted by the decorator (rigs only)
  uint64_t deadline_trips = 0;
  uint64_t aborts_seen = 0;
  double metro_wan_s = 0;  // party 0's projected link time
  double negotiate_s = 0;  // party 0
  double protocol_s = 0;   // party 0
  double pool_available = -1;  // party 0's pool depth at job start
  std::vector<PartySnapshot> parties;  // traced jobs only
};

/// Folds the parties' outcomes into `rec` and checks them against `ref`.
void Score(const Workload& w, const JobInput& in, const Reference& ref,
           const std::vector<const RunOutcome*>& outs, JobRecord& rec) {
  std::vector<const PartyClusteringResult*> results;
  rec.ok = true;
  for (size_t p = 0; p < outs.size(); ++p) {
    const RunOutcome& out = *outs[p];
    results.push_back(&out.clustering);
    rec.bytes += out.stats.total_bytes();
    rec.frames += out.stats.frames_sent + out.stats.frames_received;
    rec.rounds += out.stats.rounds;
    rec.encrypted += out.plan.encrypted_comparisons;
    rec.selection += out.selection_comparisons;
    rec.candidates += out.plan.candidate_points;
    rec.exact += out.plan.exact_comparisons;
    rec.deadline_trips += out.stats.deadline_trips;
    rec.aborts_seen += out.stats.aborts_seen;
    if (!Matches(out.clustering, ref.parties[p], w.scheme)) {
      rec.ok = false;
      rec.error =
          "party " + std::to_string(p) + " labels differ from reference";
    }
  }
  rec.metro_wan_s = ProjectedSeconds(outs[0]->stats, MetroWanLink());
  rec.negotiate_s = outs[0]->timings.negotiation_seconds;
  rec.protocol_s = outs[0]->timings.protocol_seconds;
  rec.ari = AriVsCentral(w, in, results, ref.central);
}

// --- in-process rigs over PartyRuntime ---------------------------------------

/// P parties connected by PartyRuntime::Connect (two-party) or ConnectMesh
/// (P >= 3), each endpoint wrapped in a TimedChannel.
class Rig {
 public:
  Rig(size_t parties, Transport transport)
      : p_(parties), transport_(transport) {}

  /// Builds fresh links and connects every party concurrently. Returns the
  /// wall time of the Connect calls (key generation plus key exchange).
  Result<double> Connect(uint64_t seed, const SmcOptions& smc) {
    runtimes_.clear();
    timed_.clear();
    raw_.clear();
    timelines_.clear();
    raw_.resize(p_);
    timed_.resize(p_);
    for (size_t i = 0; i < p_; ++i) {
      raw_[i].resize(p_);
      timed_[i].resize(p_);
      timelines_.push_back(
          std::make_unique<PartyTimeline>(static_cast<int>(i)));
    }
    for (size_t i = 0; i < p_; ++i) {
      for (size_t j = i + 1; j < p_; ++j) {
        PPD_RETURN_IF_ERROR(MakeLink(i, j));
      }
    }
    for (size_t i = 0; i < p_; ++i) {
      for (size_t j = 0; j < p_; ++j) {
        if (i != j) {
          timed_[i][j] = std::make_unique<TimedChannel>(raw_[i][j].get(),
                                                        timelines_[i].get());
        }
      }
    }
    std::vector<Result<PartyRuntime>> results;
    for (size_t i = 0; i < p_; ++i) {
      results.emplace_back(Status::Internal("party did not connect"));
    }
    const double t0 = Now();
    std::vector<std::thread> threads;
    for (size_t i = 0; i < p_; ++i) {
      threads.emplace_back([&, i] {
        ScopedSpan span("core.connect", 0, -1, static_cast<int>(i));
        if (p_ == 2) {
          results[i] = PartyRuntime::Connect(link(i, 1 - i),
                                             SecureRng(seed + i), smc);
        } else {
          std::vector<Channel*> links(p_, nullptr);
          for (size_t j = 0; j < p_; ++j) {
            if (j != i) links[j] = &link(i, j);
          }
          results[i] =
              PartyRuntime::ConnectMesh(links, i, SecureRng(seed + i), smc);
        }
        if (!results[i].ok()) CloseParty(i);
      });
    }
    for (std::thread& t : threads) t.join();
    const double wall = Now() - t0;
    for (size_t i = 0; i < p_; ++i) {
      PPD_RETURN_IF_ERROR(results[i].status());
      runtimes_.push_back(
          std::make_unique<PartyRuntime>(std::move(results[i]).value()));
    }
    return wall;
  }

  /// Runs one job (views[p] is party p's job) on every party concurrently.
  /// `wall_s` spans from the Run calls until the last party returns.
  std::vector<Result<RunOutcome>> Run(const std::vector<ClusteringJob>& views,
                                      int64_t job_id, bool record,
                                      double* wall_s,
                                      std::vector<PartySnapshot>* snaps) {
    std::vector<Result<RunOutcome>> outs;
    for (size_t i = 0; i < p_; ++i) {
      outs.emplace_back(Status::Internal("party did not run"));
    }
    snaps->assign(p_, PartySnapshot{});
    std::vector<double> ends(p_, 0);
    const double t0 = Now();
    std::vector<std::thread> threads;
    for (size_t i = 0; i < p_; ++i) {
      threads.emplace_back([&, i] {
        const int64_t span_id = GlobalTracer().NewId();
        const double start = Now();
        timelines_[i]->Begin(record, job_id, span_id);
        outs[i] = runtimes_[i]->Run(views[i]);
        (*snaps)[i] = timelines_[i]->End();
        ends[i] = Now();
        if (record) {
          GlobalTracer().Record(Span{"core.job", start, ends[i], span_id, 0,
                                     job_id, 0, static_cast<int>(i), -1});
        }
        if (!outs[i].ok()) CloseParty(i);
      });
    }
    for (std::thread& t : threads) t.join();
    *wall_s = *std::max_element(ends.begin(), ends.end()) - t0;
    return outs;
  }

  PartyRuntime& runtime(size_t i) { return *runtimes_[i]; }

 private:
  Channel& link(size_t i, size_t j) {
    return *timed_[i][j];
  }

  void CloseParty(size_t i) {
    for (size_t j = 0; j < p_; ++j) {
      if (raw_[i][j]) raw_[i][j]->Close();
    }
  }

  Status MakeLink(size_t i, size_t j) {
    if (transport_ == Transport::kMemory) {
      auto [a, b] = MemoryChannel::CreatePair();
      raw_[i][j] = std::move(a);
      raw_[j][i] = std::move(b);
      return Status::Ok();
    }
    PPD_ASSIGN_OR_RETURN(SocketListener listener, SocketListener::Bind(0));
    Result<std::unique_ptr<SocketChannel>> dialed =
        Status::Internal("not dialed");
    std::thread dialer([&] {
      dialed = SocketChannel::Connect("127.0.0.1", listener.port());
    });
    Result<std::unique_ptr<SocketChannel>> accepted = listener.Accept(10000);
    dialer.join();
    PPD_RETURN_IF_ERROR(dialed.status());
    PPD_RETURN_IF_ERROR(accepted.status());
    raw_[i][j] = std::move(dialed).value();
    raw_[j][i] = std::move(accepted).value();
    return Status::Ok();
  }

  const size_t p_;
  const Transport transport_;
  std::vector<std::unique_ptr<PartyTimeline>> timelines_;
  std::vector<std::vector<std::unique_ptr<Channel>>> raw_;
  std::vector<std::vector<std::unique_ptr<TimedChannel>>> timed_;
  std::vector<std::unique_ptr<PartyRuntime>> runtimes_;
};

// --- serve fleet -------------------------------------------------------------

/// Three PartyServers on a loopback PartyMesh in this process. Party 0
/// submits; parties 1 and 2 serve views built by `make_view`.
class ServeFleet {
 public:
  using ViewFactory = std::function<ClusteringJob(size_t party, uint32_t id)>;
  using Observer = std::function<void(size_t party, uint32_t id,
                                      const Result<RunOutcome>& outcome)>;

  static constexpr size_t kParties = 3;

  ServeFleet() = default;
  ServeFleet(const ServeFleet&) = delete;
  ServeFleet& operator=(const ServeFleet&) = delete;
  ~ServeFleet() { Shutdown(); }

  /// Establishes the mesh and starts every server. Fills mesh_s (slowest
  /// party's PartyMesh establishment) and start_s (PartyServer::Start on
  /// top of it).
  Status Start(uint64_t seed, const SmcOptions& smc, ViewFactory make_view,
               Observer observe) {
    std::vector<std::optional<SocketListener>> listeners(kParties);
    std::vector<MeshEndpoint> endpoints(kParties);
    for (size_t i = 1; i < kParties; ++i) {
      PPD_ASSIGN_OR_RETURN(SocketListener listener,
                           SocketListener::Bind(0, 8));
      endpoints[i].port = listener.port();
      listeners[i].emplace(std::move(listener));
    }
    std::vector<Result<PartyServer>> servers;
    for (size_t i = 0; i < kParties; ++i) {
      servers.emplace_back(Status::Internal("server did not start"));
    }
    std::vector<double> mesh_end(kParties, 0), start_end(kParties, 0);
    const double t0 = Now();
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kParties; ++i) {
      threads.emplace_back([&, i] {
        ScopedSpan span("serve.setup", 0, -1, static_cast<int>(i));
        Result<PartyMesh> mesh = PartyMesh::EstablishWithListener(
            std::move(listeners[i]), endpoints, i);
        mesh_end[i] = Now();
        if (!mesh.ok()) {
          servers[i] = mesh.status();
          return;
        }
        PartyServer::Options options;
        options.smc = smc;
        servers[i] = PartyServer::Start(std::move(*mesh),
                                        SecureRng(seed + i), options);
        start_end[i] = Now();
      });
    }
    for (std::thread& t : threads) t.join();
    mesh_s = *std::max_element(mesh_end.begin(), mesh_end.end()) - t0;
    start_s = *std::max_element(start_end.begin(), start_end.end()) - t0 -
              mesh_s;
    for (size_t i = 0; i < kParties; ++i) {
      PPD_RETURN_IF_ERROR(servers[i].status());
      servers_.push_back(
          std::make_unique<PartyServer>(std::move(servers[i]).value()));
    }
    for (size_t i = 1; i < kParties; ++i) {
      followers_.emplace_back([this, i, make_view, observe] {
        servers_[i]->Serve(
            [i, make_view](uint32_t id) -> Result<ClusteringJob> {
              return make_view(i, id);
            },
            [i, observe](uint32_t id, const Result<RunOutcome>& outcome) {
              observe(i, id, outcome);
            });
      });
    }
    return Status::Ok();
  }

  PartyServer& submitter() { return *servers_[0]; }

  /// Drains the followers and joins their threads. Idempotent.
  Status Shutdown() {
    Status status = Status::Ok();
    if (!servers_.empty() && !followers_.empty()) {
      status = servers_[0]->AnnounceShutdown();
      if (!status.ok()) {
        for (auto& server : servers_) server->RequestStop();
      }
    }
    for (std::thread& t : followers_) t.join();
    followers_.clear();
    servers_.clear();
    return status;
  }

  double mesh_s = 0;
  double start_s = 0;

 private:
  std::vector<std::unique_ptr<PartyServer>> servers_;
  std::vector<std::thread> followers_;
};

// --- probes ------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Median seconds of `reps` timed calls of `fn`, each under a span.
template <typename Fn>
double TimeMedian(const char* span_name, int reps, Fn&& fn) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    ScopedSpan span(span_name);
    const double t0 = Now();
    fn();
    samples.push_back(Now() - t0);
  }
  return Median(samples);
}

/// Direct calls into the crypto and bigint layers at the workload's key
/// size, on the global thread pool. Values are per element where the name
/// says so.
void RunProbes(const SmcOptions& smc, uint64_t seed, Json& json) {
  constexpr size_t kBatch = 64;
  SecureRng rng(seed);
  std::optional<PaillierKeyPair> key;
  const double keygen_s = TimeMedian("crypto.keygen", 3, [&] {
    Result<PaillierKeyPair> kp =
        GeneratePaillierKeyPair(rng, smc.paillier_bits);
    Result<RsaKeyPair> rsa = GenerateRsaKeyPair(rng, smc.rsa_bits);
    PPD_CHECK(kp.ok() && rsa.ok());
    key = std::move(kp).value();
  });
  Result<PaillierDecryptor> dec = PaillierDecryptor::Create(*key);
  PPD_CHECK(dec.ok());
  const PaillierContext& ctx = dec->context();
  const BigInt& n = ctx.pub().n;
  std::vector<BigInt> ms, ks;
  for (size_t i = 0; i < kBatch; ++i) {
    ms.push_back(BigInt::RandomBelow(rng, n));
    ks.push_back(BigInt::RandomBelow(rng, n));
  }
  std::vector<BigInt> cs;
  const double per = 1e9 / kBatch;
  const double encrypt_ns = per * TimeMedian("crypto.encrypt_batch", 3, [&] {
    Result<std::vector<BigInt>> out = ctx.EncryptBatch(ms, rng);
    PPD_CHECK(out.ok());
    cs = std::move(out).value();
  });
  const double decrypt_ns = per * TimeMedian("crypto.decrypt_batch", 3, [&] {
    PPD_CHECK(dec->DecryptBatch(cs).ok());
  });
  const double mulplain_ns = per * TimeMedian("crypto.mulplain_batch", 3, [&] {
    PPD_CHECK(ctx.MulPlainBatch(cs, ks).size() == kBatch);
  });
  PaillierRandomizerPool pool(ctx, SecureRng(seed + 1), kBatch);
  const double pooled_ns = per * TimeMedian("crypto.pooled_encrypt", 3, [&] {
    pool.Prefill(kBatch);
    PPD_CHECK(pool.EncryptBatch(ms).ok());
  });

  Result<MontgomeryCtx> mont = MontgomeryCtx::Create(ctx.pub().n_squared);
  PPD_CHECK(mont.ok());
  const BigInt& n2 = ctx.pub().n_squared;
  std::vector<BigInt> bases;
  for (size_t i = 0; i < 16; ++i) bases.push_back(BigInt::RandomBelow(rng, n2));
  const double exp_ns = 1e9 * TimeMedian("bigint.exp", 5, [&] {
    mont->Exp(bases[0], n);
  });
  const double expbatch_ns = 1e9 / bases.size() *
                             TimeMedian("bigint.expbatch", 3, [&] {
                               mont->ExpBatch(bases, n);
                             });
  constexpr int kMuls = 4000;
  BigInt a = mont->ToMont(bases[1]);
  const BigInt b = mont->ToMont(bases[2]);
  const double mulmont_ns = 1e9 / kMuls * TimeMedian("bigint.mulmont", 3, [&] {
    for (int i = 0; i < kMuls; ++i) a = mont->MulMont(a, b);
  });

  json.Key("probes").Open('{');
  json.Key("crypto.keygen_s").Num(keygen_s);
  json.Key("crypto.encrypt_batch_ns").Num(encrypt_ns);
  json.Key("crypto.decrypt_batch_ns").Num(decrypt_ns);
  json.Key("crypto.mulplain_batch_ns").Num(mulplain_ns);
  json.Key("crypto.pooled_encrypt_ns").Num(pooled_ns);
  json.Key("bigint.exp_ns").Num(exp_ns);
  json.Key("bigint.expbatch_ns_per_elem").Num(expbatch_ns);
  json.Key("bigint.mulmont_ns").Num(mulmont_ns);
  json.Close('}');
}

// --- output helpers ----------------------------------------------------------

void WriteHost(const SmcOptions& smc, Json& json) {
  json.Key("host").Open('{');
  json.Key("nproc").Int(std::thread::hardware_concurrency());
  json.Key("pool_threads").Int(GlobalThreadPool().size());
  json.Key("limb_kernels").Str(ActiveLimbKernels().name);
  json.Key("ifma").Bool(ifma::Available());
  json.Key("limb_bits").Int(kLimbBits);
  json.Key("paillier_bits").Int(smc.paillier_bits);
  json.Key("rsa_bits").Int(smc.rsa_bits);
  json.Close('}');
}

void WriteJob(const JobRecord& r, Json& json) {
  json.Open('{');
  json.Key("input").Int(r.input);
  json.Key("gate").Bool(r.gate);
  json.Key("wall_s").Num(r.wall_s);
  json.Key("traced").Bool(r.traced);
  json.Key("ok").Bool(r.ok);
  json.Key("error").Str(r.error);
  json.Key("ari").Num(r.ari);
  json.Key("bytes").Int(r.bytes);
  json.Key("frames").Int(r.frames);
  json.Key("rounds").Int(r.rounds);
  json.Key("encrypted").Int(r.encrypted);
  json.Key("selection").Int(r.selection);
  json.Key("candidates").Int(r.candidates);
  json.Key("exact").Int(r.exact);
  json.Key("queries").Int(r.comparator_queries);
  json.Key("deadline_trips").Int(r.deadline_trips);
  json.Key("aborts_seen").Int(r.aborts_seen);
  json.Key("metro_wan_s").Num(r.metro_wan_s);
  json.Key("negotiate_s").Num(r.negotiate_s);
  json.Key("protocol_s").Num(r.protocol_s);
  json.Key("pool_available").Num(r.pool_available);
  json.Key("parties").Open('[');
  for (const PartySnapshot& s : r.parties) {
    json.Open('{');
    json.Key("wall_s").Num(s.wall_s);
    json.Key("tags").Open('{');
    for (const auto& [tag, c] : s.by_tag) {
      json.Key(std::to_string(tag)).Open('[');
      json.Num(c.compute_s).Num(c.wait_s).Num(c.send_s);
      json.Int(c.frames).Int(c.bytes);
      json.Close(']');
    }
    json.Close('}');
    json.Close('}');
  }
  json.Close(']');
  json.Close('}');
}

void WritePool(const PaillierRandomizerPool* pool, uint64_t produced_before,
               size_t jobs, size_t peak_demand, Json& json) {
  json.Key("pool").Open('{');
  if (pool != nullptr) {
    json.Key("produced_per_job")
        .Num(jobs == 0 ? 0.0
                       : static_cast<double>(pool->produced() -
                                             produced_before) /
                             static_cast<double>(jobs));
    json.Key("peak_demand").Int(peak_demand);
    json.Key("steady_target").Int(pool->steady_target());
  }
  json.Close('}');
}

// --- the runs ----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

/// Two-party workloads, and the traced in-process replay of serve-mesh3's
/// jobs: one pass over the gate inputs, then jobs cycle over the timed
/// inputs until `seconds` have passed; traced runs alternate recorded and
/// pass-through jobs so the tracing overhead is measured in the same run.
Status RunRigJobs(const Workload& w, const Args& args, const SmcOptions& smc,
                  const std::vector<JobInput>& inputs,
                  const std::vector<std::vector<ClusteringJob>>& jobs,
                  const std::vector<Reference>& refs, double seconds,
                  bool measure_setup, Json& json) {
  const size_t parties = jobs[0].size();
  Rig rig(parties, w.scheme == Scheme::kMultiparty ? Transport::kMemory
                                                    : w.transport);
  std::vector<double> setups;
  std::vector<double> establish;
  const size_t reps = measure_setup ? w.setups : 1;
  for (size_t s = 0; s < reps; ++s) {
    PPD_ASSIGN_OR_RETURN(double wall, rig.Connect(kKeySeed + s, smc));
    setups.push_back(wall);
    establish.push_back(rig.runtime(0).establish_seconds());
  }
  json.Key("setup_s").Nums(setups);
  json.Key("establish_s").Nums(establish);

  const PaillierRandomizerPool* pool =
      parties == 2 ? rig.runtime(0).session().own_randomizer_pool()
                   : rig.runtime(0).session_with(1)->own_randomizer_pool();
  const uint64_t produced_before = pool != nullptr ? pool->produced() : 0;
  size_t peak_demand = 0;  // largest single draw, read before each adapt
  json.Key("jobs").Open('[');
  // The gate pass, then the measured window over the seed-derived inputs.
  const size_t gate = w.gate_inputs;
  const size_t timed = inputs.size() - gate;
  double loop_start = Now();
  size_t k = 0;
  for (;; ++k) {
    if (k == gate) loop_start = Now();
    if (k > gate && Now() - loop_start >= seconds) break;
    JobRecord rec;
    rec.gate = k < gate;
    rec.input = rec.gate ? k : gate + (k - gate) % timed;
    rec.traced = args.trace && k % 2 == 0;
    rec.pool_available =
        pool != nullptr ? static_cast<double>(pool->available()) : -1;
    std::vector<Result<RunOutcome>> outs =
        rig.Run(jobs[rec.input], static_cast<int64_t>(k), rec.traced,
                &rec.wall_s, &rec.parties);
    for (const PartySnapshot& snap : rec.parties) {
      rec.comparator_queries += snap.comparator_queries;
    }
    if (!rec.traced) rec.parties.clear();
    std::vector<const RunOutcome*> ok_outs;
    for (const Result<RunOutcome>& out : outs) {
      if (!out.ok()) {
        rec.error = out.status().ToString();
        break;
      }
      ok_outs.push_back(&*out);
    }
    if (rec.error.empty()) {
      Score(w, inputs[rec.input], refs[rec.input], ok_outs, rec);
    }
    WriteJob(rec, json);
    if (pool != nullptr) {
      peak_demand = std::max(peak_demand, pool->peak_demand());
    }
    if (parties > 2) {
      // What a serve daemon does between jobs (core/serve.h).
      for (size_t p = 0; p < parties; ++p) {
        for (size_t j = 0; j < parties; ++j) {
          if (j != p) rig.runtime(p).session_with(j)->AdaptRandomizerPool();
        }
      }
    }
    if (!rec.error.empty()) {  // the rig's links are closed
      ++k;
      break;
    }
  }
  json.Close(']');
  json.Key("loop_s").Num(Now() - loop_start);
  WritePool(pool, produced_before, k, peak_demand, json);
  return Status::Ok();
}

/// serve-mesh3: repeated fleet setups, then a closed submit loop with one
/// client at concurrency 1.
Status RunServe(const Workload& w, const Args& args, const SmcOptions& smc,
                const std::vector<JobInput>& inputs,
                const std::vector<std::vector<ClusteringJob>>& jobs,
                const std::vector<Reference>& refs, Json& json) {
  const size_t gate = w.gate_inputs;
  const size_t timed = inputs.size() - gate;
  const auto shape_of = [gate, timed](uint32_t id) -> size_t {
    return id <= gate ? id - 1 : gate + (id - gate - 1) % timed;
  };
  const auto make_view = [&jobs, shape_of](size_t party, uint32_t id) {
    return jobs[shape_of(id)][party];
  };
  // Follower outcomes, keyed by job id (read after the fleet shut down).
  std::mutex mu;
  std::map<uint32_t, std::vector<std::optional<RunOutcome>>> follower_outs;
  std::map<uint32_t, std::string> follower_errors;
  const auto observe = [&](size_t party, uint32_t id,
                           const Result<RunOutcome>& outcome) {
    std::lock_guard<std::mutex> lock(mu);
    if (!outcome.ok()) {
      follower_errors[id] = outcome.status().ToString();
      return;
    }
    auto& slot = follower_outs[id];
    slot.resize(ServeFleet::kParties);
    slot[party] = *outcome;
  };

  std::vector<double> setups, mesh, start;
  std::unique_ptr<ServeFleet> fleet;
  for (size_t s = 0; s < w.setups; ++s) {
    if (fleet) PPD_RETURN_IF_ERROR(fleet->Shutdown());
    fleet = std::make_unique<ServeFleet>();
    PPD_RETURN_IF_ERROR(
        fleet->Start(kKeySeed + 10 * s, smc, make_view, observe));
    setups.push_back(fleet->mesh_s + fleet->start_s);
    mesh.push_back(fleet->mesh_s);
    start.push_back(fleet->start_s);
  }
  json.Key("setup_s").Nums(setups);
  json.Key("mesh_s").Nums(mesh);
  json.Key("start_s").Nums(start);

  struct Submitted {
    JobRecord rec;
    std::optional<RunOutcome> outcome;
  };
  std::vector<Submitted> submitted;
  PartyServer& server = fleet->submitter();
  double loop_start = Now();
  for (uint32_t id = 1;; ++id) {
    if (id == gate + 1) loop_start = Now();
    if (id > gate + 1 && Now() - loop_start >= args.seconds) break;
    Submitted sub;
    sub.rec.gate = id <= gate;
    sub.rec.input = shape_of(id);
    ScopedSpan span("serve.submit", 0, id, 0);
    const double t0 = Now();
    Result<RunOutcome> outcome = server.SubmitJob(jobs[sub.rec.input][0]);
    sub.rec.wall_s = Now() - t0;
    if (outcome.ok()) {
      sub.outcome = std::move(outcome).value();
    } else {
      sub.rec.error = outcome.status().ToString();
    }
    submitted.push_back(std::move(sub));
    if (!submitted.back().rec.error.empty()) break;
  }
  const double loop_s = Now() - loop_start;
  const uint64_t retries = server.job_retries();
  uint64_t reconnects = 0, link_frames = 0, link_bytes = 0;
  for (const LinkHealth& h : server.link_health()) {
    reconnects += h.reconnects;
    link_frames += h.frames_sent + h.frames_received;
    link_bytes += h.bytes_sent + h.bytes_received;
  }
  PPD_RETURN_IF_ERROR(fleet->Shutdown());

  json.Key("jobs").Open('[');
  for (size_t k = 0; k < submitted.size(); ++k) {
    Submitted& sub = submitted[k];
    const uint32_t job_id = static_cast<uint32_t>(k + 1);
    if (sub.rec.error.empty()) {
      std::vector<const RunOutcome*> outs = {&*sub.outcome};
      auto it = follower_outs.find(job_id);
      for (size_t p = 1; p < ServeFleet::kParties; ++p) {
        if (it == follower_outs.end() || !it->second[p].has_value()) {
          sub.rec.error = "follower " + std::to_string(p) + " has no outcome";
          auto err = follower_errors.find(job_id);
          if (err != follower_errors.end()) sub.rec.error += ": " + err->second;
          break;
        }
        outs.push_back(&*it->second[p]);
      }
      if (sub.rec.error.empty()) {
        Score(w, inputs[sub.rec.input], refs[sub.rec.input], outs, sub.rec);
      }
    }
    WriteJob(sub.rec, json);
  }
  json.Close(']');
  json.Key("loop_s").Num(loop_s);
  json.Key("serve").Open('{');
  json.Key("job_retries").Int(retries);
  json.Key("reconnects").Int(reconnects);
  json.Key("link_frames").Int(link_frames);
  json.Key("link_bytes").Int(link_bytes);
  json.Close('}');
  return Status::Ok();
}

/// One fleet setup timed as a probe (traced runs of two-party workloads),
/// so serve.* reads the same thing on every workload.
Status ProbeServeSetup(uint64_t seed, const SmcOptions& smc, Json& json) {
  ServeFleet fleet;
  PPD_RETURN_IF_ERROR(fleet.Start(
      seed, smc, [](size_t, uint32_t) { return ClusteringJob(); },
      [](size_t, uint32_t, const Result<RunOutcome>&) {}));
  json.Key("mesh_s").Nums({fleet.mesh_s});
  json.Key("start_s").Nums({fleet.start_s});
  return fleet.Shutdown();
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--smoke") {
      args.smoke = true;
    } else if (value == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return 2;
    } else if (flag == "--workload") {
      args.workload = value, ++i;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10), ++i;
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value), ++i;
    } else if (flag == "--trace") {
      args.trace = std::atoi(value) != 0, ++i;
    } else if (flag == "--trace-out") {
      args.trace_out = value, ++i;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  std::optional<Workload> workload = FindWorkload(args.workload, args.smoke);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *workload;
  if (args.trace) GlobalTracer().Enable();
  const SmcOptions smc;  // 512-bit Paillier/RSA, default randomizer pool

  std::vector<JobInput> inputs;
  std::vector<std::vector<ClusteringJob>> jobs;
  std::vector<Reference> refs;
  const ProtocolOptions options = MakeOptions(w);
  const size_t total = w.gate_inputs + w.timed_inputs;
  std::vector<std::vector<size_t>> sizes(total);
  if (w.scheme == Scheme::kMultiparty) {
    sizes = ServeSizeMix(w, kGateSeed, w.gate_inputs);
    for (std::vector<size_t>& s : ServeSizeMix(w, args.seed, w.timed_inputs)) {
      sizes.push_back(std::move(s));
    }
  }
  for (size_t k = 0; k < total; ++k) {
    const uint64_t seed = k < w.gate_inputs
                              ? kGateSeed * 1000003 + k
                              : args.seed * 1000003 + (k - w.gate_inputs);
    inputs.push_back(MakeJobInput(w, seed, sizes[k]));
    jobs.push_back(MakeJobs(w, inputs.back(), options));
    Result<Reference> ref =
        MakeReference(w, inputs.back(), jobs.back(), smc, seed);
    if (!ref.ok()) {
      std::fprintf(stderr, "reference run failed: %s\n",
                   ref.status().ToString().c_str());
      return 1;
    }
    refs.push_back(std::move(ref).value());
  }

  Json json;
  json.Open('{');
  json.Key("workload").Str(w.name);
  json.Key("seed").Int(args.seed);
  json.Key("trace").Bool(args.trace);
  json.Key("smoke").Bool(args.smoke);
  json.Key("gate_inputs").Int(w.gate_inputs);
  WriteHost(smc, json);
  json.Key("inputs").Open('[');
  for (const JobInput& in : inputs) {
    json.Open('[');
    for (const Dataset& v : in.views) json.Int(v.size());
    json.Close(']');
  }
  json.Close(']');

  Status status = Status::Ok();
  if (w.scheme == Scheme::kMultiparty) {
    status = RunServe(w, args, smc, inputs, jobs, refs, json);
    if (status.ok() && args.trace) {
      // Serve links are not reachable from outside the daemon, so the
      // decorated attribution replays the same jobs on an in-process mesh.
      json.Key("replay").Open('{');
      status = RunRigJobs(w, args, smc, inputs, jobs, refs,
                          std::min(args.seconds, 4.0), false, json);
      json.Close('}');
    }
  } else {
    status = RunRigJobs(w, args, smc, inputs, jobs, refs, args.seconds, true,
                        json);
    if (status.ok() && args.trace) {
      json.Key("serve_probe").Open('{');
      status = ProbeServeSetup(kKeySeed + 99, smc, json);
      json.Close('}');
    }
  }
  if (!status.ok()) {
    std::fprintf(stderr, "run failed: %s\n", status.ToString().c_str());
    return 1;
  }

  if (args.trace) {
    RunProbes(smc, args.seed + 17, json);
    std::vector<double> central;
    for (int r = 0; r < 5; ++r) {
      ScopedSpan span("dbscan.central");
      const double t0 = Now();
      RunDbscan(inputs[w.gate_inputs].all, options.params);
      central.push_back(Now() - t0);
    }
    json.Key("central_s").Nums(central);
  }

  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  json.Key("peak_rss_mb").Num(static_cast<double>(usage.ru_maxrss) / 1024.0);
  json.Close('}');

  if (args.trace && !args.trace_out.empty() &&
      !GlobalTracer().Write(args.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    return 1;
  }
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace
}  // namespace e2e
}  // namespace ppdbscan

int main(int argc, char** argv) { return ppdbscan::e2e::Main(argc, argv); }

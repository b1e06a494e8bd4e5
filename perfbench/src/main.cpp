// lad_perfbench: one workload per process.
//
//   lad_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Builds the workload's inputs from the seed, times the cold set-up, discards
// one warm-up op per variant, then runs a closed loop of identical ops for S
// seconds: the 1-thread op and the same op with a 4-worker ThreadPool,
// interleaved so that each gets half of the op time. Set-up is redone now
// and then in between, and its median is reported. Every op's output is checked; an op whose
// checks fail, whose output differs from the first op's, or that throws is
// counted as failed. The last stdout line is one JSON object: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Checked;
using perfbench::Tracer;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

constexpr int kPoolThreads = 4;
constexpr int kMinOps = 3;
// Set-up is redone between ops while set-ups have taken less than this
// share of the measuring time, so set-up samples span the same stretch of
// machine conditions as the ops do.
constexpr double kSetupShare = 0.1;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t k = v.size() / 2;
  return v.size() % 2 == 1 ? v[k] : (v[k - 1] + v[k]) / 2;
}

struct Usage {
  long minflt = 0;
  double cpu_ms = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& t) { return t.tv_sec * 1e3 + t.tv_usec / 1e3; };
  return {ru.ru_minflt, ms(ru.ru_utime) + ms(ru.ru_stime)};
}

// A span belongs to a layer when it is named after it ("core.encode") or
// after one of its parts ("core.encode.splitting").
bool in_layer(const std::string& span, const std::string& layer) {
  return span == layer || span.rfind(layer + ".", 0) == 0;
}

double layer_self_ms(const std::map<std::string, double>& self_ms, const std::string& layer) {
  double sum = 0;
  for (const auto& [span, ms] : self_ms) {
    if (in_layer(span, layer)) sum += ms;
  }
  return sum;
}

// Per-op measurements of one thread-count variant in one phase.
struct Phase {
  std::vector<double> ms;
  long long minflt = 0;
  double cpu_ms = 0;
  std::vector<std::map<std::string, double>> self_ms;  // traced ops only
  std::vector<std::map<std::string, double>> counters;

  double p50() const { return median(ms); }
  double per_op(double total) const { return ms.empty() ? 0 : total / static_cast<double>(ms.size()); }

  // Median over ops of the layer's self time (layer_self_ms).
  double layer_ms(const std::string& layer) const {
    std::vector<double> v;
    for (const auto& op : self_ms) v.push_back(layer_self_ms(op, layer));
    return median(v);
  }
  bool has_layer(const std::string& layer) const {
    for (const auto& op : self_ms) {
      for (const auto& [span, ms] : op) {
        if (in_layer(span, layer)) return true;
      }
    }
    return false;
  }
  double counter(const std::string& name) const {
    std::vector<double> v;
    for (const auto& op : counters) {
      const auto it = op.find(name);
      v.push_back(it == op.end() ? 0 : it->second);
    }
    return median(v);
  }
};

class Runner {
 public:
  Runner(std::string workload, std::uint64_t seed) : workload_(std::move(workload)), seed_(seed) {}

  // Tears the workload down and does its cold set-up again: input graphs,
  // encode, pool start. Returns the set-up time in seconds.
  double setup() {
    pool_.reset();
    w_.reset();
    const auto t0 = Clock::now();
    w_ = perfbench::make_workload(workload_);
    w_->setup(seed_);
    pool_ = std::make_unique<lad::ThreadPool>(kPoolThreads);
    return ms_since(t0) / 1e3;
  }

  const Workload& workload() const { return *w_; }

  // Runs 1-thread and 4-thread ops, interleaved so that each variant gets
  // half of the op time, until `seconds` have passed and each has run at
  // least `min_ops` ops. Phases may be null for discarded warm-up ops. With
  // `setups` non-null, set-up is redone between ops (kSetupShare).
  void measure(double seconds, int min_ops, Phase* t1, Phase* t4, bool traced,
               std::vector<double>* setups = nullptr) {
    const auto t0 = Clock::now();
    double spent[2] = {0, 0};
    int done[2] = {0, 0};
    double setup_s = 0;
    while (done[0] < min_ops || done[1] < min_ops || ms_since(t0) < seconds * 1e3) {
      const int k = spent[1] < spent[0] ? 1 : 0;
      spent[k] += op(k == 1, k == 1 ? t4 : t1, traced);
      ++done[k];
      if (setups != nullptr && setup_s < kSetupShare * ms_since(t0) / 1e3) {
        setups->push_back(setup());
        setup_s += setups->back();
      }
    }
  }

  long long attempted = 0;
  long long failed = 0;
  bool correct = true;
  std::map<std::string, double> counts;  // of the reference op

 private:
  // Runs one op and checks it; returns its time in ms.
  double op(bool pooled, Phase* ph, bool traced) {
    ++attempted;
    if (traced) {
      lad::obs::MetricsRegistry::instance().reset();
      lad::obs::TraceRecorder::instance().clear();
      Tracer::get().clear();
    }
    const Usage u0 = usage_now();
    const auto t0 = Clock::now();
    Checked c;
    double ms = 0;
    try {
      w_->run(pooled ? pool_.get() : nullptr);
      ms = ms_since(t0);
      const Usage u1 = usage_now();
      c = w_->check();
      if (ph != nullptr) {
        ph->ms.push_back(ms);
        ph->minflt += u1.minflt - u0.minflt;
        ph->cpu_ms += u1.cpu_ms - u0.cpu_ms;
        if (traced) {
          ph->self_ms.push_back(Tracer::get().self_ms());
          const auto& m = lad::obs::core();
          ph->counters.push_back({
              {"engine_messages", static_cast<double>(m.engine_messages.value())},
              {"engine_bytes", static_cast<double>(m.engine_message_bits.value()) / 8},
              {"gather_memo_hits", static_cast<double>(m.gather_cache_hits.value())},
              {"repaired_nodes", static_cast<double>(m.repaired_nodes.value())},
              {"alloc_msgbuf", static_cast<double>(m.alloc_msgbuf.value())},
              {"alloc_msgbuf_bytes", static_cast<double>(m.alloc_msgbuf_bytes.value())},
              {"pool_barrier_wait_ms", static_cast<double>(m.pool_barrier_wait_us.value()) / 1e3},
          });
        }
      }
    } catch (const std::exception& e) {
      fail(std::string("op threw: ") + e.what());
      return ms_since(t0);
    }
    if (!ref_.has_value()) {
      ref_ = c;
      counts = c.counts;
    }
    if (!c.ok) {
      fail(pooled ? "4-thread op failed its checks" : "1-thread op failed its checks");
    } else if (c.digest != ref_->digest || c.counts != ref_->counts) {
      fail(pooled ? "4-thread op output differs from the first op's"
                  : "1-thread op output differs from the first op's");
    }
    return ms;
  }

  void fail(const std::string& why) {
    ++failed;
    correct = false;
    std::cerr << "lad_perfbench: " << why << "\n";
  }

  std::string workload_;
  std::uint64_t seed_;
  std::unique_ptr<Workload> w_;
  std::unique_ptr<lad::ThreadPool> pool_;
  std::optional<Checked> ref_;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

void print_result(bool correct, long long attempted, long long failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": " << fmt(metrics[i].value)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// Share of the machine's CPU time stolen by the hypervisor since `since`
// (from /proc/stat; -1 where unavailable). Diagnoses host noise.
struct CpuTimes {
  double steal = 0;
  double total = 0;
};

CpuTimes cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTimes t;
  double v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return t;
  for (double& x : v) {
    if (!(in >> x)) return {};
    t.total += x;
  }
  t.steal = v[7];
  return t;
}

double steal_pct(const CpuTimes& since) {
  const CpuTimes now = cpu_times();
  const double total = now.total - since.total;
  return total > 0 ? 100 * (now.steal - since.steal) / total : -1;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

int usage_error(const std::string& why) {
  std::cerr << "lad_perfbench: " << why
            << "\nusage: lad_perfbench --workload NAME --seed N --seconds S --trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        workload = val;
      } else if (key == "--seed") {
        seed = std::stoull(val);
      } else if (key == "--seconds") {
        seconds = std::stod(val);
      } else if (key == "--trace") {
        trace = std::stoi(val);
      } else {
        return usage_error("unknown flag " + key);
      }
    } catch (const std::exception&) {
      return usage_error("bad value for " + key);
    }
  }
  if (argc % 2 != 1 || !(seconds > 0) || (trace != 0 && trace != 1)) {
    return usage_error("missing or bad arguments");
  }
  if (perfbench::make_workload(workload) == nullptr) {
    return usage_error("unknown workload '" + workload + "'");
  }
  Tracer& tracer = Tracer::get();

  // The traced run sets up once, traced; the untraced run sets up again
  // between ops and reports the median.
  Runner runner(workload, seed);
  std::vector<double> setup_s;
  std::map<std::string, double> setup_self_ms;
  tracer.set_on(trace == 1);
  try {
    setup_s.push_back(runner.setup());
  } catch (const std::exception& e) {
    std::cerr << "lad_perfbench: set-up failed: " << e.what() << "\n";
    return 1;
  }
  setup_self_ms = tracer.self_ms();
  tracer.set_on(false);
  runner.measure(0, 1, nullptr, nullptr, false);
  const CpuTimes measure_start = cpu_times();
  std::vector<Metric> metrics;
  Phase t1, t4;
  if (trace == 0) {
    try {
      runner.measure(seconds, kMinOps, &t1, &t4, false, &setup_s);
    } catch (const std::exception& e) {
      std::cerr << "lad_perfbench: set-up failed: " << e.what() << "\n";
      return 1;
    }
    // The 4-thread ops run and are checked here too, but their time is no
    // end-to-end metric: every pool barrier waits for the slowest of four
    // vCPUs, so on a shared host it follows the neighbours' load (25-30%
    // spread over ten gather-torus runs). The traced run reports it.
    metrics = {{"setup_s", median(setup_s), "s"},
               {"op_ms_p50", t1.p50(), "ms"},
               {"peak_rss_mb", peak_rss_mb(), "MB"}};
  } else {
    // A third of the time untraced (the baseline for tracing overhead and
    // the process counters), then obs telemetry and the spans switched on.
    runner.measure(seconds / 3, kMinOps, &t1, &t4, false);
    Phase tr1, tr4;
    lad::obs::set_enabled(true);
    tracer.set_on(true);
    runner.measure(seconds * 2 / 3, kMinOps, &tr1, &tr4, true);
    tracer.set_on(false);
    lad::obs::set_enabled(false);

    // A layer that runs inside the op reports its median per-op self time;
    // one that runs only in set-up reports its set-up time.
    const auto layer = [&](const std::string& name, const Phase& ph) {
      return ph.has_layer(name) ? ph.layer_ms(name) : layer_self_ms(setup_self_ms, name);
    };
    std::vector<double> attributed;
    for (std::size_t i = 0; i < tr1.ms.size(); ++i) {
      double sum = 0;
      for (const auto& [span, ms] : tr1.self_ms[i]) sum += ms;
      attributed.push_back(100 * sum / tr1.ms[i]);
    }
    double pooled_t1 = 0, pooled_t4 = 0;
    for (const auto& name : runner.workload().pooled_layers()) {
      pooled_t1 += tr1.layer_ms(name);
      pooled_t4 += tr4.layer_ms(name);
    }
    if (runner.workload().pooled_layers().empty()) {
      pooled_t1 = tr1.p50();
      pooled_t4 = tr4.p50();
    }
    const auto count = [&](const std::string& name) {
      const auto it = runner.counts.find(name);
      return it == runner.counts.end() ? 0.0 : it->second;
    };
    const double messages = count("local.echo_messages");
    const double detected = count("faults.detected");
    metrics = {
        {"graph.build_ms", layer("graph.build", tr1), "ms"},
        {"core.encode_ms", layer("core.encode", tr1), "ms"},
        {"core.decode_ms", layer("core.decode", tr1), "ms"},
        {"core.verify_ms", layer("core.verify", tr1), "ms"},
        {"core.digest_ms", layer("core.digest", tr1), "ms"},
    };
    for (const char* p : {"three_coloring", "delta_coloring", "splitting", "decompress"}) {
      metrics.push_back({std::string("core.encode_ms.") + p, layer(std::string("core.encode.") + p, tr1), "ms"});
      metrics.push_back({std::string("core.decode_ms.") + p, layer(std::string("core.decode.") + p, tr1), "ms"});
    }
    const std::vector<Metric> rest = {
        {"local.echo_ms", tr1.layer_ms("local.echo"), "ms"},
        {"local.echo_ms_t4", tr4.layer_ms("local.echo"), "ms"},
        {"local.echo_messages", messages, "count"},
        {"local.echo_bytes", count("local.echo_bytes"), "bytes"},
        {"local.echo_bytes_per_message", messages > 0 ? count("local.echo_bytes") / messages : 0, "bytes/msg"},
        {"local.gather_ms", tr1.layer_ms("local.gather"), "ms"},
        {"local.gather_ms_t4", tr4.layer_ms("local.gather"), "ms"},
        {"local.views_ms", tr1.layer_ms("local.views"), "ms"},
        {"local.views_ms_t4", tr4.layer_ms("local.views"), "ms"},
        {"local.memo_hits", count("local.memo_hits"), "count"},
        {"local.view_nodes", count("local.view_nodes"), "count"},
        {"faults.inject_ms", tr1.layer_ms("faults.inject"), "ms"},
        {"faults.guarded_decode_ms", tr1.layer_ms("faults.guarded_decode"), "ms"},
        {"faults.silent_check_ms", tr1.layer_ms("faults.silent_check"), "ms"},
        {"faults.advice_faults", count("faults.advice_faults"), "count"},
        {"faults.graph_faults", count("faults.graph_faults"), "count"},
        {"faults.engine_faults", count("faults.engine_faults"), "count"},
        {"faults.detected", detected, "count"},
        {"faults.repaired_nodes", count("faults.repaired_nodes"), "count"},
        {"faults.flagged_nodes", count("faults.flagged_nodes"), "count"},
        {"faults.unverified_nodes", count("faults.unverified_nodes"), "count"},
        {"faults.repaired_per_detected", detected > 0 ? count("faults.repaired_nodes") / detected : 0, "ratio"},
        {"util.pool_speedup", pooled_t4 > 0 ? pooled_t1 / pooled_t4 : 0, "x"},
        {"proc.minflt_per_op", t1.per_op(static_cast<double>(t1.minflt)), "count"},
        {"proc.minflt_per_op_t4", t4.per_op(static_cast<double>(t4.minflt)), "count"},
        {"proc.cpu_ms_per_op", t1.per_op(t1.cpu_ms), "ms"},
        {"proc.cpu_ms_per_op_t4", t4.per_op(t4.cpu_ms), "ms"},
        {"proc.steal_pct", steal_pct(measure_start), "%"},
        {"obs.engine_messages", tr1.counter("engine_messages"), "count"},
        {"obs.engine_bytes", tr1.counter("engine_bytes"), "bytes"},
        {"obs.gather_memo_hits", tr1.counter("gather_memo_hits"), "count"},
        {"obs.repaired_nodes", tr1.counter("repaired_nodes"), "count"},
        {"obs.alloc_msgbuf", tr1.counter("alloc_msgbuf"), "count"},
        {"obs.alloc_msgbuf_bytes", tr1.counter("alloc_msgbuf_bytes"), "bytes"},
        {"obs.pool_barrier_wait_ms_t4", tr4.counter("pool_barrier_wait_ms"), "ms"},
        {"trace.untraced_op_ms_p50", t1.p50(), "ms"},
        {"trace.untraced_op_ms_p50_t4", t4.p50(), "ms"},
        {"trace.op_ms_p50", tr1.p50(), "ms"},
        {"trace.overhead_pct", 100 * (tr1.p50() / t1.p50() - 1), "%"},
        {"trace.attributed_pct", median(attributed), "%"},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());
  }

  std::cout << "workload " << workload << " seed " << seed << " trace " << trace << ": "
            << runner.attempted << " ops attempted (measured: " << t1.ms.size()
            << " at 1 thread, " << t4.ms.size() << " at 4), "
            << runner.failed << " failed, " << runner.workload().nodes_per_op() << " nodes per op, "
            << setup_s.size() << " set-ups, " << fmt(steal_pct(measure_start))
            << "% of machine CPU time stolen while measuring, minor page faults per op "
            << fmt(t1.per_op(static_cast<double>(t1.minflt))) << " at 1 thread, "
            << fmt(t4.per_op(static_cast<double>(t4.minflt))) << " at 4, median op "
            << fmt(t1.p50()) << " ms at 1 thread, " << fmt(t4.p50()) << " ms at 4\n";
  for (const auto& m : metrics) std::cout << "  " << m.name << " = " << fmt(m.value) << " " << m.unit << "\n";
  print_result(runner.correct, runner.attempted, runner.failed, metrics);
  return 0;
}

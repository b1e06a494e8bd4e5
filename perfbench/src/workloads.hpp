// The benchmark's workloads and its own span recorder.
//
// A workload builds its inputs from the run seed in setup(), then runs
// identical ops: run() makes the layer calls (the timed part) and check()
// verifies the output with the independent checks of checks.hpp (untimed).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace perfbench {

/// The benchmark's own spans around each layer call. Records only on the
/// thread that created it (pool workers run inside a layer call, whose span
/// already covers them) and only while switched on. Per span name it
/// accumulates self time: the span's duration minus its children's.
class Tracer {
 public:
  static Tracer& get();

  void set_on(bool on) { on_ = on; }
  bool on() const { return on_; }
  void begin(const char* name);
  void end();
  /// Self time in ms per span name since the last clear().
  const std::map<std::string, double>& self_ms() const { return self_ms_; }
  void clear() { self_ms_.clear(); }

 private:
  using Clock = std::chrono::steady_clock;
  struct Open {
    const char* name;
    Clock::time_point start;
    double child_ms;
  };
  bool on_ = false;
  std::thread::id owner_ = std::this_thread::get_id();
  std::vector<Open> stack_;
  std::map<std::string, double> self_ms_;
};

class Span {
 public:
  explicit Span(const char* name) { Tracer::get().begin(name); }
  ~Span() { Tracer::get().end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

/// Outcome of check(): whether every check held, a digest of the output
/// bytes (compared across ops and thread counts), and exact per-op counts.
struct Checked {
  bool ok = true;
  std::uint64_t digest = 0;
  std::map<std::string, double> counts;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Cold set-up: builds the input graphs from `seed` and encodes advice.
  virtual void setup(std::uint64_t seed) = 0;
  /// One op's layer calls; `pool` is null for the 1-thread variant.
  virtual void run(lad::ThreadPool* pool) = 0;
  /// Independent checks of the last run()'s output.
  virtual Checked check() const = 0;
  virtual long long nodes_per_op() const = 0;
  /// Span names whose t1/t4 time ratio is the pool speedup.
  virtual std::vector<std::string> pooled_layers() const = 0;
};

const std::vector<std::string>& workload_names();
/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench

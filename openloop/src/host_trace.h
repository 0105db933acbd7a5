// Host-time spans recorded from the benchmark's own files.
//
// The benchmark times its calls into the simulator's public surface — setup
// steps, each Engine::run_until slice, ChirperWorkload::next(),
// ClientProxy::issue(), and the decorated application and oracle-policy
// calls — as a span tree on the host's steady clock. Spans nest strictly
// (the process is single-threaded), so a stack gives each span's parent and
// its self time: duration minus the part its children cover. Totals per kind
// are kept exactly; the span list itself is capped and written out once, at
// the end of the run.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace openloop {

enum class SpanKind : std::uint8_t {
  kSetupGraph,      // social-graph generation
  kSetupPartition,  // initial placement (partition_graph or hash)
  kSetupDeploy,     // harness::Deployment construction
  kSetupPreload,    // reserve_vars + preload_var loop + start()
  kSetupSettle,     // Deployment::settle()
  kSlice,           // one Engine::run_until slice while driving load
  kNext,            // ChirperWorkload::next()
  kIssue,           // ClientProxy::issue()
  kExecute,         // decorated AppStateMachine::execute()
  kPolicy,          // decorated OraclePolicy call
  kAudit,           // post-drain correctness checks
  kCount_,
};

inline constexpr std::size_t kSpanKinds = static_cast<std::size_t>(SpanKind::kCount_);

std::string_view to_string(SpanKind k);

inline std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct HostSpan {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = top level
  std::uint64_t cmd = 0;     // arrival sequence number of the command (0 = none)
  SpanKind kind{};
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

class HostTrace {
 public:
  /// Spans retained for write_chrome_json(); later ones only count.
  static constexpr std::size_t kKeep = std::size_t{1} << 18;

  /// A disabled trace records nothing; open()/close() cost one branch.
  explicit HostTrace(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  void open(SpanKind kind, std::uint64_t cmd = 0);
  void close();

  /// Opens a span for the lifetime of the scope.
  class Scope {
   public:
    Scope(HostTrace& t, SpanKind kind, std::uint64_t cmd = 0) : t_(t) { t_.open(kind, cmd); }
    ~Scope() { t_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    HostTrace& t_;
  };

  const SpanTotals& totals(SpanKind k) const { return totals_[static_cast<std::size_t>(k)]; }
  const std::vector<HostSpan>& spans() const { return kept_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Writes the retained spans as Chrome trace_event JSON ("X" events, µs
  /// timestamps relative to the first span). Returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Open {
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t cmd;
    SpanKind kind;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  bool enabled_;
  std::uint64_t last_id_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Open> stack_;
  std::vector<HostSpan> kept_;
  std::array<SpanTotals, kSpanKinds> totals_{};
};

}  // namespace openloop

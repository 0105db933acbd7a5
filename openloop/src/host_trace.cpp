#include "host_trace.h"

#include <algorithm>
#include <fstream>

namespace openloop {

std::string_view to_string(SpanKind k) {
  switch (k) {
    case SpanKind::kSetupGraph:
      return "setup.graph";
    case SpanKind::kSetupPartition:
      return "setup.partition";
    case SpanKind::kSetupDeploy:
      return "setup.deploy";
    case SpanKind::kSetupPreload:
      return "setup.preload";
    case SpanKind::kSetupSettle:
      return "setup.settle";
    case SpanKind::kSlice:
      return "sim.run_until";
    case SpanKind::kNext:
      return "workload.next";
    case SpanKind::kIssue:
      return "client.issue";
    case SpanKind::kExecute:
      return "app.execute";
    case SpanKind::kPolicy:
      return "oracle.policy";
    case SpanKind::kAudit:
      return "audit";
    case SpanKind::kCount_:
      break;
  }
  return "?";
}

void HostTrace::open(SpanKind kind, std::uint64_t cmd) {
  if (!enabled_) return;
  const std::uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
  stack_.push_back(Open{++last_id_, parent, cmd, kind, host_now_ns(), 0});
}

void HostTrace::close() {
  if (!enabled_ || stack_.empty()) return;
  const std::int64_t end = host_now_ns();
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end - o.start_ns;
  SpanTotals& t = totals_[static_cast<std::size_t>(o.kind)];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur - o.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (kept_.size() < kKeep) {
    kept_.push_back(HostSpan{o.id, o.parent, o.cmd, o.kind, o.start_ns, end});
  } else {
    ++dropped_;
  }
}

bool HostTrace::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::int64_t base = kept_.empty() ? 0 : kept_.front().start_ns;
  for (const HostSpan& s : kept_) base = std::min(base, s.start_ns);
  out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped\":" << dropped_
      << "},\"traceEvents\":[";
  bool first = true;
  for (const HostSpan& s : kept_) {
    out << (first ? "" : ",") << "\n{\"name\":\"" << to_string(s.kind)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns - base) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"cmd\":" << s.cmd
        << "}}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace openloop

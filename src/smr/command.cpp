#include "smr/command.h"

#include <algorithm>

#include "smr/app.h"

namespace dssmr::smr {

const char* to_string(CommandType t) {
  switch (t) {
    case CommandType::kAccess:
      return "access";
    case CommandType::kCreate:
      return "create";
    case CommandType::kDelete:
      return "delete";
    case CommandType::kMove:
      return "move";
    case CommandType::kReconfig:
      return "reconfig";
  }
  return "?";
}

const char* to_string(ReplyCode c) {
  switch (c) {
    case ReplyCode::kOk:
      return "ok";
    case ReplyCode::kRetry:
      return "retry";
    case ReplyCode::kNok:
      return "nok";
    case ReplyCode::kRetired:
      return "retired";
  }
  return "?";
}

std::vector<VarId> Command::vars() const {
  std::vector<VarId> all;
  all.reserve(read_set.size() + write_set.size());
  vars_into(all);
  return all;
}

void Command::vars_into(std::vector<VarId>& out) const {
  out.assign(read_set.begin(), read_set.end());
  out.insert(out.end(), write_set.begin(), write_set.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

std::size_t Command::size_bytes() const {
  // 48 header bytes + 8 for the trace id (always carried, so the bandwidth
  // model is identical whether span tracing is enabled or not).
  return 56 + (read_set.size() + write_set.size()) * 8 + arg.size() +
         move_sources.size() * 4 + move_epochs.size() * 8 + hint_edges.size() * 16;
}

std::size_t VarShipMsg::size_bytes() const {
  std::size_t n = 32;
  for (const auto& [v, val] : vars) {
    (void)v;
    n += 8 + (val != nullptr ? val->size_bytes() : 0);
  }
  return n;
}

}  // namespace dssmr::smr

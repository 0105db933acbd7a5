// Bank-transfer example: how to implement YOUR OWN replicated service.
//
// Everything application-specific lives in this file: a VarValue for
// accounts, an AppStateMachine with the service logic, and command builders.
// The library supplies linearizable replication, dynamic partitioning and
// the oracle — the application never mentions partitions.
//
// The workload creates hot transfer pairs; DS-SMR migrates the two accounts
// of a pair onto one partition, so repeated transfers stay single-partition.
//
// Build and run:  ./build/examples/bank_transfer
#include <charconv>
#include <cstdio>
#include <memory>

#include "harness/deployment.h"
#include "smr/app.h"
#include "smr/command.h"

using namespace dssmr;

namespace bank {

enum Op : std::uint32_t { kDeposit = 1, kTransfer = 2, kBalance = 3, kAudit = 4 };

struct Account final : smr::VarValue {
  std::int64_t balance = 0;
  explicit Account(std::int64_t b = 0) : balance(b) {}
  std::unique_ptr<smr::VarValue> clone() const override {
    return std::make_unique<Account>(balance);
  }
  std::size_t size_bytes() const override { return 16; }
};

struct MoneyReply final : net::Tagged<net::Kind::kExampleReply> {
  std::int64_t amount;
  bool ok;
  MoneyReply(std::int64_t a, bool o) : amount(a), ok(o) {}
};

class BankApp final : public smr::AppStateMachine {
 public:
  net::MessagePtr execute(const smr::Command& cmd, smr::ExecutionView& view) override {
    switch (cmd.op) {
      case kDeposit: {
        auto* acc = view.get_as<Account>(cmd.write_set.at(0));
        if (acc == nullptr) return net::make_msg<MoneyReply>(0, false);
        acc->balance += parse(cmd.arg);
        return net::make_msg<MoneyReply>(acc->balance, true);
      }
      case kTransfer: {
        auto* from = view.get_as<Account>(cmd.write_set.at(0));
        auto* to = view.get_as<Account>(cmd.write_set.at(1));
        if (from == nullptr || to == nullptr) return net::make_msg<MoneyReply>(0, false);
        const std::int64_t amount = parse(cmd.arg);
        if (from->balance < amount) return net::make_msg<MoneyReply>(from->balance, false);
        from->balance -= amount;
        to->balance += amount;
        return net::make_msg<MoneyReply>(from->balance, true);
      }
      case kBalance: {
        const auto* acc = view.get_as<Account>(cmd.read_set.at(0));
        return net::make_msg<MoneyReply>(acc != nullptr ? acc->balance : 0, acc != nullptr);
      }
      case kAudit: {
        // Reads every account: a deliberately partition-spanning command.
        std::int64_t total = 0;
        for (VarId v : cmd.read_set) {
          if (const auto* acc = view.get_as<Account>(v); acc != nullptr) {
            total += acc->balance;
          }
        }
        return net::make_msg<MoneyReply>(total, true);
      }
      default:
        return net::make_msg<MoneyReply>(0, false);
    }
  }

  std::unique_ptr<smr::VarValue> make_default(VarId) override {
    return std::make_unique<Account>();
  }

  Duration service_time(const smr::Command& cmd) const override {
    return usec(10) + usec(1) * static_cast<Duration>(cmd.vars().size());
  }

 private:
  static std::int64_t parse(const std::string& s) {
    std::int64_t v = 0;
    std::from_chars(s.data(), s.data() + s.size(), v);
    return v;
  }
};

smr::Command deposit(VarId acc, std::int64_t amount) {
  smr::Command c;
  c.op = kDeposit;
  c.write_set = {acc};
  c.arg = std::to_string(amount);
  return c;
}

smr::Command transfer(VarId from, VarId to, std::int64_t amount) {
  smr::Command c;
  c.op = kTransfer;
  c.write_set = {from, to};
  c.arg = std::to_string(amount);
  return c;
}

smr::Command balance(VarId acc) {
  smr::Command c;
  c.op = kBalance;
  c.read_set = {acc};
  return c;
}

smr::Command audit(std::vector<VarId> accounts) {
  smr::Command c;
  c.op = kAudit;
  c.read_set = std::move(accounts);
  return c;
}

}  // namespace bank

namespace {

std::int64_t call(harness::Deployment& d, std::size_t client, smr::Command cmd,
                  bool* ok = nullptr) {
  bool done = false;
  std::int64_t amount = 0;
  d.client(client).issue(std::move(cmd), [&](smr::ReplyCode c, const net::MessagePtr& r) {
    done = true;
    if (c == smr::ReplyCode::kOk && r != nullptr) {
      const auto& mr = net::msg_as<bank::MoneyReply>(r);
      amount = mr.amount;
      if (ok != nullptr) *ok = mr.ok;
    } else if (ok != nullptr) {
      *ok = false;
    }
  });
  while (!done) d.engine().run_for(msec(5));
  return amount;
}

}  // namespace

int main() {
  harness::DeploymentConfig cfg;
  cfg.partitions = 4;
  cfg.replicas_per_partition = 2;
  cfg.clients = 2;
  cfg.strategy = core::Strategy::kDssmr;
  harness::Deployment d{cfg, [] { return std::make_unique<bank::BankApp>(); },
                        [] { return std::make_unique<core::DssmrPolicy>(); }};

  // 16 accounts spread over 4 partitions, $100 each.
  std::vector<VarId> accounts;
  for (std::uint64_t i = 0; i < 16; ++i) {
    accounts.push_back(VarId{i});
    d.preload_var(VarId{i}, d.partition_gid(i % 4), bank::Account{100});
  }
  d.start();
  d.settle();

  std::printf("16 accounts x $100 across 4 partitions\n\n");

  // A hot pair on different partitions: account 0 (P0) pays account 1 (P1).
  bool ok = false;
  for (int i = 0; i < 3; ++i) call(d, 0, bank::transfer(VarId{0}, VarId{1}, 20), &ok);
  std::printf("after 3 x transfer($20) 0->1 : balance(0)=$%lld balance(1)=$%lld\n",
              static_cast<long long>(call(d, 0, bank::balance(VarId{0}))),
              static_cast<long long>(call(d, 1, bank::balance(VarId{1}))));
  std::printf("accounts 0 and 1 now collocated on P%u (moves: %llu)\n",
              d.oracle(0).mapping().locate(VarId{0}).value,
              static_cast<unsigned long long>(d.metrics().counter("client.moves")));

  // Insufficient funds are rejected deterministically on every replica.
  call(d, 0, bank::transfer(VarId{2}, VarId{3}, 1'000'000), &ok);
  std::printf("transfer($1M) 2->3           : %s\n", ok ? "accepted?!" : "rejected");

  // The audit reads all 16 accounts; money is conserved.
  const std::int64_t total = call(d, 0, bank::audit(accounts), &ok);
  std::printf("audit over all accounts      : $%lld %s\n", static_cast<long long>(total),
              total == 1600 ? "(conserved)" : "(LOST MONEY!)");
  return total == 1600 ? 0 : 1;
}

#include "net/network.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.h"

namespace dssmr::net {
namespace {

struct Probe final : Tagged<Kind::kTestProbe> {
  int tag;
  std::size_t bytes;
  explicit Probe(int t, std::size_t b = 64) : tag(t), bytes(b) {}
  std::size_t size_bytes() const override { return bytes; }
};

class Sink : public Actor {
 public:
  void on_message(ProcessId from, const MessagePtr& m) override {
    received.emplace_back(from, m);
  }
  std::vector<std::pair<ProcessId, MessagePtr>> received;
};

struct NetFixture : ::testing::Test {
  NetFixture() : network(engine, config(), 1) {}
  static NetworkConfig config() {
    NetworkConfig c;
    c.intra_rack_latency = usec(50);
    c.inter_rack_latency = usec(150);
    c.jitter = 0;
    c.bandwidth_bytes_per_usec = 0;  // pure latency unless a test opts in
    return c;
  }
  sim::Engine engine;
  net::Network network;
};

TEST_F(NetFixture, DeliversWithIntraRackLatency) {
  Sink a, b;
  auto pa = network.add_process(a, 0);
  auto pb = network.add_process(b, 0);
  network.send(pa, pb, make_msg<Probe>(1));
  engine.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].first, pa);
  EXPECT_EQ(engine.now(), usec(50));
}

TEST_F(NetFixture, InterRackIsSlower) {
  Sink a, b;
  auto pa = network.add_process(a, 0);
  auto pb = network.add_process(b, 1);
  network.send(pa, pb, make_msg<Probe>(1));
  engine.run();
  EXPECT_EQ(engine.now(), usec(150));
}

TEST_F(NetFixture, BandwidthAddsPerByteCost) {
  NetworkConfig cfg = config();
  cfg.bandwidth_bytes_per_usec = 100.0;
  sim::Engine e2;
  Network n2(e2, cfg, 1);
  Sink a, b;
  auto pa = n2.add_process(a, 0);
  auto pb = n2.add_process(b, 0);
  n2.send(pa, pb, make_msg<Probe>(1, 10'000));  // 10k bytes @ 100 B/us = 100us
  e2.run();
  EXPECT_EQ(e2.now(), usec(150));
}

TEST_F(NetFixture, FifoPerPair) {
  NetworkConfig cfg = config();
  cfg.jitter = usec(100);  // with jitter, later sends could otherwise overtake
  sim::Engine e2;
  Network n2(e2, cfg, 123);
  Sink a, b;
  auto pa = n2.add_process(a, 0);
  auto pb = n2.add_process(b, 0);
  for (int i = 0; i < 20; ++i) n2.send(pa, pb, make_msg<Probe>(i));
  e2.run();
  ASSERT_EQ(b.received.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(msg_as<Probe>(b.received[static_cast<std::size_t>(i)].second).tag, i);
  }
}

TEST_F(NetFixture, SelfSendLoopsBack) {
  Sink a;
  auto pa = network.add_process(a, 0);
  network.send(pa, pa, make_msg<Probe>(9));
  engine.run();
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_EQ(engine.now(), usec(1));
}

TEST_F(NetFixture, CrashedReceiverGetsNothing) {
  Sink a, b;
  auto pa = network.add_process(a, 0);
  auto pb = network.add_process(b, 0);
  network.crash(pb);
  network.send(pa, pb, make_msg<Probe>(1));
  engine.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(network.stats().messages_dropped, 1u);
}

TEST_F(NetFixture, CrashedSenderSendsNothing) {
  Sink a, b;
  auto pa = network.add_process(a, 0);
  auto pb = network.add_process(b, 0);
  network.crash(pa);
  network.send(pa, pb, make_msg<Probe>(1));
  engine.run();
  EXPECT_TRUE(b.received.empty());
}

TEST_F(NetFixture, CrashDropsInFlightMessages) {
  Sink a, b;
  auto pa = network.add_process(a, 0);
  auto pb = network.add_process(b, 0);
  network.send(pa, pb, make_msg<Probe>(1));
  // Crash after the send but before delivery.
  engine.schedule(usec(10), [&] { network.crash(pb); });
  engine.run();
  EXPECT_TRUE(b.received.empty());
}

TEST_F(NetFixture, RecoverRestoresDelivery) {
  Sink a, b;
  auto pa = network.add_process(a, 0);
  auto pb = network.add_process(b, 0);
  network.crash(pb);
  network.recover(pb);
  network.send(pa, pb, make_msg<Probe>(1));
  engine.run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST_F(NetFixture, DropProbabilityLosesMessages) {
  NetworkConfig cfg = config();
  cfg.drop_probability = 0.5;
  sim::Engine e2;
  Network n2(e2, cfg, 99);
  Sink a, b;
  auto pa = n2.add_process(a, 0);
  auto pb = n2.add_process(b, 0);
  for (int i = 0; i < 1000; ++i) n2.send(pa, pb, make_msg<Probe>(i));
  e2.run();
  EXPECT_GT(b.received.size(), 350u);
  EXPECT_LT(b.received.size(), 650u);
}

TEST_F(NetFixture, DropsAreAttributedByCause) {
  Sink a, b, c, d;
  auto pa = network.add_process(a, 0);
  auto pb = network.add_process(b, 0);
  auto pc = network.add_process(c, 0);
  auto pd = network.add_process(d, 0);

  network.crash(pa);
  network.send(pa, pb, make_msg<Probe>(1));  // sender crashed
  network.recover(pa);

  network.crash(pc);
  network.send(pa, pc, make_msg<Probe>(2));  // receiver still crashed at delivery

  network.set_link(pa, pd, false);
  network.send(pa, pd, make_msg<Probe>(3));  // link down at send time
  network.set_link(pa, pd, true);

  engine.run();
  const NetworkStats& s = network.stats();
  EXPECT_EQ(s.dropped_sender_crashed, 1u);
  EXPECT_EQ(s.dropped_receiver_crashed, 1u);
  EXPECT_EQ(s.dropped_link_down, 1u);
  EXPECT_EQ(s.dropped_random, 0u);
  // messages_dropped stays the total of all causes.
  EXPECT_EQ(s.messages_dropped, 3u);
}

TEST_F(NetFixture, RandomDropsAttributedSeparately) {
  NetworkConfig cfg = config();
  cfg.drop_probability = 0.5;
  sim::Engine e2;
  Network n2(e2, cfg, 99);
  Sink a, b;
  auto pa = n2.add_process(a, 0);
  auto pb = n2.add_process(b, 0);
  for (int i = 0; i < 100; ++i) n2.send(pa, pb, make_msg<Probe>(i));
  e2.run();
  EXPECT_GT(n2.stats().dropped_random, 0u);
  EXPECT_EQ(n2.stats().dropped_random, n2.stats().messages_dropped);
  EXPECT_EQ(n2.stats().dropped_random + n2.stats().messages_delivered, 100u);
}

TEST_F(NetFixture, DropProbabilityIsClamped) {
  // Out-of-range probabilities behave like their clamped value instead of
  // invoking whatever Rng::chance does with garbage.
  NetworkConfig cfg = config();
  cfg.drop_probability = 1.5;  // clamped to 1.0 at construction
  sim::Engine e2;
  Network n2(e2, cfg, 7);
  Sink a, b;
  auto pa = n2.add_process(a, 0);
  auto pb = n2.add_process(b, 0);
  n2.send(pa, pb, make_msg<Probe>(1));
  e2.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_DOUBLE_EQ(n2.config().drop_probability, 1.0);

  n2.set_drop_probability(-0.5);  // clamped to 0.0
  EXPECT_DOUBLE_EQ(n2.config().drop_probability, 0.0);
  n2.send(pa, pb, make_msg<Probe>(2));
  e2.run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST_F(NetFixture, MultisendReachesAll) {
  Sink a, b, c;
  auto pa = network.add_process(a, 0);
  auto pb = network.add_process(b, 0);
  auto pc = network.add_process(c, 1);
  network.multisend(pa, {pb, pc}, make_msg<Probe>(5));
  engine.run();
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(c.received.size(), 1u);
}

TEST_F(NetFixture, StatsCountTraffic) {
  Sink a, b;
  auto pa = network.add_process(a, 0);
  auto pb = network.add_process(b, 0);
  network.send(pa, pb, make_msg<Probe>(1, 100));
  engine.run();
  EXPECT_EQ(network.stats().messages_sent, 1u);
  EXPECT_EQ(network.stats().messages_delivered, 1u);
  EXPECT_EQ(network.stats().bytes_sent, 100u);
}

}  // namespace
}  // namespace dssmr::net

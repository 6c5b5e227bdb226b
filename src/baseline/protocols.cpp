#include "baseline/protocols.h"

#include <algorithm>
#include <string>

#include "memorg/deplist.h"
#include "memorg/ports.h"

namespace hicsync::baseline {

double HandoffMetrics::mean_latency() const {
  if (round_latencies.empty()) return 0.0;
  double sum = 0;
  for (auto v : round_latencies) sum += static_cast<double>(v);
  return sum / static_cast<double>(round_latencies.size());
}

std::uint64_t HandoffMetrics::max_latency() const {
  std::uint64_t v = 0;
  for (auto l : round_latencies) v = std::max(v, l);
  return v;
}

std::uint64_t HandoffMetrics::min_latency() const {
  if (round_latencies.empty()) return 0;
  std::uint64_t v = round_latencies[0];
  for (auto l : round_latencies) v = std::min(v, l);
  return v;
}

bool HandoffMetrics::latencies_identical() const {
  return round_latencies.empty() || min_latency() == max_latency();
}

namespace {

constexpr std::uint64_t kDataAddr = 4;
constexpr std::uint64_t kFlagAddr = 5;
constexpr std::uint64_t kAckAddr = 6;

std::string idx(const char* base, int i) {
  return std::string(base) + std::to_string(i);
}

/// Value published in round r (1-based generation).
std::uint64_t round_value(int r) { return 0x1000u + static_cast<std::uint64_t>(r); }

// ---------------------------------------------------------------------------
// Generic client scripting over a req/we/addr/wdata + grant/valid interface
// (bare and lockmem share it; the organizations use dedicated drivers).
// ---------------------------------------------------------------------------

struct Client {
  enum class OpKind { Write, Read, Poll, Increment, Lock, Unlock, Stop };
  struct Op {
    OpKind kind;
    std::uint64_t addr = 0;
    std::uint64_t data = 0;      // Write: value; Poll: expected value
    std::uint64_t* capture = nullptr;  // Read destination
    int round = -1;              // marks round completion points
  };
  int id = 0;
  // Ports as net ids, resolved once by GenericRun::run (lock ports only on
  // lockmem).
  int req = -1, we = -1, addr = -1, wdata = -1, grant = -1, valid = -1;
  int lock_req = -1, lock_addr = -1, unlock_req = -1, lock_grant = -1;
  std::vector<Op> ops;
  std::size_t pc = 0;
  enum class Stage { Drive, AwaitValid, WriteBack } stage = Stage::Drive;
  std::uint64_t rmw_value = 0;  // captured value for Increment write-back

  [[nodiscard]] bool done() const { return pc >= ops.size(); }
  [[nodiscard]] const Op& op() const { return ops[pc]; }
};

struct GenericRun {
  rtl::ModuleSim sim;
  std::vector<Client> clients;
  HandoffMetrics metrics;

  explicit GenericRun(const rtl::Module& m) : sim(m) { sim.reset(); }

  void run(int rounds, int consumers, std::uint64_t max_cycles,
           bool has_locks) {
    std::vector<std::uint64_t> publish_cycle(
        static_cast<std::size_t>(rounds), 0);
    std::vector<int> consumed(static_cast<std::size_t>(rounds), 0);
    std::vector<std::uint64_t> complete_cycle(
        static_cast<std::size_t>(rounds), 0);

    for (Client& c : clients) {
      auto port = [&](const char* base) { return sim.net_id(idx(base, c.id)); };
      c.req = port("req");
      c.we = port("we");
      c.addr = port("addr");
      c.wdata = port("wdata");
      c.grant = port("grant");
      c.valid = port("valid");
      if (has_locks) {
        c.lock_req = port("lock_req");
        c.lock_addr = port("lock_addr");
        c.unlock_req = port("unlock_req");
        c.lock_grant = port("lock_grant");
      }
    }
    const int bus_rdata = sim.net_id("bus_rdata");

    std::uint64_t cycle = 0;
    bool all_ok = true;
    while (cycle < max_cycles) {
      bool all_done = true;
      for (const Client& c : clients) {
        if (!c.done()) all_done = false;
      }
      if (all_done) break;

      // Drive.
      for (Client& c : clients) {
        sim.set_input(c.req, 0);
        if (has_locks) {
          sim.set_input(c.lock_req, 0);
          sim.set_input(c.unlock_req, 0);
        }
        if (c.done()) continue;
        const Client::Op& op = c.op();
        switch (op.kind) {
          case Client::OpKind::Write:
            if (c.stage == Client::Stage::Drive) {
              sim.set_input(c.req, 1);
              sim.set_input(c.we, 1);
              sim.set_input(c.addr, op.addr);
              sim.set_input(c.wdata, op.data);
            }
            break;
          case Client::OpKind::Read:
          case Client::OpKind::Poll:
            if (c.stage == Client::Stage::Drive) {
              sim.set_input(c.req, 1);
              sim.set_input(c.we, 0);
              sim.set_input(c.addr, op.addr);
            }
            break;
          case Client::OpKind::Increment:
            if (c.stage == Client::Stage::Drive) {
              sim.set_input(c.req, 1);
              sim.set_input(c.we, 0);
              sim.set_input(c.addr, op.addr);
            } else if (c.stage == Client::Stage::WriteBack) {
              sim.set_input(c.req, 1);
              sim.set_input(c.we, 1);
              sim.set_input(c.addr, op.addr);
              sim.set_input(c.wdata, c.rmw_value + 1);
            }
            break;
          case Client::OpKind::Lock:
            sim.set_input(c.lock_req, 1);
            sim.set_input(c.lock_addr, op.addr);
            break;
          case Client::OpKind::Unlock:
            sim.set_input(c.unlock_req, 1);
            break;
          case Client::OpKind::Stop:
            break;
        }
      }

      sim.settle();

      // Observe.
      for (Client& c : clients) {
        if (c.done()) continue;
        Client::Op& op = c.ops[c.pc];
        switch (op.kind) {
          case Client::OpKind::Write:
            if (sim.get(c.grant) != 0) {
              ++metrics.bus_grants;
              if (op.round >= 0) {
                publish_cycle[static_cast<std::size_t>(op.round)] = cycle;
              }
              ++c.pc;
            }
            break;
          case Client::OpKind::Read:
          case Client::OpKind::Poll:
            if (c.stage == Client::Stage::Drive) {
              if (sim.get(c.grant) != 0) {
                ++metrics.bus_grants;
                c.stage = Client::Stage::AwaitValid;
              }
            } else if (sim.get(c.valid) != 0) {
              std::uint64_t v = sim.get(bus_rdata);
              c.stage = Client::Stage::Drive;
              if (op.kind == Client::OpKind::Read) {
                if (op.capture != nullptr) *op.capture = v;
                if (op.round >= 0) {
                  auto r = static_cast<std::size_t>(op.round);
                  if (v != round_value(op.round)) all_ok = false;
                  if (++consumed[r] ==
                      static_cast<int>(clients.size()) - 1) {
                    complete_cycle[r] = cycle;
                  }
                }
                ++c.pc;
              } else {
                // Poll: retry until the expected generation shows up.
                if (v == op.data) ++c.pc;
              }
            }
            break;
          case Client::OpKind::Increment:
            if (c.stage == Client::Stage::Drive) {
              if (sim.get(c.grant) != 0) {
                ++metrics.bus_grants;
                c.stage = Client::Stage::AwaitValid;
              }
            } else if (c.stage == Client::Stage::AwaitValid) {
              if (sim.get(c.valid) != 0) {
                c.rmw_value = sim.get(bus_rdata);
                c.stage = Client::Stage::WriteBack;
              }
            } else {
              if (sim.get(c.grant) != 0) {
                ++metrics.bus_grants;
                c.stage = Client::Stage::Drive;
                ++c.pc;
              }
            }
            break;
          case Client::OpKind::Lock:
            if (sim.get(c.lock_grant) != 0) ++c.pc;
            break;
          case Client::OpKind::Unlock:
            // The release pulse was driven this cycle and commits on this
            // edge.
            ++c.pc;
            break;
          case Client::OpKind::Stop:
            ++c.pc;
            break;
        }
      }

      sim.step();
      ++cycle;
    }

    metrics.total_cycles = cycle;
    bool finished = true;
    for (const Client& c : clients) {
      if (!c.done()) finished = false;
    }
    metrics.ok = finished && all_ok;
    for (std::size_t r = 0; r < publish_cycle.size(); ++r) {
      if (complete_cycle[r] >= publish_cycle[r] && complete_cycle[r] != 0) {
        metrics.round_latencies.push_back(complete_cycle[r] -
                                          publish_cycle[r]);
      }
    }
    (void)consumers;
  }
};

}  // namespace

HandoffMetrics run_polling_handoff(const rtl::Module& bare, int consumers,
                                   int rounds, std::uint64_t max_cycles) {
  GenericRun run(bare);
  // Producer = client 0. Flow control without locks: each consumer owns a
  // private ack word (kAckAddr + i) it bumps after reading; the producer
  // polls every ack before starting the next round.
  Client producer;
  producer.id = 0;
  for (int r = 0; r < rounds; ++r) {
    producer.ops.push_back(
        {Client::OpKind::Write, kDataAddr, round_value(r), nullptr, -1});
    // Publishing the generation flag completes the produce.
    producer.ops.push_back({Client::OpKind::Write, kFlagAddr,
                            static_cast<std::uint64_t>(r + 1), nullptr, r});
    for (int i = 0; i < consumers; ++i) {
      producer.ops.push_back(
          {Client::OpKind::Poll, kAckAddr + static_cast<std::uint64_t>(i),
           static_cast<std::uint64_t>(r + 1), nullptr, -1});
    }
  }
  run.clients.push_back(std::move(producer));
  for (int i = 0; i < consumers; ++i) {
    Client c;
    c.id = i + 1;
    for (int r = 0; r < rounds; ++r) {
      c.ops.push_back({Client::OpKind::Poll, kFlagAddr,
                       static_cast<std::uint64_t>(r + 1), nullptr, -1});
      c.ops.push_back({Client::OpKind::Read, kDataAddr, 0, nullptr, r});
      c.ops.push_back({Client::OpKind::Write,
                       kAckAddr + static_cast<std::uint64_t>(i),
                       static_cast<std::uint64_t>(r + 1), nullptr, -1});
    }
    run.clients.push_back(std::move(c));
  }
  run.run(rounds, consumers, max_cycles, /*has_locks=*/false);
  return run.metrics;
}

HandoffMetrics run_lock_handoff(const rtl::Module& lockmem, int consumers,
                                int rounds, std::uint64_t max_cycles) {
  GenericRun run(lockmem);
  // The hand-written discipline the paper calls tedious and error-prone:
  // the producer cannot overwrite until every consumer acknowledged the
  // previous round, so an ack word is maintained with locked
  // read-modify-writes and the producer polls it between rounds.
  Client producer;
  producer.id = 0;
  for (int r = 0; r < rounds; ++r) {
    producer.ops.push_back({Client::OpKind::Lock, kDataAddr, 0, nullptr, -1});
    producer.ops.push_back(
        {Client::OpKind::Write, kDataAddr, round_value(r), nullptr, -1});
    producer.ops.push_back({Client::OpKind::Write, kFlagAddr,
                            static_cast<std::uint64_t>(r + 1), nullptr, r});
    producer.ops.push_back({Client::OpKind::Unlock, 0, 0, nullptr, -1});
    producer.ops.push_back(
        {Client::OpKind::Poll, kAckAddr,
         static_cast<std::uint64_t>((r + 1) * consumers), nullptr, -1});
  }
  run.clients.push_back(std::move(producer));
  for (int i = 0; i < consumers; ++i) {
    Client c;
    c.id = i + 1;
    for (int r = 0; r < rounds; ++r) {
      c.ops.push_back({Client::OpKind::Poll, kFlagAddr,
                       static_cast<std::uint64_t>(r + 1), nullptr, -1});
      c.ops.push_back({Client::OpKind::Lock, kDataAddr, 0, nullptr, -1});
      c.ops.push_back({Client::OpKind::Read, kDataAddr, 0, nullptr, r});
      c.ops.push_back({Client::OpKind::Unlock, 0, 0, nullptr, -1});
      c.ops.push_back({Client::OpKind::Lock, kAckAddr, 0, nullptr, -1});
      c.ops.push_back({Client::OpKind::Increment, kAckAddr, 0, nullptr, -1});
      c.ops.push_back({Client::OpKind::Unlock, 0, 0, nullptr, -1});
    }
    run.clients.push_back(std::move(c));
  }
  run.run(rounds, consumers, max_cycles, /*has_locks=*/true);
  return run.metrics;
}

// ---------------------------------------------------------------------------
// Organization driver: the request/grant protocol of either organization,
// through the controller's bound ports. Event-driven clients request only
// in their own schedule slot.
// ---------------------------------------------------------------------------

namespace {

HandoffMetrics run_org_handoff(const rtl::Module& org, bool event_driven,
                               int consumers, int rounds,
                               std::uint64_t max_cycles) {
  rtl::ModuleSim sim(org);
  sim.reset();
  const memorg::ControllerPorts ports =
      memorg::bind_ports(org, event_driven, consumers, 1);
  const memorg::ProducerNets& producer = ports.producers[0];
  // The scenario's one dependency: producer pseudo-port 0 publishes to
  // every consumer pseudo-port, in order.
  memorg::DepEntry dep;
  for (int i = 0; i < consumers; ++i) dep.consumer_ports.push_back(i);
  const std::vector<memorg::Slot> schedule = memorg::slot_schedule({dep});
  const int producer_slot = memorg::find_slot(schedule, 0, true, 0);
  std::vector<int> consumer_slot;
  for (int i = 0; i < consumers; ++i) {
    consumer_slot.push_back(memorg::find_slot(schedule, 0, false, i));
  }

  enum class Stage { Request, AwaitValid, Done };
  HandoffMetrics metrics;
  int round = 0;
  Stage prod = Stage::Request;
  std::vector<Stage> cons(static_cast<std::size_t>(consumers),
                          Stage::Request);
  std::uint64_t publish = 0;
  int consumed = 0;
  bool ok = true;
  std::uint64_t cycle = 0;

  while (round < rounds && cycle < max_cycles) {
    // Drive. The slot is a register: reading it before settle is safe.
    sim.set_input(producer.req, 0);
    for (const memorg::ConsumerNets& c : ports.consumers) {
      sim.set_input(c.req, 0);
    }
    const std::uint64_t slot = event_driven ? sim.get(ports.slot) : 0;
    auto my_turn = [&](int owned) {
      return !event_driven || slot == static_cast<std::uint64_t>(owned);
    };
    if (prod == Stage::Request && my_turn(producer_slot)) {
      sim.set_input(producer.req, 1);
      sim.set_input(producer.addr, kDataAddr);
      sim.set_input(producer.wdata, round_value(round));
    }
    for (std::size_t i = 0; i < cons.size(); ++i) {
      if (cons[i] == Stage::Request && my_turn(consumer_slot[i])) {
        sim.set_input(ports.consumers[i].req, 1);
        sim.set_input(ports.consumers[i].addr, kDataAddr);
      }
    }
    sim.settle();
    // Observe.
    if (prod == Stage::Request && sim.get(producer.grant) != 0) {
      ++metrics.bus_grants;
      publish = cycle;
      prod = Stage::Done;
    }
    for (std::size_t i = 0; i < cons.size(); ++i) {
      Stage& st = cons[i];
      if (st == Stage::Request &&
          ports.read_accepted(sim, static_cast<int>(i))) {
        ++metrics.bus_grants;
        st = Stage::AwaitValid;
      } else if (st == Stage::AwaitValid &&
                 sim.get(ports.consumers[i].valid) != 0) {
        if (sim.get(ports.bus_rdata) != round_value(round)) ok = false;
        st = Stage::Done;
        ++consumed;
      }
    }
    sim.step();
    ++cycle;

    if (prod == Stage::Done && consumed == consumers) {
      metrics.round_latencies.push_back(cycle - 1 - publish);
      ++round;
      prod = Stage::Request;
      for (auto& st : cons) st = Stage::Request;
      consumed = 0;
    }
  }
  metrics.total_cycles = cycle;
  metrics.ok = ok && round == rounds;
  return metrics;
}

}  // namespace

HandoffMetrics run_arbitrated_handoff(const rtl::Module& org, int consumers,
                                      int rounds, std::uint64_t max_cycles) {
  return run_org_handoff(org, false, consumers, rounds, max_cycles);
}

HandoffMetrics run_eventdriven_handoff(const rtl::Module& org, int consumers,
                                       int rounds,
                                       std::uint64_t max_cycles) {
  return run_org_handoff(org, true, consumers, rounds, max_cycles);
}

}  // namespace hicsync::baseline

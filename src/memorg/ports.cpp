#include "memorg/ports.h"

#include <array>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

namespace hicsync::memorg {

namespace {

using Names = std::array<std::string, 4>;

const std::array<const char*, 5> kPortA = {"a_en", "a_we", "a_addr",
                                           "a_wdata", "a_rdata"};

/// req, addr, grant, valid of consumer pseudo-port i.
Names consumer_names(bool event_driven, int i) {
  const std::string n = std::to_string(i);
  return {"c_req" + n, "c_addr" + n,
          (event_driven ? "ev_c" : "c_grant") + n, "c_valid" + n};
}

/// req, addr, wdata, grant of producer pseudo-port j.
Names producer_names(bool event_driven, int j) {
  const std::string d = event_driven ? "p_" : "d_";
  const std::string n = std::to_string(j);
  return {d + "req" + n, d + "addr" + n, d + "wdata" + n, d + "grant" + n};
}

}  // namespace

PortANets add_port_a(rtl::Module& m, int addr_width, int data_width) {
  return {m.add_input(kPortA[0], 1), m.add_input(kPortA[1], 1),
          m.add_input(kPortA[2], addr_width),
          m.add_input(kPortA[3], data_width),
          m.add_output_reg(kPortA[4], data_width)};
}

ConsumerNets add_consumer_port(rtl::Module& m, bool event_driven, int i,
                               int addr_width) {
  const Names n = consumer_names(event_driven, i);
  return {m.add_input(n[0], 1), m.add_input(n[1], addr_width),
          m.add_output(n[2], 1), m.add_output(n[3], 1)};
}

ProducerNets add_producer_port(rtl::Module& m, bool event_driven, int j,
                               int addr_width, int data_width) {
  const Names n = producer_names(event_driven, j);
  return {m.add_input(n[0], 1), m.add_input(n[1], addr_width),
          m.add_input(n[2], data_width), m.add_output(n[3], 1)};
}

void add_bram(rtl::Module& m, const PortANets& a, int port1_addr,
              int port1_we, int port1_wdata, int bus_rdata) {
  using rtl::eref;
  const int aw = m.net(a.addr).width;
  const int dw = m.net(a.wdata).width;
  rtl::Memory& mem = m.add_memory("mem", dw, 1 << aw);
  rtl::MemoryPort p0;
  p0.addr = eref(a.addr, aw);
  p0.write_enable = rtl::ebin(rtl::RtlOp::And, eref(a.en, 1), eref(a.we, 1));
  p0.write_data = eref(a.wdata, dw);
  p0.read_data = a.rdata;
  mem.ports.push_back(std::move(p0));
  rtl::MemoryPort p1;
  p1.addr = eref(port1_addr, aw);
  p1.write_enable = eref(port1_we, 1);
  p1.write_data = eref(port1_wdata, dw);
  p1.read_data = bus_rdata;
  mem.ports.push_back(std::move(p1));
}

ControllerPorts bind_ports(const rtl::Module& module, bool event_driven,
                           int num_consumers, int num_producers) {
  std::map<std::string, int> by_name;
  for (const rtl::Port& p : module.ports()) by_name[p.name] = p.net;
  auto port = [&](const std::string& name) {
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      throw std::runtime_error("memorg: controller '" + module.name() +
                               "' has no port '" + name + "'");
    }
    return it->second;
  };

  ControllerPorts ports;
  ports.event_driven = event_driven;
  ports.a = {port(kPortA[0]), port(kPortA[1]), port(kPortA[2]),
             port(kPortA[3]), port(kPortA[4])};
  ports.bus_rdata = port("bus_rdata");
  if (event_driven) ports.slot = port("slot");
  for (int i = 0; i < num_consumers; ++i) {
    const Names n = consumer_names(event_driven, i);
    ports.consumers.push_back(
        {port(n[0]), port(n[1]), port(n[2]), port(n[3])});
  }
  for (int j = 0; j < num_producers; ++j) {
    const Names n = producer_names(event_driven, j);
    ports.producers.push_back(
        {port(n[0]), port(n[1]), port(n[2]), port(n[3])});
  }
  return ports;
}

}  // namespace hicsync::memorg

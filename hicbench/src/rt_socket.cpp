// rt_socket: the hic-rtd protocol over AF_UNIX, in one process.
//
// pipeline.hic is compiled for each organization, emitted as a hicbin
// artifact and loaded back through rt::ProgramStore; each organization's
// program is served by its own 2-shard rt::Service behind an
// rt::RemoteServer. One client thread with one RemoteClient connection per
// server repeats open -> produce(seeded words) -> run(1 pass) ->
// consume(all) -> close in a closed loop, alternating servers session by
// session. Requests are small, so L3 (Service) and L4 (wire, socket)
// carry most of the cost.
//
// Check: every consume returns the registers of a fresh single-instance
// rt::run_workload on the compiler's own result with the same folded seed.
//
// The whole workload runs on one CPU, with one request in flight. On a
// virtualized 4-CPU host the wake-ups that hand a request between client,
// connection and shard threads on different CPUs made the median request
// take 64 to 90 us across ten runs of two unpinned clients (quartile
// spread 16%); a second client on the same CPU made each request wait on
// the other's run in patterns that changed from run to run (12%). One
// client on one CPU measured a quartile spread near 3%, so a change to L3
// or L4 is not lost in host noise.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <functional>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/compiler.h"
#include "rt/artifact.h"
#include "rt/service.h"
#include "rt/store.h"
#include "rt/wire.h"
#include "rt/workload.h"
#include "stats.h"
#include "support/json.h"

namespace hicbench {
namespace {

namespace rt = hicsync::rt;
using hicsync::sim::OrgKind;
using Clock = std::chrono::steady_clock;
using Registers = std::vector<std::pair<std::string, std::uint64_t>>;

constexpr int kShards = 2;
constexpr int kOrgs = 2;
constexpr int kSetups = 9;
constexpr int kPasses = 1;
// Distinct produce-word lists drawn per run; sessions pick among them, so
// the reference check runs once per (organization, list).
constexpr std::size_t kWordLists = 512;
// Upper bound on the session rate, for reserving sample storage.
constexpr double kMaxSessionsPerS = 20000.0;
// Sessions per organization in the traced run's layer decomposition.
constexpr int kReplaySessions = 200;

enum Kind { kOpen, kProduce, kRun, kConsume, kClose, kKinds };
const char* const kKindNames[kKinds] = {"open", "produce", "run", "consume",
                                        "close"};
const char* const kOrgNames[kOrgs] = {"arb", "ed"};
const char* const kWireSpans[kKinds] = {"wire.open", "wire.produce",
                                        "wire.run", "wire.consume",
                                        "wire.close"};

// One organization's serving stack. Members are destroyed bottom-up: the
// server stops before the service it serves, which goes before the
// program both use.
struct Server {
  std::unique_ptr<hicsync::core::CompileResult> reference;
  std::shared_ptr<const rt::LoadedProgram> program;
  std::unique_ptr<rt::Service> service;
  std::unique_ptr<rt::RemoteServer> server;
};

struct Rig {
  std::array<Server, kOrgs> servers;
  std::array<rt::RemoteClient, kOrgs> clients;  // one connection per server
};

struct WordList {
  std::vector<std::uint64_t> words;
  std::uint64_t folded = 0;  // the session seed these produces give
};

std::uint64_t registers_hash(const Registers& regs) {
  std::string text;
  for (const auto& [name, value] : regs) {
    text += name + "=" + std::to_string(value) + ";";
  }
  return rt::fnv1a64(text);
}

std::vector<WordList> make_word_lists(std::uint64_t seed) {
  std::vector<WordList> lists(kWordLists);
  for (std::size_t i = 0; i < kWordLists; ++i) {
    const std::size_t n = 1 + derive_seed(seed, 7, i) % 4;
    for (std::size_t j = 0; j < n; ++j) {
      lists[i].words.push_back(derive_seed(seed, 8 + i, j));
    }
    lists[i].folded = rt::fold_seed(rt::kWorkloadSeedInit,
                                    lists[i].words.data(), n);
  }
  return lists;
}

// Restricts this thread, and so every thread it starts later, to the
// first CPU it may run on.
bool pin_to_first_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return false;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0;
  }
  return false;
}

// Builds both serving stacks and connects every client.
bool build_rig(bool telemetry, const std::string& tag, Rig* rig,
               Outcome& out) {
  std::string source;
  if (!read_file("examples/pipeline.hic", &source)) {
    out.fail("cannot read examples/pipeline.hic");
    return false;
  }
  for (int org = 0; org < kOrgs; ++org) {
    Server& s = rig->servers[org];
    hicsync::core::CompileOptions copts;
    copts.organization = org == 0 ? OrgKind::Arbitrated : OrgKind::EventDriven;
    copts.source_name = "pipeline.hic";
    s.reference = hicsync::core::Compiler(copts).compile(source);
    if (!s.reference->ok()) {
      out.fail("pipeline.hic does not compile");
      return false;
    }
    const std::string bytes = rt::emit_artifact(*s.reference, source);
    rt::ProgramStore store;
    rt::ArtifactError error;
    s.program = store.load_bytes(bytes, &error);
    if (s.program == nullptr) {
      out.fail("artifact rejected: " + error.str());
      return false;
    }
    rt::ServiceOptions sopts;
    sopts.shards = kShards;
    sopts.telemetry.enabled = telemetry;
    s.service = std::make_unique<rt::Service>(s.program, sopts);
    const std::string path = std::string(kRunDir) + "/hb" +
                             std::to_string(::getpid()) + tag + kOrgNames[org] +
                             ".sock";
    s.server = std::make_unique<rt::RemoteServer>(*s.service, path);
    std::string why;
    if (!s.server->start(&why)) {
      out.fail("cannot serve on " + path + ": " + why);
      return false;
    }
  }
  for (int org = 0; org < kOrgs; ++org) {
    std::string why;
    if (!rig->clients[org].connect(rig->servers[org].server->socket_path(),
                                   &why)) {
      out.fail("cannot connect: " + why);
      return false;
    }
  }
  return true;
}

// Expected register hash of every (organization, word list): a fresh
// single-instance run on the compiler's own result, not on the served
// artifact, so the check is independent of artifact loading.
using Expected = std::array<std::vector<std::uint64_t>, kOrgs>;

Expected reference_hashes(const Rig& rig, const std::vector<WordList>& lists) {
  Expected out;
  for (int org = 0; org < kOrgs; ++org) {
    const auto& ref = *rig.servers[org].reference;
    auto sim = ref.make_simulator();
    for (const WordList& wl : lists) {
      const auto r = rt::run_workload(*sim, ref.program(), ref.sema(), kPasses,
                                      rt::ServiceOptions{}.max_cycles,
                                      wl.folded);
      out[org].push_back(registers_hash(r.registers));
    }
  }
  return out;
}

struct Window {
  std::vector<float> latency_us[kOrgs][kKinds];
  std::uint64_t requests = 0;
  double seconds = 0.0;
  double peak_rss_mb = 0.0;  // read as the window ends
};

// One closed-loop window on the calling thread: session k goes to server
// (k + seed) mod 2 with word list derive_seed(seed, k).
Window measure(Rig& rig, const std::vector<WordList>& lists,
               const Expected& expected, std::uint64_t seed, double budget_s,
               SpanRecorder* spans, Outcome& out) {
  Window w;
  // Room for every sample up front: capacity that is never touched costs
  // no resident memory, and no vector doubles (and so briefly holds two
  // copies) at a point that differs from run to run, which would make
  // peak RSS jitter.
  const auto room = static_cast<std::size_t>(budget_s * kMaxSessionsPerS);
  for (auto& per_org : w.latency_us) {
    for (auto& samples : per_org) samples.reserve(room);
  }
  const auto start = Clock::now();
  for (std::uint64_t k = 0; seconds_since(start) < budget_s; ++k) {
    const int org = static_cast<int>((k + seed) % kOrgs);
    const std::size_t list = derive_seed(seed, 100, k) % lists.size();
    rt::RemoteClient& client = rig.clients[org];
    ScopedSpan session_span(spans, "bench.session", "bench", 0, k);
    std::uint64_t session = 0;
    Registers regs;
    rt::RemoteClient::RunInfo info;
    std::string error;
    for (int kind = 0; kind < kKinds; ++kind) {
      const auto t0 = Clock::now();
      bool ok = false;
      {
        ScopedSpan span(spans, kWireSpans[kind], "wire", session_span.id(),
                        k);
        switch (kind) {
          case kOpen: ok = client.open_session(&session, &error); break;
          case kProduce:
            ok = client.produce(session, lists[list].words, &error);
            break;
          case kRun:
            ok = client.run(session, kPasses, &info, &error) && info.converged;
            break;
          case kConsume: ok = client.consume(session, {}, &regs, &error); break;
          default: ok = client.close_session(session, &error); break;
        }
      }
      w.latency_us[org][kind].push_back(
          static_cast<float>(seconds_since(t0) * 1e6));
      const bool right =
          kind != kConsume || registers_hash(regs) == expected[org][list];
      out.attempt(ok && right);
      if (!ok || !right) {
        out.report_failure(
            std::string(kOrgNames[org]) + " " + kKindNames[kind] +
            " on word list " + std::to_string(list) +
            (ok ? ": registers differ from a fresh run" : ": " + error));
      }
      ++w.requests;
    }
  }
  w.seconds = seconds_since(start);
  w.peak_rss_mb = peak_rss_mb();
  return w;
}

std::vector<double> samples(const std::vector<float>& v) {
  return {v.begin(), v.end()};
}

std::vector<double> all_samples(const Window& w) {
  std::vector<double> all;
  all.reserve(w.requests);
  for (const auto& per_org : w.latency_us) {
    for (const auto& v : per_org) all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

Summary summarize(const Window& w) {
  Summary s;
  for (int org = 0; org < kOrgs; ++org) {
    std::vector<double> medians;
    for (int kind = 0; kind < kKinds; ++kind) {
      medians.push_back(median(samples(w.latency_us[org][kind])));
      s.total_ms += medians.back() / 1e3;
    }
    (org == 0 ? s.arb_us : s.ed_us) = geomean(medians);
  }
  return s;
}

// --- Traced run: layer decomposition -------------------------------------

std::string request_line(Kind kind, std::uint64_t session,
                         const std::vector<std::uint64_t>& words) {
  hicsync::support::JsonWriter w(0);
  w.begin_object();
  w.key("op").value(kKindNames[kind]);
  if (kind != kOpen) w.key("session").value(session);
  if (kind == kProduce) {
    w.key("words").begin_array();
    for (std::uint64_t word : words) w.value(std::to_string(word));
    w.end_array();
  }
  if (kind == kRun) w.key("passes").value(kPasses);
  if (kind == kConsume) w.key("names").begin_array().end_array();
  w.end_object();
  return w.str();
}

// Replays the same op sequence through four entry points, one session at
// a time: the socket (RemoteClient), an in-process handle_request_line, the
// Service API (futures), and a bare run_workload for runs. Differences of
// per-kind medians give each layer's share.
void decompose(Rig& rig, const std::vector<WordList>& lists,
               const Expected& expected, const Options& options,
               SpanRecorder* spans, Outcome& out) {
  std::vector<double> socket_us[kKinds];
  std::vector<double> handle_us[kKinds];
  std::vector<double> service_us[kKinds];
  std::vector<double> bare_run_us;
  std::array<rt::RemoteClient, kOrgs> clients;
  std::array<std::unique_ptr<hicsync::sim::SystemSim>, kOrgs> bare;
  for (int org = 0; org < kOrgs; ++org) {
    std::string why;
    if (!clients[org].connect(rig.servers[org].server->socket_path(), &why)) {
      out.fail("cannot connect: " + why);
      return;
    }
    bare[org] = rig.servers[org].program->make_simulator();
  }
  auto timed = [&](std::vector<double>* into, const char* name,
                   const char* layer, std::uint64_t parent, auto&& call) {
    const auto t0 = Clock::now();
    bool ok = false;
    {
      ScopedSpan span(spans, name, layer, parent);
      ok = call();
    }
    into->push_back(seconds_since(t0) * 1e6);
    return ok;
  };

  for (int s = 0; s < kReplaySessions; ++s) {
    for (int org = 0; org < kOrgs; ++org) {
      const std::size_t list =
          derive_seed(options.seed, 300 + org, s) % lists.size();
      const WordList& wl = lists[list];
      const std::uint64_t want = expected[org][list];
      rt::Service& service = *rig.servers[org].service;
      ScopedSpan replay(spans, "bench.replay", "bench", 0, s);

      // (a) The socket.
      {
        rt::RemoteClient& client = clients[org];
        std::uint64_t id = 0;
        Registers regs;
        rt::RemoteClient::RunInfo info;
        std::string e;
        const std::function<bool()> calls[kKinds] = {
            [&] { return client.open_session(&id, &e); },
            [&] { return client.produce(id, wl.words, &e); },
            [&] { return client.run(id, kPasses, &info, &e); },
            [&] { return client.consume(id, {}, &regs, &e); },
            [&] { return client.close_session(id, &e); }};
        bool ok = true;
        for (int kind = 0; kind < kKinds; ++kind) {
          ok &= timed(&socket_us[kind], "wire.socket", "wire", replay.id(),
                      calls[kind]);
        }
        out.attempt(ok && registers_hash(regs) == want);
      }
      // (b) The protocol engine in-process.
      {
        std::uint64_t session = 0;
        bool ok = true;
        for (int kind = 0; kind < kKinds; ++kind) {
          const std::string line =
              request_line(static_cast<Kind>(kind), session, wl.words);
          std::string resp;
          timed(&handle_us[kind], "wire.handle", "wire", replay.id(), [&] {
            resp = rt::handle_request_line(service, line);
            return true;
          });
          hicsync::support::JsonValue v;
          const auto* okv = hicsync::support::parse_json(resp, &v)
                                ? v.find("ok")
                                : nullptr;
          ok &= okv != nullptr && okv->bool_value;
          if (kind == kOpen) {
            const auto* id = ok ? v.find("session") : nullptr;
            ok = id != nullptr;
            if (ok) session = static_cast<std::uint64_t>(id->number_value);
          }
        }
        out.attempt(ok);
      }
      // (c) The Service API.
      {
        std::uint64_t id = 0;
        Registers regs;
        const std::function<bool()> calls[kKinds] = {
            [&] {
              id = service.open_session();
              return true;
            },
            [&] {
              rt::BufferHandle buf =
                  service.buffers().allocate(wl.words.size());
              std::copy(wl.words.begin(), wl.words.end(), buf.data());
              return service.produce(id, std::move(buf)).get().ok;
            },
            [&] { return service.run(id, kPasses).get().ok; },
            [&] {
              auto r = service.consume(id, {}).get();
              regs = std::move(r.registers);
              return r.ok;
            },
            [&] { return service.close_session(id).get().ok; }};
        bool ok = true;
        for (int kind = 0; kind < kKinds; ++kind) {
          ok &= timed(&service_us[kind], "rt.service", "rt", replay.id(),
                      calls[kind]);
        }
        out.attempt(ok && registers_hash(regs) == want);
      }
      // (d) The bare workload the run command wraps.
      {
        const auto& prog = *rig.servers[org].program;
        rt::WorkloadResult r;
        timed(&bare_run_us, "sim.run_workload", "sim", replay.id(), [&] {
          r = rt::run_workload(*bare[org], prog.program(), prog.sema(),
                               kPasses, rt::ServiceOptions{}.max_cycles,
                               wl.folded);
          return true;
        });
        out.attempt(r.converged && registers_hash(r.registers) == want);
      }
    }
  }
  for (int kind = 0; kind < kKinds; ++kind) {
    const std::string k = kKindNames[kind];
    const double sock = median(socket_us[kind]);
    const double handle = median(handle_us[kind]);
    const double svc = median(service_us[kind]);
    const double bare_us = kind == kRun ? median(bare_run_us) : 0.0;
    out.set("wire.socket_us." + k, sock - handle);
    out.set("wire.handle_us." + k, handle - svc);
    out.set("rt.hop_us." + k, svc - bare_us);
  }
}

// Queue wait (telemetry stage histograms) and service stats of the traced
// rig, read right after its traced window.
void service_layers(const Rig& rig, Outcome& out) {
  double wait_sum = 0.0;
  double wait_count = 0.0;
  std::uint64_t max_depth = 0;
  std::uint64_t failures = 0;
  for (const Server& s : rig.servers) {
    hicsync::support::JsonValue doc;
    if (!hicsync::support::parse_json(s.service->telemetry_json(), &doc)) {
      out.fail("unreadable telemetry_json");
      return;
    }
    const auto* shards = doc.find("shards");
    if (shards == nullptr) {
      out.fail("telemetry_json has no shards");
      return;
    }
    for (const auto& shard : shards->elements) {
      const auto* stages = shard.find("stages");
      const auto* queue = stages ? stages->find("queue_us") : nullptr;
      const auto* count = queue ? queue->find("count") : nullptr;
      const auto* mean = queue ? queue->find("mean") : nullptr;
      if (count != nullptr && mean != nullptr) {
        wait_sum += count->number_value * mean->number_value;
        wait_count += count->number_value;
      }
    }
    const auto stats = s.service->stats();
    failures += stats.failed;
    for (const auto& shard : stats.shards) {
      max_depth = std::max(max_depth, shard.max_queue_depth);
    }
  }
  out.set("rt.queue_wait_us", wait_count > 0 ? wait_sum / wait_count : 0.0);
  out.set("rt.max_queue_depth", static_cast<double>(max_depth));
  out.set("rt.failures", static_cast<double>(failures));
}

}  // namespace

void run_rt_socket(const Options& options, SpanRecorder* spans,
                   Outcome& out) {
  // Before any thread starts: every thread inherits the affinity.
  if (!pin_to_first_cpu()) {
    std::fprintf(stderr, "hic-bench: cannot pin to one CPU; unpinned\n");
  }
  const std::vector<WordList> lists = make_word_lists(options.seed);
  std::unique_ptr<Rig> rig;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    rig.reset();  // the previous set-up's servers stop first
    const auto t0 = Clock::now();
    rig = std::make_unique<Rig>();
    if (!build_rig(false, "u", rig.get(), out)) return;
    setup_s.push_back(seconds_since(t0));
  }
  const Expected expected = reference_hashes(*rig, lists);

  if (!options.trace) {
    const Window w = measure(*rig, lists, expected, options.seed,
                             options.seconds, nullptr, out);
    report_end_to_end(summarize(w), setup_s, w.peak_rss_mb, out);
    const std::vector<double> all = all_samples(w);
    out.note("rt.requests_per_s",
             static_cast<double>(w.requests) / w.seconds, "1/s");
    out.note("rt.p50_us", median(all), "us");
    if (auto tail = tail_percentile(all, 0.99)) {
      out.note("rt.p99_us", tail->value, "us");
      std::printf("  (p%.4g of %zu requests, %zu beyond)\n",
                  tail->quantile * 100, tail->samples, tail->beyond);
    }
    for (int org = 0; org < kOrgs; ++org) {
      for (int kind = 0; kind < kKinds; ++kind) {
        out.note(std::string("rt.p50_us.") + kOrgNames[org] + "." +
                     kKindNames[kind],
                 median(samples(w.latency_us[org][kind])), "us");
      }
    }
    return;
  }

  const Window a = measure(*rig, lists, expected, options.seed,
                           options.seconds / 2, nullptr, out);
  auto traced = std::make_unique<Rig>();
  if (!build_rig(true, "t", traced.get(), out)) return;
  const Window b = measure(*traced, lists, expected, options.seed,
                           options.seconds / 2, spans, out);
  report_overhead(summarize(a), summarize(b), out);
  const std::vector<double> all = all_samples(a);
  out.set("rt.requests_per_s", static_cast<double>(a.requests) / a.seconds);
  out.set("rt.p50_us", median(all));
  if (auto tail = tail_percentile(all, 0.99)) {
    out.set("rt.p99_us", tail->value);
  }
  service_layers(*traced, out);
  decompose(*traced, lists, expected, options, spans, out);
}

}  // namespace hicbench

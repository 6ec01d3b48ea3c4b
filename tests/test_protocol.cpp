// The NDJSON protocol core (server/protocol.hpp), the worker's distribution
// verbs (dist/worker_verbs.hpp) and the shared TCP line server
// (server/line_server.hpp), driven in-process.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <latch>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/island.hpp"
#include "dist/cache_wire.hpp"
#include "dist/net.hpp"
#include "dist/worker_verbs.hpp"
#include "domains/hanoi.hpp"
#include "server/line_server.hpp"
#include "server/plan_service.hpp"
#include "server/problem_spec.hpp"
#include "server/protocol.hpp"
#include "server/request_codec.hpp"
#include "server/wire.hpp"
#include "util/rng.hpp"

namespace {

using namespace gaplan;
using serve::PlanService;
using serve::Protocol;
using serve::ServerConfig;
using serve::WireMessage;

const char* const kServeVerbs =
    "submit|poll|wait|cancel|stats|metrics|trace|shutdown";

/// A PlanService with its protocol table; `worker` adds the dist verbs.
struct Session {
  explicit Session(bool worker = false) : service(config()), protocol(service) {
    if (worker) dist::add_worker_verbs(protocol);
  }
  static ServerConfig config() {
    ServerConfig cfg;
    cfg.workers = 1;
    cfg.cache_capacity = 16;
    return cfg;
  }

  /// One line through handle_line, answered frame parsed.
  WireMessage call(const std::string& line) {
    bool close_after = false;
    return parse(raw(line, close_after));
  }
  std::string raw(const std::string& line, bool& close_after) {
    return protocol.handle_line(line, close_after);
  }
  static WireMessage parse(const std::string& frame) {
    WireMessage msg;
    std::string err;
    EXPECT_TRUE(serve::parse_wire_message(frame, msg, err))
        << err << " in " << frame;
    return msg;
  }

  PlanService service;
  Protocol protocol;
};

bool ok(const WireMessage& msg) { return msg.get_bool("ok").value_or(false); }

std::string error_of(const WireMessage& msg) {
  EXPECT_FALSE(ok(msg));
  const std::string* e = msg.get_string("error");
  return e ? *e : std::string("<no error field>");
}

/// Every key of a parsed frame, whatever its type.
std::set<std::string> keys(const WireMessage& msg) {
  std::set<std::string> out;
  for (const auto& [k, v] : msg.strings) out.insert(k);
  for (const auto& [k, v] : msg.numbers) out.insert(k);
  for (const auto& [k, v] : msg.bools) out.insert(k);
  for (const auto& [k, v] : msg.arrays) out.insert(k);
  return out;
}

const char* const kSubmit =
    R"({"cmd":"submit","problem":"hanoi:3","pop":40,"gens":20,"phases":5,"seed":3})";

TEST(ProtocolServe, SubmitWaitPollTraceCancel) {
  Session s;
  const WireMessage sub = s.call(kSubmit);
  ASSERT_TRUE(ok(sub));
  EXPECT_EQ(sub.get_number("id"), 1.0);

  const WireMessage done = s.call(R"({"cmd":"wait","id":1,"timeout_ms":60000})");
  ASSERT_TRUE(ok(done));
  EXPECT_EQ(*done.get_string("state"), "done");
  EXPECT_TRUE(done.get_bool("valid").value_or(false));
  ASSERT_NE(done.get_array("plan"), nullptr);
  EXPECT_EQ(done.get_number("steps"),
            static_cast<double>(done.get_array("plan")->size()));
  for (const char* k : {"yields", "slices", "queue_ms", "queue_wait_ms",
                        "cache_probe_ms", "plan_ms", "total_ms"}) {
    EXPECT_TRUE(done.get_number(k).has_value()) << k;
  }

  const WireMessage polled = s.call(R"({"cmd":"poll","id":1})");
  EXPECT_EQ(polled.arrays, done.arrays);

  const WireMessage trace = s.call(R"({"cmd":"trace","id":1})");
  ASSERT_TRUE(ok(trace));
  EXPECT_EQ(trace.get_array("plan"), nullptr);  // telemetry only
  for (const char* k : {"slices", "queue_ms", "other_ms"}) {
    EXPECT_TRUE(trace.get_number(k).has_value()) << k;
  }
  EXPECT_TRUE(trace.get_bool("tracing").has_value());

  const WireMessage cancel = s.call(R"({"cmd":"cancel","id":1})");
  ASSERT_TRUE(ok(cancel));
  EXPECT_EQ(cancel.get_bool("cancelled"), false);  // already done
}

TEST(ProtocolServe, IdVerbsRejectMissingZeroAndUnknownIds) {
  Session s;
  for (const std::string cmd : {"poll", "wait", "cancel", "trace"}) {
    EXPECT_EQ(error_of(s.call(R"({"cmd":")" + cmd + R"("})")),
              cmd + " needs an 'id'");
    EXPECT_NE(error_of(s.call(R"({"cmd":")" + cmd + R"(","id":0})"))
                  .find("'id'"),
              std::string::npos)
        << cmd;
    const WireMessage unknown =
        s.call(R"({"cmd":")" + cmd + R"(","id":999,"timeout_ms":0})");
    if (cmd == "cancel") {
      EXPECT_TRUE(ok(unknown));
      EXPECT_EQ(unknown.get_bool("cancelled"), false);
    } else {
      EXPECT_EQ(error_of(unknown), "unknown id 999");
    }
  }
}

TEST(ProtocolServe, SubmitRejectsBadSpec) {
  Session s;
  EXPECT_FALSE(error_of(s.call(R"({"cmd":"submit","problem":"nonsense:1"})"))
                   .empty());
}

TEST(ProtocolServe, StatsCarriesTalliesAndHistograms) {
  Session s;
  ASSERT_TRUE(ok(s.call(kSubmit)));
  const WireMessage stats = s.call(R"({"cmd":"stats"})");
  ASSERT_TRUE(ok(stats));
  EXPECT_EQ(stats.get_number("submitted"), 1.0);
  for (const char* k :
       {"yields", "queue_depth", "cache_capacity", "queue_wait_count",
        "slice_p50_ms", "cache_probe_p95_ms"}) {
    EXPECT_TRUE(stats.get_number(k).has_value()) << k;
  }
}

TEST(ProtocolServe, MetricsFormats) {
  Session s;
  bool close_after = false;
  const std::string json = s.raw(R"({"cmd":"metrics"})", close_after);
  EXPECT_EQ(json.rfind(R"({"ok":true,"format":"json","metrics":{)", 0), 0u)
      << json;
  EXPECT_EQ(s.raw(R"({"cmd":"metrics","format":"json"})", close_after)
                .rfind(R"({"ok":true,"format":"json","metrics":{)", 0),
            0u);

  const WireMessage prom = s.call(R"({"cmd":"metrics","format":"prometheus"})");
  ASSERT_TRUE(ok(prom));
  EXPECT_EQ(*prom.get_string("format"), "prometheus");
  EXPECT_NE(prom.get_string("text"), nullptr);

  EXPECT_EQ(error_of(s.call(R"({"cmd":"metrics","format":"xml"})")),
            "unknown metrics format 'xml' (json|prometheus)");
  EXPECT_FALSE(close_after);
}

TEST(ProtocolServe, MalformedLinesAnswerInBand) {
  Session s;
  EXPECT_EQ(error_of(s.call("this is not json")).rfind("parse: ", 0), 0u);
  EXPECT_EQ(error_of(s.call("{}")), "missing 'cmd'");
  EXPECT_FALSE(s.protocol.shutdown_requested());
}

TEST(ProtocolServe, ShutdownWithoutDrain) {
  Session s;
  bool close_after = false;
  const WireMessage resp = Session::parse(
      s.raw(R"({"cmd":"shutdown","drain":false})", close_after));
  ASSERT_TRUE(ok(resp));
  EXPECT_EQ(*resp.get_string("state"), "shutting-down");
  EXPECT_EQ(resp.get_bool("drain"), false);
  EXPECT_TRUE(close_after);
  EXPECT_TRUE(s.protocol.shutdown_requested());
  EXPECT_FALSE(s.protocol.drain());

  Session d;
  EXPECT_EQ(d.call(R"({"cmd":"shutdown"})").get_bool("drain"), true);
  EXPECT_TRUE(d.protocol.drain());
}

TEST(ProtocolServe, UnknownCmdListsRegisteredVerbs) {
  Session s;
  EXPECT_EQ(error_of(s.call(R"({"cmd":"bogus"})")),
            std::string("unknown cmd 'bogus' (") + kServeVerbs + ")");
  Session w(/*worker=*/true);
  EXPECT_EQ(error_of(w.call(R"({"cmd":"bogus"})")),
            std::string("unknown cmd 'bogus' (") + kServeVerbs +
                "|ping|cache_probe|cache_put|cache_del|ishard|istep|icollect|"
                "imigrate|iadvance|ifinish|iabort)");
}

TEST(ProtocolServe, DuplicateVerbIsRejected) {
  Session s;
  EXPECT_THROW(s.protocol.add_verb(
                   "stats", [](const WireMessage&, bool&) { return ""; }),
               std::invalid_argument);
}

TEST(ProtocolWorker, Ping) {
  Session w(/*worker=*/true);
  const WireMessage pong = w.call(R"({"cmd":"ping"})");
  ASSERT_TRUE(ok(pong));
  EXPECT_EQ(*pong.get_string("role"), "worker");
}

TEST(ProtocolWorker, CachePutProbeDelRoundTrip) {
  Session w(/*worker=*/true);
  const serve::Fingerprint fp{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  serve::CachedPlan plan;
  plan.plan = {0, 2, 1};
  plan.valid = true;
  plan.plan_cost = 3.0;
  plan.goal_fitness = 1.0;
  plan.phases_run = 2;
  plan.generations_total = 40;

  EXPECT_FALSE(w.call(dist::render_cache_probe(fp)).get_bool("hit").value());
  ASSERT_TRUE(ok(w.call(dist::render_cache_put(fp, plan))));
  const WireMessage hit = w.call(dist::render_cache_probe(fp));
  ASSERT_TRUE(hit.get_bool("hit").value_or(false));
  serve::CachedPlan back;
  std::string err;
  ASSERT_TRUE(dist::parse_cached_plan(hit, back, err)) << err;
  EXPECT_EQ(back.plan, plan.plan);
  EXPECT_EQ(back.plan_cost, plan.plan_cost);
  EXPECT_EQ(back.generations_total, plan.generations_total);

  EXPECT_EQ(w.call(dist::render_cache_del(fp)).get_bool("removed"), true);
  EXPECT_FALSE(w.call(dist::render_cache_probe(fp)).get_bool("hit").value());
  EXPECT_EQ(error_of(w.call(R"({"cmd":"cache_probe","fp":"zz"})")),
            "cache_probe needs a valid 'fp'");
}

TEST(ProtocolWorker, ShardRunMatchesRunIslands) {
  Session w(/*worker=*/true);
  serve::PlanRequest req;
  std::string err;
  req.problem = *serve::ProblemSpec::parse("hanoi:4", err);
  req.config.population_size = 40;
  req.config.generations = 20;
  req.config.phases = 1;
  req.config.stop_on_valid = false;  // parity demands every generation
  req.seed = 17;
  ga::IslandConfig icfg;
  icfg.islands = 3;
  icfg.migration_interval = 5;
  icfg.migrants = 2;

  WireMessage ishard;
  ASSERT_TRUE(serve::parse_wire_message(serve::render_submit_line(req), ishard,
                                        err));
  ishard.strings["cmd"] = "ishard";
  ishard.strings["shard"] = "s1";
  ishard.numbers["islands"] = static_cast<double>(icfg.islands);
  ishard.numbers["interval"] = static_cast<double>(icfg.migration_interval);
  ishard.numbers["migrants"] = static_cast<double>(icfg.migrants);
  ishard.numbers["begin"] = 0;
  ishard.numbers["end"] = static_cast<double>(icfg.islands);
  ASSERT_TRUE(ok(w.call(serve::render_wire_message(ishard))));
  EXPECT_EQ(error_of(w.call(serve::render_wire_message(ishard))),
            "shard token already in use");

  const std::string token = R"(,"shard":"s1")";
  for (;;) {
    const WireMessage step = w.call(R"({"cmd":"istep")" + token + "}");
    ASSERT_TRUE(ok(step));
    if (!step.get_bool("boundary").value()) break;
    // Ring migration, all collects before all injects (as run_islands).
    std::vector<std::string> frames;
    for (std::size_t i = 0; i < icfg.islands; ++i) {
      const WireMessage c = w.call(R"({"cmd":"icollect")" + token +
                                   R"(,"island":)" + std::to_string(i) + "}");
      ASSERT_TRUE(ok(c));
      frames.push_back(*c.get_string("frame"));
    }
    for (std::size_t i = 0; i < icfg.islands; ++i) {
      serve::JsonWriter m;
      m.field("cmd", "imigrate")
          .field("shard", "s1")
          .field("island", static_cast<std::uint64_t>((i + 1) % icfg.islands))
          .field("frame", std::string_view(frames[i]));
      ASSERT_TRUE(ok(w.call(m.finish())));
    }
    ASSERT_TRUE(ok(w.call(R"({"cmd":"iadvance")" + token + "}")));
  }
  const WireMessage out = w.call(R"({"cmd":"ifinish")" + token + "}");
  ASSERT_TRUE(ok(out));
  EXPECT_EQ(error_of(w.call(R"({"cmd":"istep")" + token + "}")),
            "unknown shard token");  // ifinish erased it

  const domains::Hanoi hanoi(req.problem.disks, req.problem.initial_stake,
                             req.problem.goal_stake);
  util::Rng rng(req.seed);
  const auto single = ga::run_islands(
      hanoi, serve::tuned_config(req.problem, req.config), icfg, rng);
  EXPECT_EQ(out.get_bool("found_valid"), single.found_valid);
  EXPECT_EQ(out.get_number("generations_run"),
            static_cast<double>(single.generations_run));
  EXPECT_EQ(out.get_number("migrations"),
            static_cast<double>(single.migrations));
  EXPECT_EQ(out.get_number("best_island"),
            static_cast<double>(single.best_island));
  EXPECT_EQ(out.get_number("best_fitness"), single.best.eval.fitness);
  EXPECT_EQ(out.get_number("best_goal_fit"), single.best.eval.goal_fit);
  EXPECT_EQ(out.get_number("best_plan_cost"), single.best.eval.plan_cost);
  const std::vector<double> want(single.best.eval.ops.begin(),
                                 single.best.eval.ops.end());
  ASSERT_NE(out.get_array("plan"), nullptr);
  EXPECT_EQ(*out.get_array("plan"), want);
}

TEST(ProtocolWorker, ShardVerbsNeedAToken) {
  Session w(/*worker=*/true);
  for (const std::string cmd :
       {"istep", "icollect", "imigrate", "iadvance", "ifinish", "iabort"}) {
    EXPECT_EQ(error_of(w.call(R"({"cmd":")" + cmd + R"("})")),
              cmd + " needs a 'shard' token");
  }
  EXPECT_EQ(w.call(R"({"cmd":"iabort","shard":"none"})").get_bool("erased"),
            false);
}

/// For every serve verb, a worker's answer carries at least the fields of
/// gaplan_serve's answer: a worker is a superset of a serve session.
TEST(ProtocolWorker, AnswersEveryServeVerbWithServeFields) {
  Session serve_side;
  Session worker_side(/*worker=*/true);
  const std::vector<std::string> lines = {
      kSubmit,
      R"({"cmd":"wait","id":1,"timeout_ms":60000})",
      R"({"cmd":"poll","id":1})",
      R"({"cmd":"trace","id":1})",
      R"({"cmd":"cancel","id":1})",
      R"({"cmd":"stats"})",
      R"({"cmd":"metrics","format":"prometheus"})",
      R"({"cmd":"shutdown","drain":true})",
  };
  for (const std::string& line : lines) {
    const std::set<std::string> want = keys(serve_side.call(line));
    const std::set<std::string> got = keys(worker_side.call(line));
    for (const std::string& k : want) {
      EXPECT_TRUE(got.count(k)) << "worker answer to " << line << " lacks "
                                << k;
    }
  }
  bool close_after = false;
  const std::string json_prefix = R"({"ok":true,"format":"json","metrics":{)";
  EXPECT_EQ(worker_side.raw(R"({"cmd":"metrics"})", close_after)
                .rfind(json_prefix, 0),
            0u);
}

#ifdef GAPLAN_TCP

std::size_t proc_status_field(const std::string& name) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + ":", 0) == 0) {
      return std::stoull(line.substr(name.size() + 1));
    }
  }
  return 0;
}

/// Polls `pred` for up to ten seconds.
template <typename Pred>
bool eventually(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

serve::TcpLineServer echo_server() {
  return serve::TcpLineServer([](const std::string& line, bool& close_after) {
    close_after = line == "bye";
    return "echo " + line;
  });
}

TEST(LineServer, AnswersEachLineAndHonoursCloseAfter) {
  serve::TcpLineServer server = echo_server();
  ASSERT_TRUE(server.start(0));
  dist::Conn c;
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
  std::string resp;
  ASSERT_TRUE(c.send_line("a\n\nb"));  // two frames, the blank one skipped
  ASSERT_TRUE(c.recv_line(resp));
  EXPECT_EQ(resp, "echo a");
  ASSERT_TRUE(c.recv_line(resp));
  EXPECT_EQ(resp, "echo b");
  ASSERT_TRUE(c.roundtrip("bye", resp));
  EXPECT_EQ(resp, "echo bye");
  EXPECT_FALSE(c.recv_line(resp));  // the server closed the connection
  server.stop();
  EXPECT_EQ(server.connections(), 0u);
}

/// A client that pipelines frames and resets without reading: the server's
/// writes hit a dead socket, which must end the connection, not the process
/// (SIGPIPE).
TEST(LineServer, ClientResetMidResponseDoesNotKillTheProcess) {
  serve::TcpLineServer server = echo_server();
  ASSERT_TRUE(server.start(0));
  for (int round = 0; round < 20; ++round) {
    dist::Conn c;
    ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
    std::string burst;
    for (int i = 0; i < 50; ++i) burst += std::string(2000, 'x') + "\n";
    ASSERT_TRUE(c.send_line(burst));
    c.close();
  }
  EXPECT_TRUE(eventually([&] { return server.connections() == 0; }));
  dist::Conn c;
  std::string resp;
  ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
  ASSERT_TRUE(c.roundtrip("alive", resp));
  EXPECT_EQ(resp, "echo alive");
}

/// glibc gives a thread that starts allocating while no arena is free a new
/// malloc arena, reserving 64 MB of address space, until there are 8 per
/// core. Short connections overlap, so their threads create arenas one at
/// a time. Creating them all up front, with that many threads alive at
/// once, leaves the VmSize check below to what the server itself holds on
/// to.
void saturate_malloc_arenas() {
  const std::size_t n =
      8 * std::max(1u, std::thread::hardware_concurrency()) + 16;
  std::latch all_allocated(static_cast<std::ptrdiff_t>(n));
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&all_allocated] {
      const std::vector<char> block(1024);
      all_allocated.arrive_and_wait();
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Connection threads are joined as they finish: 10,000 short connections
/// leave neither thread stacks (VmSize) nor live threads behind.
TEST(LineServer, JoinsConnectionThreadsAsTheyExit) {
  saturate_malloc_arenas();
  serve::TcpLineServer server = echo_server();
  ASSERT_TRUE(server.start(0));
  const auto churn = [&](int n) {
    for (int i = 0; i < n; ++i) {
      dist::Conn c;
      std::string resp;
      ASSERT_TRUE(c.connect("127.0.0.1", server.port()));
      ASSERT_TRUE(c.roundtrip("ping", resp));
    }
  };
  churn(100);  // warm up the allocator and the thread-stack cache
  ASSERT_TRUE(eventually([&] { return server.connections() == 0; }));
  const std::size_t vm_before_kb = proc_status_field("VmSize");
  const std::size_t threads_before = proc_status_field("Threads");

  churn(10000);
  ASSERT_TRUE(eventually([&] { return server.connections() == 0; }));
  EXPECT_TRUE(eventually(
      [&] { return proc_status_field("Threads") <= threads_before; }))
      << "connection threads still alive: "
      << proc_status_field("Threads") - threads_before;
  const std::size_t vm_after_kb = proc_status_field("VmSize");
  EXPECT_LT(vm_after_kb, vm_before_kb + 64 * 1024)
      << "VmSize grew from " << vm_before_kb << " kB to " << vm_after_kb
      << " kB";
  server.stop();
}

#endif  // GAPLAN_TCP

}  // namespace

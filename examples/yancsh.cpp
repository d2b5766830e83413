// yancsh — a tiny shell over the yanc file system (§5.4).
//
// Boots a two-switch demo network, then executes commands either from the
// command line (joined by ';') or from a built-in demo script:
//
//   ./build/examples/yancsh                                  # demo script
//   ./build/examples/yancsh 'ls -l /net/switches; tree /net/switches/sw1'
//
// Supported commands:
//   ls [-l] PATH        cat PATH          echo VALUE > PATH
//   tree PATH           find ROOT GLOB    grep PATTERN ROOT
//   mkdir PATH          rm PATH           cp FROM TO      mv FROM TO
//   trace ID|FILTER     (span trees from /yanc/.trace/by-id)
//   sync                (drive the controller/switches to quiescence)
//
// `./build/examples/yancsh cluster` runs the active-cluster demo instead:
// three controller nodes share the switches per-dpid through replicated
// lease files, the demo kills the owner of shard 1 and shows the lease,
// the epoch bump and the switch re-homing — all read back through the
// file system (docs/ROBUSTNESS.md "Cluster failover").
#include <cstdio>

#include "yanc/cluster/harness.hpp"
#include "yanc/driver/of_driver.hpp"
#include "yanc/faults/injector.hpp"
#include "yanc/netfs/yancfs.hpp"
#include "yanc/shell/coreutils.hpp"
#include "yanc/sw/switch.hpp"
#include "yanc/util/strings.hpp"
#include "yanc/vfs/synth_fs.hpp"

using namespace yanc;

namespace {

constexpr const char* kDemoScript =
    "ls -l /net/switches;"
    "cat /net/switches/sw1/id;"
    "mkdir /net/switches/sw1/flows/ssh;"
    "echo 0x0800 > /net/switches/sw1/flows/ssh/match.dl_type;"
    "echo 22 > /net/switches/sw1/flows/ssh/match.tp_dst;"
    "echo 2 > /net/switches/sw1/flows/ssh/action.out;"
    "echo 1 > /net/switches/sw1/flows/ssh/version;"
    "sync;"
    "tree /net/switches/sw1/flows;"
    "find /net match.tp_dst;"
    "grep 22 /net/switches;"
    "cp /net/switches/sw1/flows/ssh /net/switches/sw2/flows/ssh;"
    "echo 1 > /net/switches/sw2/flows/ssh/version;"
    "sync;"
    "ls /net/switches/sw2/flows;"
    // The controller's own telemetry is a filesystem too (/yanc/.stats):
    "cat /yanc/.stats/driver/of/packet_in_total;"
    "cat /yanc/.stats/driver/of/flow_mod_total;"
    "ls /yanc/.stats/vfs;"
    // Fault injection is a filesystem too (/yanc/.faults): make the
    // switch links lossy, commit a flow through the drops, and watch the
    // driver retry/audit machinery repair the damage — then heal.
    "cat /yanc/.faults/seed;"
    "echo drop=0.4 > /yanc/.faults/channel/policy;"
    "cat /yanc/.faults/channel/policy;"
    "mkdir /net/switches/sw1/flows/web;"
    "echo 0x0800 > /net/switches/sw1/flows/web/match.dl_type;"
    "echo 80 > /net/switches/sw1/flows/web/match.tp_dst;"
    "echo 2 > /net/switches/sw1/flows/web/action.out;"
    "echo 1 > /net/switches/sw1/flows/web/version;"
    "sync;"
    "sync;"
    "echo off > /yanc/.faults/channel/policy;"
    "sync;"
    "cat /yanc/.stats/faults/drop_total;"
    "cat /yanc/.stats/driver/of/retry_total;"
    "cat /yanc/.stats/driver/of/audit_total;"
    // Causal tracing is a filesystem too (/yanc/.trace): arm capture,
    // commit a flow, then reconstruct its span tree straight from a file.
    "echo start > /yanc/.trace/ctl;"
    "mkdir /net/switches/sw1/flows/dns;"
    "echo 0x0800 > /net/switches/sw1/flows/dns/match.dl_type;"
    "echo 53 > /net/switches/sw1/flows/dns/match.tp_dst;"
    "echo 2 > /net/switches/sw1/flows/dns/action.out;"
    "echo 1 > /net/switches/sw1/flows/dns/version;"
    "sync;"
    "echo stop > /yanc/.trace/ctl;"
    "cat /yanc/.trace/status;"
    "trace /net/switches/sw1/flows/dns";

struct World {
  std::shared_ptr<vfs::Vfs> vfs = std::make_shared<vfs::Vfs>();
  net::Scheduler scheduler;
  net::Network network{scheduler};
  std::shared_ptr<faults::Injector> injector =
      std::make_shared<faults::Injector>(1);
  std::unique_ptr<driver::OfDriver> driver;
  std::vector<std::unique_ptr<sw::Switch>> switches;
  std::shared_ptr<vfs::SynthFs> stats;

  World() {
    (void)netfs::mount_yanc_fs(*vfs);
    // Shrink the recovery timers so the fault-injection demo converges
    // within a couple of sync calls (defaults are sized for real tests).
    driver::DriverOptions opts;
    opts.keepalive_interval = 8;
    opts.keepalive_timeout = 64;
    opts.request_timeout = 4;
    opts.audit_interval = 16;
    driver = std::make_unique<driver::OfDriver>(vfs, opts);
    driver->listener().set_fault_hook_factory(
        faults::channel_hook_factory(injector));
    (void)faults::mount_faults_fs(*vfs, injector);
    if (auto fs = vfs::mount_stats_fs(*vfs)) stats = *fs;
    (void)vfs::mount_trace_fs(*vfs);
    for (std::uint64_t dpid : {1, 2}) {
      sw::SwitchOptions opts;
      opts.datapath_id = dpid;
      auto s = std::make_unique<sw::Switch>("dp" + std::to_string(dpid),
                                            opts, network);
      for (std::uint16_t p = 1; p <= 3; ++p)
        s->add_port(p, MacAddress::from_u64((dpid << 8) | p), "eth");
      s->bind_metrics(*vfs->metrics());
      s->connect(driver->listener().connect());
      switches.push_back(std::move(s));
    }
    sync();
  }

  void sync() {
    // Keep ticking a while after the network goes idle: the driver's
    // recovery timers (request retries, table audits, keepalives) run on
    // poll ticks, and a dropped message leaves no visible work behind.
    for (int round = 0; round < 60; ++round) {
      std::size_t work = driver->poll() + scheduler.run_until_idle();
      for (auto& s : switches) work += s->pump();
      if (!work && round >= 32) break;
    }
    if (stats) stats->refresh();
  }
};

void fail(const std::string& cmd, const std::error_code& ec) {
  std::printf("yancsh: %s: %s\n", cmd.c_str(), ec.message().c_str());
}

int run_command(World& world, const std::string& line) {
  auto args = split_nonempty(trim(line), ' ');
  if (args.empty()) return 0;
  auto& vfs = *world.vfs;
  const std::string& cmd = args[0];

  if (cmd == "sync") {
    world.sync();
    return 0;
  }
  if (cmd == "ls") {
    bool long_format = args.size() > 1 && args[1] == "-l";
    std::string path = args.back();
    auto out = shell::ls(vfs, path, long_format);
    if (!out) return fail(cmd, out.error()), 1;
    std::fputs(out->c_str(), stdout);
    return 0;
  }
  if (cmd == "cat" && args.size() == 2) {
    auto out = shell::cat(vfs, args[1]);
    if (!out) return fail(cmd, out.error()), 1;
    std::printf("%s\n", std::string(trim(*out)).c_str());
    return 0;
  }
  if (cmd == "echo" && args.size() == 4 && args[2] == ">") {
    if (auto ec = shell::echo_to(vfs, args[3], args[1]))
      return fail(cmd, ec), 1;
    return 0;
  }
  if (cmd == "tree" && args.size() == 2) {
    auto out = shell::tree(vfs, args[1]);
    if (!out) return fail(cmd, out.error()), 1;
    std::fputs(out->c_str(), stdout);
    return 0;
  }
  if (cmd == "find" && args.size() == 3) {
    auto hits = shell::find_name(vfs, args[1], args[2]);
    if (!hits) return fail(cmd, hits.error()), 1;
    for (const auto& hit : *hits) std::printf("%s\n", hit.c_str());
    return 0;
  }
  if (cmd == "grep" && args.size() == 3) {
    auto hits = shell::grep_recursive(vfs, args[2], args[1]);
    if (!hits) return fail(cmd, hits.error()), 1;
    for (const auto& hit : *hits)
      std::printf("%s: %s\n", hit.path.c_str(), hit.line.c_str());
    return 0;
  }
  if (cmd == "mkdir" && args.size() == 2) {
    if (auto ec = vfs.mkdir(args[1])) return fail(cmd, ec), 1;
    return 0;
  }
  if (cmd == "rm" && args.size() == 2) {
    if (auto ec = vfs.remove_all(args[1])) return fail(cmd, ec), 1;
    return 0;
  }
  if (cmd == "cp" && args.size() == 3) {
    if (auto ec = shell::cp(vfs, args[1], args[2])) return fail(cmd, ec), 1;
    return 0;
  }
  if (cmd == "mv" && args.size() == 3) {
    if (auto ec = shell::mv(vfs, args[1], args[2])) return fail(cmd, ec), 1;
    return 0;
  }
  if (cmd == "trace" && args.size() == 2) {
    auto out = shell::trace_show(vfs, args[1]);
    if (!out) return fail(cmd, out.error()), 1;
    std::fputs(out->c_str(), stdout);
    return 0;
  }
  std::printf("yancsh: unknown or malformed command: %s\n", line.c_str());
  return 1;
}

// The cluster demo: everything it prints is read back through a node's
// file system — the shard map IS the lease files.
void print_shard_map(cluster::Harness& h) {
  std::printf("  %-6s %-30s %s\n", "shard", "lease", "primary");
  for (std::uint64_t dpid = 1; dpid <= h.options().switches; ++dpid) {
    std::string lease = "(none)";
    for (std::size_t n = 0; n < h.options().nodes; ++n) {
      if (!h.alive(n)) continue;
      if (auto text = h.vfs(n)->read_file(
              "/yanc/.cluster/shards/" + std::to_string(dpid) + "/lease")) {
        lease = std::string(trim(*text));
        break;
      }
    }
    auto owner = h.owner_of(dpid);
    std::printf("  %-6llu %-30s %s\n",
                static_cast<unsigned long long>(dpid), lease.c_str(),
                owner ? ("node " + std::to_string(*owner)).c_str() : "-");
  }
}

int run_cluster_demo() {
  cluster::HarnessOptions options;
  options.nodes = 3;
  options.switches = 4;
  cluster::Harness h(options);
  h.settle();

  std::printf("== 3 nodes, 4 switches: shard map after the first "
              "elections ==\n");
  print_shard_map(h);

  auto victim = h.owner_of(1);
  if (!victim) return std::printf("shard 1 never elected a primary\n"), 1;
  std::printf("== killing node %zu (primary for shard 1) ==\n", *victim);
  h.kill(*victim);
  h.settle(30);

  std::printf("== shard map after failover (note the epoch bump) ==\n");
  print_shard_map(h);

  std::printf("== switch 1 from the fence's chair ==\n");
  std::printf("  master_epoch=%llu max_epoch=%llu fenced_mods=%llu\n",
              static_cast<unsigned long long>(h.switch_at(1).master_epoch()),
              static_cast<unsigned long long>(h.switch_at(1).max_epoch()),
              static_cast<unsigned long long>(h.switch_at(1).fenced_mods()));

  std::printf("== failover telemetry (/yanc/.stats/cluster) ==\n");
  for (std::size_t n = 0; n < options.nodes; ++n) {
    if (!h.alive(n)) continue;
    auto reg = h.vfs(n)->metrics();
    std::printf("  node %zu: elections=%llu takeovers=%llu renews=%llu\n", n,
                static_cast<unsigned long long>(
                    reg->counter("cluster/election_total")->value()),
                static_cast<unsigned long long>(
                    reg->counter("cluster/takeover_total")->value()),
                static_cast<unsigned long long>(
                    reg->counter("cluster/lease_renew_total")->value()));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "cluster") return run_cluster_demo();
  World world;
  std::string script = argc > 1 ? argv[1] : kDemoScript;
  int failures = 0;
  for (const auto& line : split_nonempty(script, ';')) {
    std::printf("$ %s\n", std::string(trim(line)).c_str());
    failures += run_command(world, line);
  }
  // Show the effect on the data plane: how many hardware flows landed.
  world.sync();
  for (const auto& s : world.switches)
    std::printf("[%s holds %zu hardware flow entries]\n", s->name().c_str(),
                s->table().size());
  return failures == 0 ? 0 : 1;
}

// wlansim_daemon — persistent simulation service.
//
//   wlansim_daemon --socket /tmp/wlansim.sock [--store DIR]
//                  [--checkpoint-dir DIR] [--threads N]
//                  [--checkpoint-every N] [--paused]
//                  [--workers N] [--attach SOCK[,SOCK...]] [--worker]
//
// Listens on a Unix-domain stream socket for newline-delimited JSON
// requests (src/service/protocol.h), schedules sweep/eval/drop jobs on the
// shared engine, coalesces concurrent requests into pooled deduplicated
// passes, and serves warm keys from the content-addressed calibration
// store. SIGINT/SIGTERM (or an {"op":"shutdown"} request) wind the daemon
// down gracefully: in-flight cold passes are preempted at the next wave
// boundary with their progress checkpointed, so a restarted daemon resumes
// instead of recomputing.
//
// Sharding (service/shard.h): --workers N spawns N local worker daemons
// and fans every multi-key cold pass out across them; --attach joins
// already-running worker daemons by socket. --worker runs THIS daemon as a
// worker: it serves the full protocol (shard jobs included — every daemon
// does) but never spawns workers of its own, so a coordinator can never
// recurse.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <exception>
#include <string>

#include "cli_link.h"
#include "core/cliargs.h"
#include "service/server.h"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

int run(int argc, char** argv) {
  using namespace wlansim;
  const core::CliArgs args = core::CliArgs::parse(argc, argv, 1);
  service::Server::Options opts;
  opts.socket_path = args.get_string("socket", "/tmp/wlansim.sock");
  opts.scheduler.store_dir = args.get_string("store", "");
  opts.scheduler.checkpoint_dir = args.get_string("checkpoint-dir", "");
  opts.scheduler.threads = args.get_count("threads", 0, 0);
  opts.scheduler.checkpoint_every_waves =
      args.get_count("checkpoint-every", 1, 0);
  opts.scheduler.start_paused = args.has("paused");
  const bool worker_mode = args.has("worker");
  if (!worker_mode) {
    opts.scheduler.workers = args.get_count("workers", 0, 0);
    const std::string attach = args.get_string("attach", "");
    std::size_t start = 0;
    while (start < attach.size()) {
      std::size_t comma = attach.find(',', start);
      if (comma == std::string::npos) comma = attach.size();
      if (comma > start)
        opts.scheduler.worker_sockets.emplace_back(
            attach.substr(start, comma - start));
      start = comma + 1;
    }
  }
  tools::fail_on_unused(args);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  service::Server server(std::move(opts));
  std::printf("wlansim-daemon%s listening on %s\n",
              worker_mode ? " (worker)" : "",
              server.socket_path().string().c_str());
  std::printf("store: %s\n",
              server.scheduler().store_dir().string().c_str());
  if (const service::ShardCoordinator* c = server.scheduler().coordinator())
    std::printf("workers: %zu\n", c->num_workers());
  std::fflush(stdout);
  server.run(&g_stop);
  std::printf("wlansim-daemon stopped\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wlansim-daemon: %s\n", e.what());
    return 1;
  }
}

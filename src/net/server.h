// Network front end for `wmatch_cli serve` (tentpole of ISSUE 8).
//
// A minimal TCP listener speaking the existing JSONL job protocol over
// plain POSIX sockets: one poll()-based readiness loop owns the listening
// socket, a self-pipe wake channel, and every client connection; a
// dedicated scheduler thread drains the shared bounded JobQueue through
// Scheduler::run_stream; pool workers stream each CostReport back to the
// originating connection the moment its job finishes (Submission::tag
// carries the connection id through the queue). Nothing here sleeps or
// reads a wall clock — waiting is poll() readiness, time is
// obs::monotonic_ns(), so the solver determinism contract is untouched:
// per-job CostReports are bit-identical to `wmatch_cli batch --threads=1`
// on the same jobs.
//
// Wire protocol (documented in docs/SERVING.md): newline-delimited JSON,
// one request per line. A job object gets one JobResult object back
// (tagged with the client-supplied "id"); the control line "metrics" gets
// one obs registry snapshot; the control line "stats" gets one windowed
// delta snapshot (per-interval rates plus sliding-window p50/p95/p99,
// ISSUE 10); a malformed line gets {"error":"<source>:<line>: ...",
// "line":N}, and an unterminated line longer than kMaxLineBytes ends the
// session with {"error":"line too long","line":N}. Responses stream back
// in completion order, not request order — clients match on "id". A job
// may carry a client trace context ("trace":{"id":N,"sent_ns":N}); the
// server then emits "req" flow steps tying the client's spans to
// net.admit / service.job / service.solve / net.request for that request.
//
// Overload behavior, two layers:
//   * connection admission — more than `max_conns` concurrent clients:
//     the extra connection is answered with one {"error":"overloaded"}
//     object and closed immediately.
//   * job admission — the bounded queue is full (JobQueue::try_push ==
//     kFull): that job is rejected with {"error":"overloaded","id":...,
//     "line":N} while the connection stays open. The poll loop itself
//     never blocks on the queue, so one slow consumer cannot stall other
//     connections' reads. (The blocking-producer backpressure path,
//     JobQueue::push, remains the `batch` pipeline's contract.)
//
// Shutdown: request_drain() is async-signal-safe (one ::write to the
// self-pipe) — the CLI's SIGINT/SIGTERM handlers call it. Draining stops
// accepting, stops reading, lets in-flight jobs finish, flushes every
// per-connection result, then run() returns so the CLI can emit the final
// metrics snapshot. EOF on stdio (serve --stdin) funnels into the same
// drain path, which is precisely the ISSUE-8 bugfix: EOF mid-job used to
// exit without the final snapshot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "service/scheduler.h"

namespace wmatch::net {

/// Most bytes a connection may hold after its last newline. A job line
/// carries a generator spec or a file path, so real lines are far
/// shorter; past the limit the server answers
/// {"error":"line too long","line":N}, drops the bytes and closes the
/// connection once its admitted jobs are answered.
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

struct ServerConfig {
  /// TCP port to listen on (127.0.0.1): -1 = no listener, 0 = pick an
  /// ephemeral port (tests), 1..65535 = fixed port.
  int listen_port = -1;
  /// Treat fd 0 (read) / fd 1 (write) as one pre-accepted connection —
  /// `serve --stdin` is this flag and nothing else; the stdio session
  /// runs through the exact same connection handler as a socket.
  bool stdio = false;
  /// Concurrent connection ceiling; connection max_conns+1 is rejected
  /// with {"error":"overloaded"} and closed.
  std::size_t max_conns = 64;
  /// Bounded JobQueue capacity — the job-admission window.
  std::size_t queue_capacity = 256;
  /// Close a socket connection after this many seconds with no bytes
  /// read and no jobs in flight (0 = never). Counted as net.idle_closes;
  /// stdio sessions are exempt (EOF is their lifecycle).
  int idle_timeout_s = 0;
  /// When non-empty, append one windowed stats JSON object per second to
  /// this file (JSONL) and rewrite a Prometheus-style text exposition as
  /// `metrics.prom` next to it. A final flush happens at drain.
  std::string metrics_out;
  service::SchedulerConfig scheduler;
};

/// What a serve session did, for the CLI's exit log line. The cache and
/// throughput numbers live in `batch` (results themselves are streamed,
/// not collected — a long-lived server must not grow per request).
struct ServeSummary {
  service::BatchResult batch;
  std::uint64_t connections = 0;      ///< accepted (incl. stdio)
  std::uint64_t requests = 0;         ///< job lines admitted to the queue
  std::uint64_t rejected = 0;         ///< overload rejections (conn + job)
  std::uint64_t parse_errors = 0;     ///< malformed lines answered
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listener (when listen_port >= 0) and creates the wake
  /// pipe. Throws std::runtime_error on bind/listen failure — the CLI
  /// maps that onto its usage-error contract before any job runs.
  void start();

  /// The port the listener actually bound (resolves listen_port 0);
  /// -1 when no listener was configured.
  int port() const { return port_; }

  /// Runs the poll loop on the calling thread until drained: either
  /// request_drain() was called, or no listener is configured and every
  /// connection (i.e. stdio) reached EOF with all its jobs flushed.
  /// Per-job progress lines and lifecycle messages go to `log` (the
  /// CLI passes std::cerr — library code never writes stdout).
  ServeSummary run(std::ostream& log);

  /// Async-signal-safe drain trigger: writes one byte to the self-pipe.
  /// Safe to call from a SIGINT/SIGTERM handler or any thread, before or
  /// during run(); calling it more than once is harmless.
  void request_drain();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  int port_ = -1;
};

}  // namespace wmatch::net

//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `rustsight serve`: a resident analysis daemon speaking JSON-RPC 2.0 with
/// LSP Content-Length framing over stdio. The Server is IO-agnostic — it
/// consumes raw message payloads and queues outbound payloads — so the
/// tests drive whole editor sessions in-process while serveStdio() owns the
/// real event loop (poll on stdin, debounce, idle timeout).
///
/// Protocol surface (docs/SERVING.md):
///   initialize / initialized / shutdown / exit      lifecycle
///   textDocument/didOpen|didChange|didClose         overlay sync (full text)
///   textDocument/publishDiagnostics                 <- server push
///   textDocument/codeAction                         fix-its as quickfixes
///   $/cancelRequest                                 cancels deferred work
///
/// Scheduling: didChange traffic only marks files dirty; the debounced
/// flush coalesces bursts into one incremental re-analysis (the dirty
/// files, plus the files whose link digest moved when an edit touches a
/// cross-file edge, Session::refresh) that runs under the engine's
/// cooperative rs::Budget options. The initial sweep is the engine's
/// corpus driver, run with parallelFor. Requests that need fresh state
/// (codeAction) defer until the flush; $/cancelRequest aborts them while
/// queued with the LSP RequestCancelled error.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_SERVE_SERVER_H
#define RUSTSIGHT_SERVE_SERVER_H

#include "serve/Protocol.h"
#include "serve/Session.h"

#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace rs::serve {

struct ServerOptions {
  SessionOptions Session;
  /// Quiet time after the last inbound message before the coalesced
  /// re-analysis flush runs.
  uint64_t DebounceMs = 150;
  /// With no inbound traffic at all for this long the daemon exits
  /// cleanly (0 = stay resident forever).
  uint64_t IdleTimeoutMs = 0;
};

class Server {
public:
  explicit Server(ServerOptions O);

  /// Handles one inbound JSON-RPC payload: responds immediately to
  /// lifecycle and stateless requests, updates overlays and the dirty set
  /// for document notifications, and defers analysis-dependent requests to
  /// the next flush.
  void handleMessage(std::string_view Payload);

  /// Converts a transport framing error into a JSON-RPC error response
  /// (id null) so a confused client sees why its frame was dropped.
  void handleFramingError(const std::string &Reason);

  /// The debounced work point: runs the incremental re-analysis if
  /// anything is dirty, publishes diagnostics for every affected file, and
  /// answers deferred requests. Returns true when it did anything.
  bool flushPending();

  /// True when a flush would do work (dirty files or deferred requests).
  bool hasPendingWork() const;

  /// Outbound payloads (responses and notifications) queued since the last
  /// take; the transport wraps each in a Content-Length frame.
  std::vector<std::string> takeOutgoing();

  bool initialized() const { return Initialized; }
  bool shutdownRequested() const { return ShutdownSeen; }
  bool exitRequested() const { return ExitSeen; }

  /// LSP exit contract: 0 when exit followed shutdown, 1 otherwise.
  int exitCode() const { return ShutdownSeen ? 0 : 1; }

  Session &session() { return Sess; }

private:
  struct Deferred {
    RpcId Id;
    std::string Method;
    JsonValue Params;
  };

  void dispatch(const RpcMessage &M);
  void handleInitialize(const RpcMessage &M);
  void handleDidOpen(const JsonValue &Params);
  void handleDidChange(const JsonValue &Params);
  void handleDidClose(const JsonValue &Params);
  void handleCodeAction(const RpcId &Id, const JsonValue &Params);
  void handleCancel(const JsonValue &Params);

  /// Queues textDocument/publishDiagnostics for \p Path from its current
  /// session report.
  void publishDiagnostics(const std::string &Path);

  /// Queues a window/logMessage error notification (malformed notification
  /// params have no response channel; this is the LSP-conform substitute).
  void logError(const std::string &Message);

  void send(std::string Payload) { Outgoing.push_back(std::move(Payload)); }

  ServerOptions Opts;
  Session Sess;
  std::vector<std::string> Outgoing;
  std::deque<Deferred> DeferredRequests;
  bool Initialized = false;
  bool ShutdownSeen = false;
  bool ExitSeen = false;
};

/// Runs the full daemon over stdin/stdout with ServerOptions::DebounceMs
/// coalescing and ServerOptions::IdleTimeoutMs lifetime. Returns the
/// process exit code (0 clean shutdown or idle timeout, 1 abnormal exit).
int serveStdio(const ServerOptions &Opts);

} // namespace rs::serve

#endif // RUSTSIGHT_SERVE_SERVER_H

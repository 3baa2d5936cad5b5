#pragma once

#include <memory>
#include <string>

#include "api/api.hpp"

/// \file client.hpp
/// \brief api::Service over a unix socket: the client side of mighty-serve.
///
/// RemoteService fulfills the same contract as api::LocalService, so a
/// front end (the shell, a batch driver) switches between "optimize here"
/// and "optimize on the warm daemon" by swapping one pointer.  Calls are
/// synchronous request/reply roundtrips serialized on one connection;
/// result() blocks server-side until the job is terminal and hands the
/// result over, exactly like the local call.  An ERROR reply is rethrown as api::Error with the code the
/// server sent; a vanished server surfaces as connection_lost.

namespace mighty::serve {

class RemoteService final : public api::Service {
 public:
  /// Connects to a daemon at `socket_path` and performs the HELLO version
  /// handshake.  Throws api::Error(io_error) when the socket cannot be
  /// reached and api::Error(version_mismatch) when the daemon speaks a
  /// different protocol version.
  explicit RemoteService(const std::string& socket_path);
  ~RemoteService() override;

  RemoteService(const RemoteService&) = delete;
  RemoteService& operator=(const RemoteService&) = delete;

  api::JobId submit(const api::JobRequest& request) override;
  api::JobStatus status(api::JobId id) override;
  api::JobResult result(api::JobId id) override;
  bool cancel(api::JobId id) override;
  api::ServiceStats stats() override;
  /// Asks the daemon to shut down (it persists its cache and exits); this
  /// client's connection is finished afterwards.
  void shutdown() override;

  /// The daemon owns its cache lifecycle; these throw api::Error(unsupported).
  api::CacheInfo cache_load(const std::string& path) override;
  size_t cache_save(const std::string& path) override;
  api::CacheInfo cache_stats() override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mighty::serve

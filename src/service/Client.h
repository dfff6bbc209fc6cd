//===- Client.h - Synthesis service client ----------------------*- C++-*-===//
///
/// \file
/// A thin synchronous client for the frame protocol of both daemons: one
/// connection, one request/response exchange per \c call. The `se2gis` and
/// `se2gis_cached` client modes and the integration tests sit on top of
/// this; everything protocol-shaped (framing, bounds, typed errors) lives
/// in Protocol.h so client and server cannot drift apart.
///
/// The client is deliberately blocking: the service protocol is strictly
/// request/response on a connection, so a synchronous call maps 1:1 onto
/// the wire and keeps error handling linear. Callers that want concurrency
/// open more clients (the daemon handles each connection on its own
/// thread).
///
//===----------------------------------------------------------------------===//

#ifndef SE2GIS_SERVICE_CLIENT_H
#define SE2GIS_SERVICE_CLIENT_H

#include "service/Protocol.h"

#include <memory>
#include <string>

namespace se2gis {

class ServiceClient {
public:
  /// Connects to \p Addr ("unix:<path>" or "tcp:<host>:<port>"). On failure
  /// returns nullptr with a diagnostic in \p Error. A non-negative
  /// \p ConnectTimeoutMs bounds the connect, a non-negative \p IoTimeoutMs
  /// every later read and write (see connectTo / setFdIoTimeout); the
  /// defaults block.
  static std::unique_ptr<ServiceClient> connect(const std::string &Addr,
                                                std::string &Error,
                                                int ConnectTimeoutMs = -1,
                                                int IoTimeoutMs = -1);

  ~ServiceClient();

  ServiceClient(const ServiceClient &) = delete;
  ServiceClient &operator=(const ServiceClient &) = delete;

  /// Sends \p Request and blocks for the response. \returns false on a
  /// transport-level failure (send failed, connection closed, unparsable
  /// response) with a diagnostic in \p Error; protocol-level failures
  /// (`"ok": false`) still return true — inspect the response.
  bool call(const JsonValue &Request, JsonValue &Response, std::string &Error);

  /// Convenience: builds `{"method": <Method>}` and calls.
  bool call(const std::string &Method, JsonValue &Response,
            std::string &Error);

  const ServiceAddr &addr() const { return Addr; }

private:
  ServiceClient(int Fd, ServiceAddr Addr) : Fd(Fd), Addr(std::move(Addr)) {}

  int Fd = -1;
  ServiceAddr Addr;
};

} // namespace se2gis

#endif // SE2GIS_SERVICE_CLIENT_H

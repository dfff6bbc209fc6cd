//===- Client.cpp ---------------------------------------------------------===//

#include "service/Client.h"

using namespace se2gis;

std::unique_ptr<ServiceClient> ServiceClient::connect(const std::string &Addr,
                                                      std::string &Error,
                                                      int ConnectTimeoutMs,
                                                      int IoTimeoutMs) {
  ServiceAddr Parsed;
  if (!parseServiceAddr(Addr, Parsed, Error))
    return nullptr;
  int Fd = connectTo(Parsed, Error, ConnectTimeoutMs);
  if (Fd < 0)
    return nullptr;
  if (IoTimeoutMs >= 0)
    setFdIoTimeout(Fd, IoTimeoutMs);
  return std::unique_ptr<ServiceClient>(
      new ServiceClient(Fd, std::move(Parsed)));
}

ServiceClient::~ServiceClient() { closeFd(Fd); }

bool ServiceClient::call(const JsonValue &Request, JsonValue &Response,
                         std::string &Error) {
  if (Fd < 0) {
    Error = "not connected";
    return false;
  }
  if (!writeFrame(Fd, Request.dump())) {
    Error = "send failed (daemon gone?)";
    return false;
  }
  std::string Payload;
  switch (readFrame(Fd, Payload)) {
  case FrameStatus::Ok:
    break;
  case FrameStatus::Eof:
  case FrameStatus::Truncated:
    Error = "connection closed before a response arrived";
    return false;
  case FrameStatus::Oversized:
    Error = "daemon sent an oversized frame";
    return false;
  case FrameStatus::IoError:
    Error = "read failed";
    return false;
  }
  std::string ParseError;
  if (!JsonValue::parse(Payload, Response, ParseError)) {
    Error = "unparsable response: " + ParseError;
    return false;
  }
  return true;
}

bool ServiceClient::call(const std::string &Method, JsonValue &Response,
                         std::string &Error) {
  JsonValue Req = JsonValue::object();
  Req.set("method", JsonValue::str(Method));
  return call(Req, Response, Error);
}

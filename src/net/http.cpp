// Request/target parsing and the blocking HttpClient.  The server lives in
// http_server.cpp.
#include "net/http.h"

#include <sstream>

#include "common/clock.h"
#include "common/error.h"
#include "common/strings.h"

namespace openei::net {

using common::split;
using common::starts_with;
using common::to_lower;
using common::trim;
using common::uri_decode;

void parse_target(const std::string& target, std::string& path,
                  std::map<std::string, std::string>& query) {
  std::string raw_path = target;
  std::string raw_query;
  if (auto pos = target.find('?'); pos != std::string::npos) {
    raw_path = target.substr(0, pos);
    raw_query = target.substr(pos + 1);
  }
  path = uri_decode(raw_path);
  query.clear();
  if (raw_query.empty()) return;
  for (const std::string& pair : split(raw_query, '&')) {
    if (pair.empty()) continue;
    auto eq = pair.find('=');
    if (eq == std::string::npos) {
      query[uri_decode(pair)] = "";
    } else {
      query[uri_decode(pair.substr(0, eq))] = uri_decode(pair.substr(eq + 1));
    }
  }
}

HttpRequest parse_request(const std::string& head, const std::string& body) {
  auto lines = split(head, '\n');
  OPENEI_CHECK(!lines.empty(), "empty HTTP head");
  // Request line: METHOD SP TARGET SP VERSION
  std::string request_line(trim(lines[0]));
  auto parts = split(request_line, ' ');
  if (parts.size() != 3) throw ParseError("malformed HTTP request line");
  if (!starts_with(parts[2], "HTTP/1.")) {
    throw ParseError("unsupported HTTP version '" + parts[2] + "'");
  }

  HttpRequest request;
  request.method = parts[0];
  request.version = parts[2];
  parse_target(parts[1], request.path, request.query);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::string line(trim(lines[i]));
    if (line.empty()) continue;
    auto colon = line.find(':');
    if (colon == std::string::npos) throw ParseError("malformed HTTP header");
    request.headers[to_lower(trim(line.substr(0, colon)))] =
        std::string(trim(line.substr(colon + 1)));
  }
  request.body = body;
  return request;
}

HttpResponse HttpClient::get(const std::string& target) {
  return request("GET", target, "", "");
}

HttpResponse HttpClient::post(const std::string& target, const std::string& body,
                              const std::string& content_type) {
  return request("POST", target, body, content_type);
}

HttpResponse HttpClient::del(const std::string& target) {
  return request("DELETE", target, "", "");
}

HttpResponse HttpClient::request(const std::string& method,
                                 const std::string& target,
                                 const std::string& body,
                                 const std::string& content_type) {
  common::Stopwatch elapsed;
  TcpConnection connection = connect_local(port_, deadline_s_);
  std::ostringstream out;
  out << method << ' ' << target << " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!body.empty()) {
    out << "Content-Type: " << content_type << "\r\nContent-Length: "
        << body.size() << "\r\n";
  }
  out << "Connection: close\r\n\r\n" << body;
  // The deadline is end-to-end, so the write phase only gets what the
  // connect left over — without this, connect and write each ran against
  // the full budget and a slow peer could stretch one attempt to ~2x the
  // deadline (which is exactly what broke retry sequences' deadline math).
  double write_budget = deadline_s_ - elapsed.elapsed_seconds();
  if (write_budget <= 0.0) {
    throw TimeoutError("HTTP " + method + ' ' + target +
                       " exceeded deadline of " + std::to_string(deadline_s_) +
                       "s during connect");
  }
  connection.set_write_timeout(write_budget);
  connection.write_all(out.str());

  // Read until the peer closes (Connection: close semantics).  The deadline
  // is end-to-end: a peer dribbling one byte per recv cannot stretch the
  // call past it, because the remaining budget shrinks on every read.
  std::string raw;
  char chunk[4096];
  while (true) {
    double remaining = deadline_s_ - elapsed.elapsed_seconds();
    if (remaining <= 0.0) {
      throw TimeoutError("HTTP " + method + ' ' + target +
                         " exceeded deadline of " +
                         std::to_string(deadline_s_) + "s");
    }
    connection.set_read_timeout(remaining);
    std::size_t n = connection.read_some(chunk, sizeof(chunk));
    if (n == 0) break;
    raw.append(chunk, n);
  }
  if (raw.empty()) {
    throw IoError("connection closed before any response byte (" + method +
                  ' ' + target + ")");
  }
  auto header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    throw IoError("truncated HTTP response head (" + method + ' ' + target + ")");
  }
  std::string head = raw.substr(0, header_end);

  HttpResponse response;
  auto lines = split(head, '\n');
  auto status_parts = split(std::string(trim(lines[0])), ' ');
  if (status_parts.size() < 2) throw ParseError("malformed HTTP status line");
  response.status = std::stoi(status_parts[1]);
  std::size_t expected_body = std::string::npos;
  for (const std::string& line : lines) {
    std::string lower = to_lower(trim(line));
    if (starts_with(lower, "content-type:")) {
      response.content_type = std::string(trim(lower.substr(13)));
    } else if (starts_with(lower, "content-length:")) {
      try {
        expected_body = static_cast<std::size_t>(
            std::stoull(std::string(trim(lower.substr(15)))));
      } catch (const std::logic_error&) {
        throw ParseError("bad Content-Length in response");
      }
    }
  }
  response.body = raw.substr(header_end + 4);
  if (expected_body != std::string::npos && response.body.size() < expected_body) {
    throw IoError("truncated HTTP response body: got " +
                  std::to_string(response.body.size()) + " of " +
                  std::to_string(expected_body) + " bytes");
  }
  return response;
}

}  // namespace openei::net

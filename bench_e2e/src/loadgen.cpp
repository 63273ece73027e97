#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <deque>
#include <stdexcept>
#include <string_view>
#include <thread>

namespace openei::bench_e2e {

namespace {
// A request unanswered this long after it was due counts as failed.
constexpr std::int64_t kAnswerDeadlineNs = 10'000'000'000;
// Pipelining depth cap per connection.  The server's event loop pauses
// reading a connection once one pass has queued more than 1 MiB of responses
// and, when its flush then completes at once, never resumes it: the
// connection hangs for good (see README, open observations).  256 answers
// stay far below that.  A request held back by the cap keeps its scheduled
// send time, so its wait still counts in its latency and in the lateness.
constexpr std::size_t kMaxInFlight = 256;
// Samples one lane can record in a phase without reallocating (a lane
// answers well under 100k requests per second).
constexpr std::size_t kLaneCapacity = std::size_t{1} << 21;
}  // namespace

std::size_t Phase::count(Outcome outcome) const {
  std::size_t n = 0;
  for (const Sample& s : samples) n += s.outcome == outcome ? 1 : 0;
  return n;
}

/// One non-blocking keep-alive connection with its own request stream.
struct LoadGen::Conn {
  std::uint16_t port;
  common::Rng rng;
  int fd = -1;
  std::string in;
  std::size_t in_off = 0;
  std::string out;
  std::size_t out_off = 0;
  bool close_after = false;  // the server announced Connection: close

  Conn(std::uint16_t p, std::uint64_t seed) : port(p), rng(seed) {}
  ~Conn() { disconnect(); }

  void disconnect() {
    if (fd >= 0) ::close(fd);
    fd = -1;
    in.clear();
    in_off = 0;
    out.clear();
    out_off = 0;
    close_after = false;
  }

  void connect() {
    disconnect();
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      disconnect();
      throw std::runtime_error("connect() to 127.0.0.1:" + std::to_string(port) +
                               " failed");
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  }

  /// Writes what the socket takes now; false on a dead connection.
  bool flush() {
    while (out_off < out.size()) {
      ssize_t n = ::send(fd, out.data() + out_off, out.size() - out_off,
                         MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        return false;
      }
    }
    out.clear();
    out_off = 0;
    return true;
  }

  /// Reads what is available; false on EOF or error.
  bool fill() {
    char buf[65536];
    while (true) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        in.append(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof(buf)) return true;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        return false;
      }
    }
  }

  /// Pops one complete response off the input buffer, if there is one.
  bool next_response(int& status, std::string_view& body) {
    std::string_view buf(in.data() + in_off, in.size() - in_off);
    std::size_t head_end = buf.find("\r\n\r\n");
    if (head_end == std::string_view::npos) return false;
    std::string_view head = buf.substr(0, head_end);
    status = head.size() > 12 ? std::atoi(head.data() + 9) : 0;
    std::size_t length = 0;
    if (std::size_t cl = head.find("Content-Length: ");
        cl != std::string_view::npos) {
      length = std::strtoull(head.data() + cl + 16, nullptr, 10);
    }
    std::size_t total = head_end + 4 + length;
    if (buf.size() < total) return false;
    body = buf.substr(head_end + 4, length);
    if (head.find("Connection: close") != std::string_view::npos) {
      close_after = true;
    }
    in_off += total;
    return true;
  }

  /// Drops consumed input once a response has been handled.
  void compact() {
    if (in_off == in.size()) {
      in.clear();
      in_off = 0;
    } else if (in_off > (1U << 16)) {
      in.erase(0, in_off);
      in_off = 0;
    }
  }

  /// Waits until readable (or writable, while output is pending) or until
  /// `deadline_ns`; false on timeout or a dead connection.
  bool wait(std::int64_t deadline_ns) {
    std::int64_t left = deadline_ns - now_ns();
    if (left <= 0) return false;
    pollfd p{fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)), 0};
    timespec ts{static_cast<time_t>(left / 1'000'000'000),
                static_cast<long>(left % 1'000'000'000)};
    int ready = ::ppoll(&p, 1, &ts, nullptr);
    if (ready < 0) return errno == EINTR;
    if (ready == 0) return true;  // caller re-checks the clock
    if ((p.revents & (POLLERR | POLLNVAL)) != 0) return false;
    if ((p.revents & POLLOUT) != 0 && !flush()) return false;
    if ((p.revents & (POLLIN | POLLHUP)) != 0 && !fill()) return false;
    return true;
  }
};

LoadGen::LoadGen(const WorkloadSpec& spec, std::uint16_t port,
                 std::uint64_t seed, std::size_t connections)
    : spec_(spec) {
  common::Rng seeds(seed * 7919 + 17);
  for (std::size_t i = 0; i < connections; ++i) {
    conns_.push_back(std::make_unique<Conn>(port, seeds.engine()()));
    conns_.back()->connect();
  }
}

LoadGen::~LoadGen() = default;

void LoadGen::judge(Sample& s, int status, std::string_view body,
                    Lane& lane) const {
  s.recv_ns = now_ns();
  const Template& t = spec_.pool[s.tmpl];
  s.outcome = matches(t, status, body) ? Outcome::kOk : Outcome::kWrong;
  if (s.outcome == Outcome::kWrong && lane.wrong.size() < 3) {
    lane.wrong.push_back("rid " + std::to_string(s.rid) + " " + t.method + " " +
                         t.target.substr(0, 80) + " -> " + std::to_string(status) +
                         " " + std::string(body.substr(0, 240)));
  }
  lane.samples.push_back(s);
}

void LoadGen::closed_lane(Conn& conn, std::int64_t end_ns, Lane& lane,
                          const std::vector<std::size_t>* fixed) {
  std::size_t fixed_next = 0;
  while (fixed != nullptr ? fixed_next < fixed->size() : now_ns() < end_ns) {
    Sample s;
    s.tmpl = static_cast<std::uint32_t>(
        fixed != nullptr ? (*fixed)[fixed_next++] : spec_.pick(conn.rng));
    const Template& t = spec_.pool[s.tmpl];
    s.swap = t.swap;
    s.rid = next_rid_++;
    if (conn.fd < 0) conn.connect();
    conn.out = t.wire(s.rid);
    conn.out_off = 0;
    s.sched_ns = s.send_ns = now_ns();
    std::int64_t deadline = s.send_ns + kAnswerDeadlineNs;
    bool alive = conn.flush();
    int status = 0;
    std::string_view body;
    bool got = false;
    while (alive && !(got = conn.next_response(status, body))) {
      alive = conn.wait(deadline) && now_ns() < deadline;
    }
    if (got) {
      judge(s, status, body, lane);
    } else {
      s.recv_ns = now_ns();
      lane.samples.push_back(s);  // s.outcome stays kFailed
    }
    if (!got || conn.close_after) {
      conn.disconnect();
    } else {
      conn.compact();
    }
  }
}

void LoadGen::open_lane(Conn& conn, std::int64_t start_ns, std::int64_t end_ns,
                        std::int64_t interval_ns, Lane& lane) {
  std::deque<Sample> inflight;
  std::int64_t due = start_ns;
  auto fail_inflight = [&] {
    for (Sample& s : inflight) {
      s.recv_ns = now_ns();
      s.outcome = Outcome::kFailed;
      lane.samples.push_back(s);
    }
    inflight.clear();
    conn.disconnect();
  };
  if (conn.fd < 0) conn.connect();
  while (true) {
    std::int64_t now = now_ns();
    bool may_send = due < end_ns && inflight.size() < kMaxInFlight;
    if (may_send && now >= due) {
      // Due: send now, pipelined behind whatever is still in flight.
      Sample s;
      s.tmpl = static_cast<std::uint32_t>(spec_.pick(conn.rng));
      const Template& t = spec_.pool[s.tmpl];
      s.swap = t.swap;
      s.rid = next_rid_++;
      s.sched_ns = due;
      if (conn.fd < 0) conn.connect();
      conn.out += t.wire(s.rid);
      s.send_ns = now_ns();
      inflight.push_back(s);
      due += interval_ns;
      if (!conn.flush()) fail_inflight();
      continue;
    }
    if (due >= end_ns && inflight.empty()) break;
    std::int64_t deadline =
        inflight.empty() ? due : inflight.front().sched_ns + kAnswerDeadlineNs;
    if (may_send) deadline = std::min(deadline, due);
    if (!conn.wait(deadline) && now_ns() < deadline) {
      fail_inflight();
      continue;
    }
    int status = 0;
    std::string_view body;
    while (!inflight.empty() && conn.next_response(status, body)) {
      Sample s = inflight.front();
      inflight.pop_front();
      judge(s, status, body, lane);
    }
    if (conn.close_after) {
      fail_inflight();
      continue;
    }
    conn.compact();
    if (!inflight.empty() &&
        now_ns() >= inflight.front().sched_ns + kAnswerDeadlineNs) {
      fail_inflight();
    }
  }
}

Phase LoadGen::merge(std::vector<Lane>& lanes) {
  Phase phase;
  std::int64_t first = INT64_MAX;
  std::int64_t last = 0;
  std::size_t total = 0;
  for (const Lane& lane : lanes) total += lane.samples.size();
  phase.samples.reserve(total);
  for (Lane& lane : lanes) {
    for (const Sample& s : lane.samples) {
      first = std::min(first, s.sched_ns);
      last = std::max(last, s.recv_ns);
    }
    phase.samples.insert(phase.samples.end(), lane.samples.begin(),
                         lane.samples.end());
    phase.wrong.insert(phase.wrong.end(), lane.wrong.begin(), lane.wrong.end());
  }
  phase.seconds = last > first ? (last - first) * 1e-9 : 0.0;
  return phase;
}

std::vector<LoadGen::Lane> LoadGen::make_lanes(std::size_t n) {
  // Reserved, not grown: untouched capacity is never resident, and growth by
  // doubling would make peak_rss_mb jump with the request count.
  std::vector<Lane> lanes(n);
  for (Lane& lane : lanes) lane.samples.reserve(kLaneCapacity);
  return lanes;
}

Phase LoadGen::closed(double seconds) {
  std::vector<Lane> lanes = make_lanes(conns_.size());
  std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    threads.emplace_back(
        [this, i, end, &lanes] { closed_lane(*conns_[i], end, lanes[i], nullptr); });
  }
  for (std::thread& t : threads) t.join();
  return merge(lanes);
}

Phase LoadGen::open(double seconds, double rate_rps) {
  std::vector<Lane> lanes = make_lanes(conns_.size());
  auto lanes_n = static_cast<std::int64_t>(conns_.size());
  auto interval = static_cast<std::int64_t>(1e9 * static_cast<double>(lanes_n) /
                                            rate_rps);
  // Lane i starts i/rate after the first, so the merged schedule is evenly
  // spaced at 1/rate.
  std::int64_t start = now_ns() + 1'000'000;
  std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    std::int64_t lane_start = start + static_cast<std::int64_t>(i) * interval / lanes_n;
    threads.emplace_back([this, i, lane_start, end, interval, &lanes] {
      open_lane(*conns_[i], lane_start, end, interval, lanes[i]);
    });
  }
  for (std::thread& t : threads) t.join();
  return merge(lanes);
}

Phase LoadGen::sequence(const std::vector<std::size_t>& templates,
                        std::size_t conn) {
  std::vector<Lane> lanes = make_lanes(1);
  closed_lane(*conns_[conn % conns_.size()], 0, lanes[0], &templates);
  return merge(lanes);
}

}  // namespace openei::bench_e2e

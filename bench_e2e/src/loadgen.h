// Keep-alive HTTP/1.1 load generator: one thread and one persistent
// connection per lane, closed-loop (one request in flight per connection)
// or open-loop (fixed-rate schedule; a request that comes due while its
// connection is busy is pipelined, and latency counts from the scheduled
// send time, so a stall is never hidden by a generator that waits for it).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "workloads.h"

namespace openei::bench_e2e {

enum class Outcome : std::uint8_t { kOk, kWrong, kFailed };

struct Sample {
  std::uint64_t rid = 0;
  std::uint32_t tmpl = 0;  // pool index
  Outcome outcome = Outcome::kFailed;
  bool swap = false;
  std::int64_t sched_ns = 0;  // scheduled send (open loop) = send (closed)
  std::int64_t send_ns = 0;
  std::int64_t recv_ns = 0;

  double latency_ms() const { return (recv_ns - sched_ns) * 1e-6; }
  double service_ms() const { return (recv_ns - send_ns) * 1e-6; }
  double lateness_ms() const { return (send_ns - sched_ns) * 1e-6; }
};

struct Phase {
  std::vector<Sample> samples;
  /// The first few wrong answers, for diagnosis.
  std::vector<std::string> wrong;
  double seconds = 0.0;  // first scheduled send to the last answer
  std::size_t count(Outcome outcome) const;
};

class LoadGen {
 public:
  LoadGen(const WorkloadSpec& spec, std::uint16_t port, std::uint64_t seed,
          std::size_t connections);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Every connection sends, waits for the answer, repeats, for `seconds`.
  Phase closed(double seconds);
  /// `rate_rps` spread round-robin over the connections for `seconds`,
  /// then drains what is still in flight.
  Phase open(double seconds, double rate_rps);
  /// The given pool entries one at a time on connection `conn`.
  Phase sequence(const std::vector<std::size_t>& templates, std::size_t conn);

  std::uint64_t last_rid() const { return next_rid_.load() - 1; }

 private:
  struct Conn;
  struct Lane {
    std::vector<Sample> samples;
    std::vector<std::string> wrong;
  };
  /// Classifies one answer into `s` (and `lane.wrong` when it is wrong).
  void judge(Sample& s, int status, std::string_view body, Lane& lane) const;
  void closed_lane(Conn& conn, std::int64_t end_ns, Lane& lane,
                   const std::vector<std::size_t>* fixed);
  void open_lane(Conn& conn, std::int64_t start_ns, std::int64_t end_ns,
                 std::int64_t interval_ns, Lane& lane);
  static std::vector<Lane> make_lanes(std::size_t n);
  static Phase merge(std::vector<Lane>& lanes);

  const WorkloadSpec& spec_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::atomic<std::uint64_t> next_rid_{1};
};

}  // namespace openei::bench_e2e

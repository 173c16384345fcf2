// One repetition of a phase through OijServer on loopback. This thread
// is the client: one poll-driven loop that drains result frames before
// it encodes and sends more, so a backlog of results never builds up on
// the server's side of the socket.

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <memory>

#include "bench.h"
#include "common/clock.h"
#include "common/thread_util.h"
#include "join/watermark.h"
#include "net/socket.h"
#include "net/wire_codec.h"
#include "server/server.h"

namespace oij::perfbench {
namespace {

constexpr int64_t kRepDeadlineNs = 60'000'000'000;
constexpr size_t kSendHighWater = 64 << 10;

double CpuSeconds(const timeval& t) {
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
}

// Waits up to `timeout_ns` for `events` on `fd`; returns poll's revents
// (0 on timeout), or -1 on error.
int WaitFd(int fd, short events, int64_t timeout_ns) {
  pollfd p{fd, events, 0};
  timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
              static_cast<long>(timeout_ns % 1'000'000'000)};
  const int r = ppoll(&p, 1, &ts, nullptr);
  if (r < 0) return errno == EINTR ? 0 : -1;
  return r == 0 ? 0 : p.revents;
}

}  // namespace

RepResult RunServed(const Workload& w, const Inputs& in, Phase phase,
                    bool traced) {
  RepResult rep;
  const bool fixed = phase == Phase::kFixedRate;
  const size_t n = phase == Phase::kSetupOnly ? 0 : in.events.size();
  // Pre-touched so the client's buffers do not count as server memory.
  rep.results.resize(phase == Phase::kSetupOnly ? 0 : in.expected.size() + 1);
  size_t received = 0;
  uint64_t overflow = 0;
  rep.puncts.reserve(n / 64 + 16);
  if (fixed) rep.send_ns.assign(n, 0);
  std::string out;
  out.reserve(kSendHighWater * 4);
  std::vector<char> rbuf(1 << 16);

  ServerConfig config;
  config.engine = EngineKind::kScaleOij;
  config.query = w.query;
  config.options.num_joiners = w.joiners;
  config.options.pin_threads = true;  // joiner j on CPU j
  config.workload_name = w.name;
  config.recover = false;

  const bool measure_rss = fixed && !traced;
  const double rss_base = measure_rss ? ResetPeakRss() : 0.0;
  rusage ru0{};
  getrusage(RUSAGE_SELF, &ru0);

  // The server's loop thread inherits this thread's CPU at Start; the
  // client then moves to the last CPU.
  TryPinCurrentThreadTo(static_cast<int>(w.joiners));
  const int64_t setup_start = MonotonicNowNs();
  auto server = std::make_unique<OijServer>(config);
  Status s = server->Start();
  int fd = -1;
  if (s.ok()) s = ConnectTcp("127.0.0.1", server->data_port(), &fd);
  if (s.ok()) s = SetNoDelay(fd);
  if (s.ok()) {
    std::string hello;
    AppendControlFrame(&hello, FrameType::kSubscribe);
    s = SendAll(fd, hello.data(), hello.size());
  }
  if (s.ok()) s = SetNonBlocking(fd);
  rep.setup_s = static_cast<double>(MonotonicNowNs() - setup_start) * 1e-9;
  TryPinCurrentThreadTo(NumCpus() - 1);
  if (!s.ok()) {
    rep.failure = "served setup: " + s.ToString();
    CloseFd(fd);
    server->Shutdown();
    return rep;
  }

  TraceData& tr = rep.trace;
  uint32_t root = kNoParent;
  uint32_t interval_span = kNoParent;
  uint64_t interval = 0;
  CallAgg encode, send, poll_wait, recv, decode;

  WireDecoder decoder;
  WireFrame frame;
  WatermarkTracker tracker(w.query.lateness_us);
  rep.period_ns = fixed ? 1e9 / static_cast<double>(w.fixed_rate) : 0.0;
  rep.t0_ns = MonotonicNowNs();
  if (traced) {
    root = tr.spans.Open(fixed ? "run.fixed_rate" : "run.saturating",
                         kNoParent, 0, rep.t0_ns);
    interval_span = tr.spans.Open("client.interval", root, 0, rep.t0_ns);
  }
  auto close_interval = [&](int64_t at) {
    tr.spans.AddAggregate("net.encode", interval_span, interval, &encode);
    tr.spans.AddAggregate("net.send", interval_span, interval, &send);
    tr.spans.AddAggregate("net.poll_wait", interval_span, interval,
                          &poll_wait);
    tr.spans.AddAggregate("net.recv", interval_span, interval, &recv);
    tr.spans.AddAggregate("net.decode", interval_span, interval, &decode);
    tr.spans.Close(interval_span, at);
  };

  size_t next = 0;
  size_t out_pos = 0;
  uint64_t since_punct = 0;
  int64_t last_punct_ns = rep.t0_ns;
  bool finish_queued = false;
  bool summary = false;
  int64_t end_ns = 0;
  while (!summary && rep.failure.empty()) {
    // 1. Drain every result frame that has arrived.
    while (true) {
      const int64_t r0 = traced ? MonotonicNowNs() : 0;
      const ssize_t got = ::recv(fd, rbuf.data(), rbuf.size(), MSG_DONTWAIT);
      const int64_t recv_ns = MonotonicNowNs();
      if (got == 0) {
        rep.failure = "server closed the connection before the summary";
        break;
      }
      if (got < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          rep.failure = std::string("recv: ") + std::strerror(errno);
        }
        break;
      }
      if (traced) {
        recv.Add(r0, recv_ns);
        tr.bytes_received += static_cast<uint64_t>(got);
      }
      decoder.Feed(rbuf.data(), static_cast<size_t>(got));
      WireDecoder::Result res;
      while ((res = decoder.Next(&frame)) == WireDecoder::Result::kFrame) {
        if (frame.type == FrameType::kResult) {
          if (received == rep.results.size()) {
            ++overflow;
            continue;
          }
          const JoinResult& jr = frame.result;
          rep.results[received++] = {jr.base.ts,   jr.base.key,
                                     jr.base.payload, jr.aggregate,
                                     jr.match_count, recv_ns};
        } else if (frame.type == FrameType::kSummary) {
          summary = true;
          end_ns = recv_ns;
        } else if (frame.type == FrameType::kError) {
          rep.failure = "server error: " + frame.text;
        }
      }
      if (traced) decode.Add(recv_ns, MonotonicNowNs());
      if (res == WireDecoder::Result::kCorrupt) {
        rep.failure = "corrupt stream: " + decoder.error().ToString();
      }
      if (!rep.failure.empty() || summary) break;
    }
    if (!rep.failure.empty() || summary) break;

    // 2. Encode what is due (fixed rate) or what fits (saturating).
    int64_t now = MonotonicNowNs();
    while (next < n && out.size() - out_pos < kSendHighWater) {
      int64_t due = 0;
      if (fixed) {
        due = rep.t0_ns +
              static_cast<int64_t>(static_cast<double>(next) * rep.period_ns);
        if (due > now) break;
        rep.send_ns[next] = now;
      }
      const int64_t e0 = traced ? MonotonicNowNs() : 0;
      AppendTupleFrame(&out, in.events[next]);
      tracker.Observe(in.events[next].tuple.ts);
      ++next;
      if (traced) encode.Add(e0, MonotonicNowNs());
      if (++since_punct >= kPunctEvery || now - last_punct_ns >= kPunctAfterNs) {
        AppendWatermarkFrame(&out, tracker.watermark());
        rep.puncts.push_back({tracker.watermark(), fixed ? due : now, next});
        since_punct = 0;
        last_punct_ns = now;
        if (traced) {
          close_interval(now);
          interval_span =
              tr.spans.Open("client.interval", root, interval + 1, now);
        }
        ++interval;
      }
      now = MonotonicNowNs();
    }
    if (next == n && !finish_queued) {
      AppendControlFrame(&out, FrameType::kFinish);
      finish_queued = true;
      rep.finish_sent_ns = now;
    }

    // 3. Send as much as the socket takes.
    while (out_pos < out.size()) {
      const int64_t s0 = traced ? MonotonicNowNs() : 0;
      const ssize_t sent = ::send(fd, out.data() + out_pos,
                                  out.size() - out_pos,
                                  MSG_DONTWAIT | MSG_NOSIGNAL);
      if (traced) send.Add(s0, MonotonicNowNs());
      if (sent > 0) {
        out_pos += static_cast<size_t>(sent);
        continue;
      }
      if (sent < 0 && errno == EINTR) continue;
      if (sent < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
        rep.failure = std::string("send: ") + std::strerror(errno);
      }
      break;
    }
    if (out_pos == out.size() || out_pos > (1u << 20)) {
      out.erase(0, out_pos);
      out_pos = 0;
    }
    if (!rep.failure.empty()) break;

    // 4. Wait: for the socket when it is full, for the next due tuple
    // when far enough ahead, for results once everything is sent.
    now = MonotonicNowNs();
    if (now - rep.t0_ns > kRepDeadlineNs) {
      rep.failure = "timed out waiting for the run summary";
      break;
    }
    int64_t wait_ns = -1;
    short events = POLLIN;
    if (out_pos < out.size()) {
      events |= POLLOUT;
      wait_ns = 10'000'000;
    } else if (fixed && next < n) {
      const int64_t due = rep.t0_ns + static_cast<int64_t>(
                                          static_cast<double>(next) *
                                          rep.period_ns);
      if (due - now > kSleepAheadNs) wait_ns = due - now;
    } else if (next == n) {
      wait_ns = 10'000'000;
    }
    if (wait_ns > 0) {
      const int ready = WaitFd(fd, events, wait_ns);
      const int64_t waited = MonotonicNowNs();
      if (ready < 0) rep.failure = std::string("poll: ") + std::strerror(errno);
      if (events & POLLOUT) tr.send_wait_ns += waited - now;
      if (traced) poll_wait.Add(now, waited);
    }
  }
  if (traced) {
    close_interval(end_ns != 0 ? end_ns : MonotonicNowNs());
    tr.spans.Close(root, end_ns != 0 ? end_ns : MonotonicNowNs());
  }
  rep.wall_s = static_cast<double>(end_ns - rep.t0_ns) * 1e-9;
  rep.tuples = n;
  if (measure_rss) rep.rss_growth_mb = PeakRssMb() - rss_base;
  rusage ru1{};
  getrusage(RUSAGE_SELF, &ru1);
  rep.cpu_s = CpuSeconds(ru1.ru_utime) + CpuSeconds(ru1.ru_stime) -
              CpuSeconds(ru0.ru_utime) - CpuSeconds(ru0.ru_stime);
  rep.sys_s = CpuSeconds(ru1.ru_stime) - CpuSeconds(ru0.ru_stime);
  rep.invol_csw = static_cast<uint64_t>(ru1.ru_nivcsw - ru0.ru_nivcsw);

  rep.server = server->CountersSnapshot();
  if (summary) rep.stats = server->FinalRun().stats;
  CloseFd(fd);
  server->Shutdown();
  server.reset();
  if (overflow != 0 && rep.failure.empty()) {
    rep.failure = "more results than expected";
  }
  if (summary && !rep.stats.health.ok()) {
    rep.failure = "engine unhealthy: " + rep.stats.health.ToString();
  }
  rep.results.resize(received);
  return rep;
}

}  // namespace oij::perfbench

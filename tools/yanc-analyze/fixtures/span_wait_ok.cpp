// Fixture: the compliant shapes — wait first and account it as queue_ns,
// scope the span so it closes before the wait, or carry a justified
// waiver.
#include <chrono>

namespace yanc {

void drain_one(Queue& q, obs::TraceRef parent) {
  // Wait *before* opening the span; the measured wait becomes queue_ns.
  auto t0 = now_ns();
  auto ev = q.pop_wait(std::chrono::milliseconds(10));
  obs::Span span(parent, "driver", "drain", now_ns() - t0);
  handle(ev);
}

void drain_scoped(Queue& q, obs::TraceRef parent) {
  {
    obs::Span span(parent, "driver", "drain");
    handle(q.pop());
  }  // span closed here
  q.pop_wait(std::chrono::milliseconds(10));  // OK: no live guard
}

void drain_waived(Queue& q, Cv& cv, Lk& lk, obs::TraceRef parent) {
  obs::Span span(parent, "driver", "drain");
  // yanc-analyze: allow(span-wait) bounded 1us handshake, measured as service
  cv.wait_for(lk, std::chrono::microseconds(1));
}

}  // namespace yanc

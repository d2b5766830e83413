// Fixture: ranked wrappers and a justified waiver are both clean.
namespace yanc::dbg {
enum class Rank { watch_queue };
template <Rank R> struct Mutex { void lock(); void unlock(); };
template <typename M> struct LockGuard { explicit LockGuard(M&); };
}  // namespace yanc::dbg

struct S {
  yanc::dbg::Mutex<yanc::dbg::Rank::watch_queue> mu;
  // yanc-analyze: allow(raw-mutex) lockdep's own graph lock cannot rank itself
  std::mutex meta_mu;
};

void f(S& s) { yanc::dbg::LockGuard g(s.mu); }

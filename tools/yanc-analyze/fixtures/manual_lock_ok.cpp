// Fixture: RAII guards, method definitions, and a justified hand-off are ok.
struct M { void lock(); void unlock(); };
template <typename T> struct Guard { explicit Guard(T&); };

struct Wrapper {
  // Defining lock()/unlock() is not *calling* them.
  void lock() {}
  void unlock() {}
};

void f(M& m) {
  Guard g(m);
  // yanc-analyze: allow(manual-lock) ordered hand-off documented in CORRECTNESS.md
  m.unlock();
}

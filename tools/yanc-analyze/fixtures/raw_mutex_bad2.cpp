// Fixture: a waiver with no justification text does not suppress.
#include <mutex>

struct S {
  std::mutex mu;  // yanc-analyze: allow(raw-mutex)
};

// yanc-analyze — the repo's one static checker: per-file source policy
// plus whole-program lock-order and blocking-call verification.
//
// A self-contained C++20 source scanner: no libclang, no compiler, no
// network — hermetic enough to run as a plain ctest test everywhere the
// tree builds.  It enforces invariants that are *policy*, not syntax, so
// no off-the-shelf tool checks them.  (Discarded results are the
// compiler's job: `Result` is [[nodiscard]] and the build sets
// -Werror=unused-result.)
//
// Runtime lockdep proves lock orderings for the interleavings a test
// happens to exercise; the lock pass proves them for every ordering the
// code can reach.  It builds the symbol layer in symbols.hpp over the
// tokenizer in lexer.hpp, then:
//
//   1. harvests every dbg::Mutex<Rank::X>/SharedMutex<Rank::X> declaration
//      into a variable -> rank map, and every LockGuard/UniqueLock/
//      SharedLock/CondVar site into guard scopes;
//   2. constructs a conservative two-pass, name-qualified call graph (a
//      receiver or name that does not resolve to exactly one plausible
//      definition set is skipped, never guessed at) and computes, by
//      fixpoint over per-function may-acquire/may-block summaries, the
//      whole-program static acquired-while-held edge set;
//   3. reports rank cycles and same-rank nesting reachable through any
//      call path, blocking calls under a held lock, and rank drift.
//
// File rules (every scanned file):
//   banned-function     sprintf/strcpy/strcat/strtok/gmtime/localtime/rand/
//                       srand/rand_r — non-reentrant or unbounded C legacy.
//   include-cycle       #include cycles among project headers.
//   pragma-once         every header carries #pragma once.
//   span-wait           a blocking wait (pop_wait/wait/wait_for/wait_until/
//                       sleep*/co_await/co_yield) while an obs::Span guard
//                       is live in the same scope — the wait would be
//                       booked as service time, corrupting the queue/
//                       service split.
//
// Lock rules (src/yanc/ outside src/yanc/dbg/, which implements the
// primitives; tests and benches may use raw primitives for scaffolding):
//   raw-mutex           std::mutex/std::lock_guard/std::condition_variable
//                       and friends — a lock the rank graph and lockdep
//                       cannot see; use the ranked dbg wrappers.
//   manual-lock         .lock()/.unlock()/.lock_shared()/... calls — RAII
//                       guards only, so every exit path releases.
//   lock-cycle          the static acquired-while-held graph has a cycle
//                       among distinct ranks — a deadlock on the right
//                       schedule, even if no test ever interleaves it.
//   same-rank           a path acquires a rank while already holding it
//                       (runtime lockdep aborts on this; statically it is
//                       reachable through ANY call path, not just tested).
//   blocking-under-lock a call that can park the thread — CondVar::wait*,
//                       WatchQueue::pop_wait*, Channel::send*,
//                       Transport::send, sleep_for/sleep_until — while a
//                       ranked lock is held (the condvar's own lock is
//                       exempt: wait releases it).
//   unknown-rank        a dbg guard whose mutex expression the analyzer
//                       cannot map to a rank — fix the spelling or waive
//                       it, so the variable->rank map stays total.
//   rank-unused         a dbg::Rank enumerator never instantiated as
//                       Mutex<Rank::X>/SharedMutex<Rank::X> anywhere.
//   doc-rank-drift      the docs/CORRECTNESS.md rank table disagrees with
//                       the enum (missing/extra/misordered rows).
//
// Suppression: a finding on line N is waived when line N or N-1 carries
//     // yanc-analyze: allow(<rule>) <justification>
// and the justification says something (3+ characters).  A waiver without
// one waives nothing, and the finding names it.
//
// With --runtime-edges FILE (the dump produced by YANC_LOCK_EDGES_OUT or
// /yanc/.stats/dbg/lock_edges), prints a static-vs-runtime coverage
// report: statically-possible edges no test exercised, and runtime edges
// the analyzer failed to derive (blind spots).
//
// Exit codes: 0 clean, 1 findings (or self-test failure), 2 usage/IO.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "symbols.hpp"

namespace fs = std::filesystem;
using namespace yancanalyze;
using detail::is_ident;

namespace {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

// --- suppressions ----------------------------------------------------------

enum class Waiver { none, justified, unjustified };

Waiver waiver_for(const LexedFile& lex, int line, const std::string& rule) {
  static const std::regex kAllow(
      R"(yanc-analyze:\s*allow\(([a-z-]+)\)\s*(.*))");
  Waiver found = Waiver::none;
  for (int l : {line, line - 1}) {
    auto it = lex.comments.find(l);
    std::smatch m;
    if (it == lex.comments.end() || !std::regex_search(it->second, m, kAllow) ||
        m[1].str() != rule)
      continue;
    // Block comments may close on the same line; strip the terminator
    // before judging the justification.
    std::string why = m[2].str();
    auto trailing = [](unsigned char c) {
      return c == '/' || c == '*' || std::isspace(c);
    };
    while (!why.empty() && trailing(why.back())) why.pop_back();
    if (why.size() >= 3) return Waiver::justified;
    found = Waiver::unjustified;
  }
  return found;
}

void report(std::vector<Finding>& findings, const SourceFile& sf, int line,
            std::string rule, std::string message) {
  Waiver w = waiver_for(sf.lex, line, rule);
  if (w == Waiver::justified) return;
  if (w == Waiver::unjustified)
    message += " [the allow(" + rule +
               ") here has no justification, so it waives nothing: say "
               "why or remove it]";
  findings.push_back(
      Finding{sf.display, line, std::move(rule), std::move(message)});
}

// --- the analysis ----------------------------------------------------------

struct Ev {
  enum Kind {
    brace_open,
    brace_close,
    guard_open,   // dbg guard local: acquires `rank`
    scope_open,   // scope-guard object local: acquires `ranks`, dtor at close
    unlock,       // guard.unlock(): releases newest `rank`
    relock,       // guard.lock(): re-acquires `rank`
    call,         // resolved call sites: `targets`
    block         // direct blocking call; `exempt` rank is released by it
  } kind;
  int line = 0;
  int depth = 0;

  Ev(Kind k, int l, int d) : kind(k), line(l), depth(d) {}

  std::string rank;
  std::vector<std::string> ranks;      // scope_open
  std::vector<FuncDef*> targets;       // call / scope_open (dtor)
  std::string desc;                    // callee or blocking-call description
  std::string exempt;                  // block: rank the wait releases
};

struct EdgeInfo {
  std::string file;
  int line = 0;         // acquisition / call site
  int holder_line = 0;  // where the held lock was taken
  std::string via;      // "" for a direct acquisition, else callee
  std::string func;     // qualified function the edge was derived in
};

using EdgeKey = std::pair<std::string, std::string>;

std::string qual_name(const FuncDef& f) {
  return f.cls.empty() ? f.name : f.cls + "::" + f.name;
}

bool in_dbg_dir(const SourceFile& sf) {
  return sf.display.find("dbg/") == 0 ||
         sf.display.find("/dbg/") != std::string::npos;
}

const std::set<std::string>& guard_spellings() {
  static const std::set<std::string> k = {"LockGuard", "UniqueLock",
                                          "SharedLock"};
  return k;
}

const std::set<std::string>& wait_methods() {
  static const std::set<std::string> k = {"wait", "wait_for", "wait_until"};
  return k;
}

// Calls that park the thread by policy even though their bodies contain no
// condvar wait reachable in this tree (bounded queues backpressure).
// CondVar waits themselves propagate automatically through the fixpoint.
bool policy_blocking(const std::string& cls, const std::string& name) {
  if (cls == "Channel" && (name == "send" || name == "send_batch"))
    return true;
  if (cls == "Transport" && name == "send") return true;
  if (cls == "WatchQueue" && (name == "pop_wait" || name == "pop_wait_batch"))
    return true;
  return false;
}

class Analyzer {
 public:
  Analyzer(Index& index, std::vector<Finding>& findings)
      : index_(index), findings_(findings) {}

  std::map<EdgeKey, EdgeInfo> edges;

  void run() {
    for (FuncDef& f : index_.funcs) {
      if (in_dbg_dir(*f.sf)) continue;  // dbg/ implements the primitives
      extract_events(f);
    }
    seed_policy_blocking();
    fixpoint();
    for (FuncDef& f : index_.funcs) {
      if (in_dbg_dir(*f.sf)) continue;
      walk_edges(f);
    }
    rule_cycles();
  }

 private:
  Index& index_;
  std::vector<Finding>& findings_;
  std::map<const FuncDef*, std::vector<Ev>> events_;
  std::map<const FuncDef*, std::string> block_reason_;

  const std::vector<Token>& toks(const FuncDef& f) const {
    return f.sf->lex.tokens;
  }

  // --- event extraction (one linear sweep per function body) --------------

  struct Local {
    ClassInfo* cls = nullptr;
    std::string guard_rank;  // non-empty: a dbg guard local
  };

  void extract_events(FuncDef& f) {
    const auto& t = toks(f);
    std::vector<Ev>& evs = events_[&f];
    ClassInfo* cur = index_.class_named(f.cls, nullptr);
    std::map<std::string, Local> locals;
    int depth = 1;
    bool stmt_start = true;

    auto angle_skip = [&](std::size_t i) -> std::size_t {
      // i at '<': best-effort skip of a template argument list.
      int angle = 0;
      for (std::size_t k = i; k < f.body_close; ++k) {
        if (t[k].text == "<") ++angle;
        else if (t[k].text == ">") { if (--angle == 0) return k + 1; }
        else if (t[k].text == ">>") { angle -= 2; if (angle <= 0) return k + 1; }
        else if (t[k].text == ";" || t[k].text == "{") break;
      }
      return i;
    };

    for (std::size_t i = f.body_open + 1; i < f.body_close; ++i) {
      const std::string& s = t[i].text;
      if (s == "{") {
        ++depth;
        evs.push_back(Ev{Ev::brace_open, t[i].line, depth});
        stmt_start = true;
        continue;
      }
      if (s == "}") {
        evs.push_back(Ev{Ev::brace_close, t[i].line, depth});
        --depth;
        stmt_start = true;
        continue;
      }
      if (s == ";") {
        stmt_start = true;
        continue;
      }
      if (!is_ident(t[i])) {
        if (s != "*" && s != "&" && s != "::") stmt_start = false;
        continue;
      }

      // dbg guard declaration: [dbg ::] LockGuard|UniqueLock|SharedLock
      // [<...>] name ( expr ) — CTAD is the idiom, template args allowed.
      if (guard_spellings().count(s)) {
        std::size_t j = i + 1;
        if (j < f.body_close && t[j].text == "<") j = angle_skip(j);
        if (j + 1 < f.body_close && is_ident(t[j]) && t[j + 1].text == "(") {
          int rp = f.sf->paren_match[j + 1];
          if (rp > 0 && static_cast<std::size_t>(rp) < f.body_close) {
            const std::string name = t[j].text;
            std::string rank =
                resolve_expr_rank(f, cur, locals, j + 2,
                                  static_cast<std::size_t>(rp));
            if (rank.empty()) {
              report(findings_, *f.sf, t[j].line, "unknown-rank",
                     "cannot map the mutex expression of guard '" + name +
                         "' to a dbg::Rank; the variable->rank map must "
                         "stay total (fix the spelling or waive)");
            } else {
              Ev e{Ev::guard_open, t[j].line, depth};
              e.rank = rank;
              evs.push_back(e);
              locals[name] = Local{nullptr, rank};
            }
            i = static_cast<std::size_t>(rp);
            stmt_start = false;
            continue;
          }
        }
      }

      // Scope-guard object local: `MutationScope scope(*this);` — a class
      // whose member guards hold ranks for the object's lifetime.
      if (stmt_start && i + 2 < f.body_close && is_ident(t[i + 1]) &&
          (t[i + 2].text == "(" || t[i + 2].text == "{") &&
          (i == f.body_open + 1 || t[i - 1].text != "::")) {
        ClassInfo* sc = index_.class_named(s, cur);
        if (sc && !sc->scope_guard_ranks.empty()) {
          Ev e{Ev::scope_open, t[i + 1].line, depth};
          e.ranks = sc->scope_guard_ranks;
          e.desc = sc->name;
          auto dt = index_.funcs_by_cls.equal_range(
              {sc->name, "~" + sc->name});
          for (auto it2 = dt.first; it2 != dt.second; ++it2)
            e.targets.push_back(it2->second);
          evs.push_back(e);
          locals[t[i + 1].text] = Local{sc, ""};
          if (t[i + 2].text == "(") {
            int rp = f.sf->paren_match[i + 2];
            if (rp > 0) i = static_cast<std::size_t>(rp);
          }
          stmt_start = false;
          continue;
        }
      }

      // Plain local declaration (receiver typing): `Type name ...` /
      // `Type* name = ...` / range-for element.  Only when the statement
      // starts with a resolvable project type.
      if (stmt_start) {
        std::size_t after = try_local_decl(f, cur, locals, i);
        if (after > i) {
          i = after - 1;
          stmt_start = false;
          continue;
        }
      }
      if (s == "for" && i + 1 < f.body_close && t[i + 1].text == "(") {
        harvest_range_for(f, cur, locals, i + 1);
        // fall through: the loop body is scanned normally
      }

      // Call site: identifier followed by '('.
      if (i + 1 < f.body_close && t[i + 1].text == "(" &&
          !detail::control_keywords().count(s)) {
        handle_call(f, cur, locals, evs, i, depth);
      }
      stmt_start = false;
    }
  }

  // Resolves the mutex expression of a guard: `mu_`, `fs_.emit_mu_`,
  // `shared_->mu`, `shard_of(node)`, `fs.mu_`, `*mu`.
  std::string resolve_expr_rank(const FuncDef& f, ClassInfo* cur,
                                const std::map<std::string, Local>& locals,
                                std::size_t b, std::size_t e) {
    const auto& t = toks(f);
    while (b < e && (t[b].text == "*" || t[b].text == "&")) ++b;
    ClassInfo* recv = cur;  // implicit `this`
    for (std::size_t i = b; i < e;) {
      if (!is_ident(t[i])) return "";
      const std::string& name = t[i].text;
      bool is_call = i + 1 < e && t[i + 1].text == "(";
      std::size_t next = i + 1;
      if (is_call) {
        int rp = f.sf->paren_match[i + 1];
        if (rp < 0) return "";
        next = static_cast<std::size_t>(rp) + 1;
      }
      bool last = next >= e;
      if (name == "this") {
        recv = cur;
      } else if (is_call) {
        // Method returning a ranked mutex reference (MemFs::shard_of).
        if (!recv) return "";
        auto it = recv->method_return_rank.find(name);
        if (it == recv->method_return_rank.end()) {
          // walk bases
          std::string r = base_method_return_rank(recv, name);
          if (r.empty() || !last) return "";
          return r;
        }
        if (!last) return "";
        return it->second;
      } else {
        // First element may be a local or parameter; later ones members.
        const MemberVar* mv = nullptr;
        if (i == b) {
          auto lit = locals.find(name);
          if (lit != locals.end() && lit->second.cls) {
            recv = lit->second.cls;
            mv = reinterpret_cast<const MemberVar*>(-1);  // resolved as obj
          } else {
            auto pit = f.params.find(name);
            if (pit != f.params.end()) {
              // A ranked-mutex parameter itself?
              std::string r = detail::rank_of_tokens(index_, pit->second);
              if (!r.empty() && last) return r;
              ClassInfo* pc =
                  detail::class_of_tokens(index_, pit->second, cur);
              if (pc) {
                recv = pc;
                mv = reinterpret_cast<const MemberVar*>(-1);
              }
            }
          }
        }
        if (!mv) {
          const MemberVar* m = index_.find_member(recv, name);
          if (!m) return "";
          if (last) return m->mutex_rank;  // "" when not a ranked mutex
          ClassInfo* mc = detail::class_of_tokens(index_, m->type_tokens, cur);
          if (!mc) return "";
          recv = mc;
        }
      }
      i = next;
      if (i < e) {
        if (t[i].text != "." && t[i].text != "->") return "";
        ++i;
      }
    }
    return "";
  }

  std::string base_method_return_rank(ClassInfo* cls, const std::string& name,
                                      int depth = 0) {
    if (!cls || depth > 6) return "";
    auto it = cls->method_return_rank.find(name);
    if (it != cls->method_return_rank.end()) return it->second;
    for (const std::string& b : cls->bases)
      if (std::string r = base_method_return_rank(
              index_.class_named(b, nullptr), name, depth + 1);
          !r.empty())
        return r;
    return "";
  }

  // `Type name ...` local declaration at statement start.  Returns the
  // token index just past the declared name on success, else `i`.
  std::size_t try_local_decl(const FuncDef& f, ClassInfo* cur,
                             std::map<std::string, Local>& locals,
                             std::size_t i) {
    const auto& t = toks(f);
    std::vector<std::string> type;
    std::size_t k = i;
    int angle = 0;
    while (k < f.body_close && k < i + 16) {
      const std::string& s = t[k].text;
      // Never consume a guard declaration: `dbg::SharedLock lock(mu_)`
      // must reach the guard branch, which starts at the SharedLock token.
      if (detail::reserved_type_name(s)) return i;
      if (s == "<") ++angle;
      else if (s == ">") angle = angle > 0 ? angle - 1 : 0;
      else if (s == ">>") angle = angle > 1 ? angle - 2 : 0;
      else if (angle == 0 && (s == ";" || s == "=" || s == "(" || s == "{" ||
                              s == ")" || s == "," || s == "." ||
                              s == "->" || s == "[")) break;
      if (angle == 0 && is_ident(t[k]) && k + 1 < f.body_close) {
        const std::string& nx = t[k + 1].text;
        if ((nx == ";" || nx == "=" || nx == "(" || nx == "{") &&
            t[k == 0 ? 0 : k - 1].text != "::" && k > i) {
          // t[k] is the declared name; everything before is the type.
          ClassInfo* c = detail::class_of_tokens(index_, type, cur);
          if (!c) return i;
          locals[t[k].text] = Local{c, ""};
          return k + 1;
        }
      }
      type.push_back(s);
      ++k;
    }
    return i;
  }

  // `for ( [Type|auto&] name : container )` — types the element.
  void harvest_range_for(const FuncDef& f, ClassInfo* cur,
                         std::map<std::string, Local>& locals,
                         std::size_t lparen) {
    const auto& t = toks(f);
    int rp = f.sf->paren_match[lparen];
    if (rp < 0) return;
    auto rparen = static_cast<std::size_t>(rp);
    std::size_t colon = 0;
    for (std::size_t i = lparen + 1; i < rparen; ++i)
      if (t[i].text == ":" &&
          (i + 1 >= rparen || t[i + 1].text != ":") &&
          (i == 0 || t[i - 1].text != ":")) {
        colon = i;
        break;
      }
    if (!colon || colon <= lparen + 1 || !is_ident(t[colon - 1])) return;
    const std::string& name = t[colon - 1].text;
    std::vector<std::string> type;
    for (std::size_t i = lparen + 1; i + 1 < colon; ++i)
      type.push_back(t[i].text);
    ClassInfo* c = detail::class_of_tokens(index_, type, cur);
    if (!c) {
      // auto element: take the container's project class, if any —
      // `for (auto& q : targets)` where targets is vector<WatchQueuePtr>.
      if (colon + 1 < rparen && is_ident(t[colon + 1])) {
        const std::string& cont = t[colon + 1].text;
        auto lit = locals.find(cont);
        if (lit != locals.end()) c = lit->second.cls;
        if (!c && cur) {
          const MemberVar* mv = index_.find_member(cur, cont);
          if (mv) c = detail::class_of_tokens(index_, mv->type_tokens, cur);
        }
      }
    }
    if (c) locals[name] = Local{c, ""};
  }

  // Call handling: resolve receiver chain and method; emit call / block /
  // unlock / relock events.
  void handle_call(const FuncDef& f, ClassInfo* cur,
                   std::map<std::string, Local>& locals, std::vector<Ev>& evs,
                   std::size_t i, int depth) {
    const auto& t = toks(f);
    const std::string& name = t[i].text;
    const int line = t[i].line;

    // sleep_for / sleep_until, however qualified.
    if (name == "sleep_for" || name == "sleep_until") {
      Ev e{Ev::block, line, depth};
      e.desc = name;
      evs.push_back(e);
      return;
    }

    // Walk the receiver chain backwards: a . b -> name(
    std::vector<std::string> chain;
    std::size_t k = i;
    bool broken = false;
    while (k >= 2 && (t[k - 1].text == "." || t[k - 1].text == "->")) {
      if (!is_ident(t[k - 2])) {
        broken = true;  // foo(x)->bar(), arr[i].bar(): receiver unknowable
        break;
      }
      chain.insert(chain.begin(), t[k - 2].text);
      k -= 2;
    }
    bool qualified = !broken && chain.empty() && k >= 2 &&
                     t[k - 1].text == "::" && is_ident(t[k - 2]);

    // Guard manipulation: guard.unlock() / guard.lock().
    if (!broken && chain.size() == 1 && (name == "unlock" || name == "lock")) {
      std::string rank;
      auto lit = locals.find(chain[0]);
      if (lit != locals.end() && !lit->second.guard_rank.empty())
        rank = lit->second.guard_rank;
      else if (cur) {
        const MemberVar* mv = index_.find_member(cur, chain[0]);
        if (mv && !mv->guard_rank.empty()) rank = mv->guard_rank;
      }
      if (!rank.empty()) {
        Ev e{name == "unlock" ? Ev::unlock : Ev::relock, line, depth};
        e.rank = rank;
        evs.push_back(e);
        return;
      }
    }

    if (broken) return;

    // Resolve the receiver class, if any.
    ClassInfo* recv = nullptr;
    bool have_recv = false;
    if (!chain.empty()) {
      std::string first = chain.front();
      if (first == "this") {
        recv = cur;
      } else {
        auto lit = locals.find(first);
        if (lit != locals.end() && lit->second.cls) recv = lit->second.cls;
        if (!recv) {
          auto pit = f.params.find(first);
          if (pit != f.params.end())
            recv = detail::class_of_tokens(index_, pit->second, cur);
        }
        if (!recv && cur) {
          const MemberVar* mv = index_.find_member(cur, first);
          if (mv) {
            // CondVar wait through a member: cv_.wait_until(lock, ...).
            if (chain.size() == 1 && mv->condvar &&
                wait_methods().count(name)) {
              Ev e{Ev::block, line, depth};
              e.desc = chain[0] + "." + name;
              e.exempt = wait_exempt_rank(f, locals, cur, i + 1);
              evs.push_back(e);
              return;
            }
            recv = detail::class_of_tokens(index_, mv->type_tokens, cur);
          }
        }
        if (!recv) {
          // Unresolvable first element: give up on this chain.
          have_recv = false;
          recv = nullptr;
        }
      }
      // Later chain elements are members of the previous class.
      for (std::size_t c = 1; recv && c < chain.size(); ++c) {
        const MemberVar* mv = index_.find_member(recv, chain[c]);
        recv = mv ? detail::class_of_tokens(index_, mv->type_tokens, cur)
                  : nullptr;
      }
      have_recv = recv != nullptr;
      if (!have_recv) return;  // ambiguous receiver: skip, never guess
    } else if (qualified) {
      recv = index_.class_named(t[k - 2].text, cur);
      if (!recv) return;  // std::..., dbg::... — outside the model
      have_recv = true;
    }

    // Local CondVar? (none in tree, but fixtures use them)
    std::vector<FuncDef*> targets;
    if (have_recv) {
      collect_method_defs(recv, name, targets);
    } else {
      // Bare name: method of the enclosing class (incl. bases/overrides),
      // else a uniquely-named free function, else uniquely named overall.
      if (cur) collect_method_defs(cur, name, targets);
      if (targets.empty()) {
        auto r = index_.funcs_by_cls.equal_range({std::string(), name});
        for (auto it = r.first; it != r.second; ++it)
          targets.push_back(it->second);
      }
      if (targets.empty()) {
        // unique across the program?
        auto r = index_.funcs_by_name.equal_range(name);
        std::size_t cnt = std::distance(r.first, r.second);
        if (cnt == 1) targets.push_back(r.first->second);
      }
    }
    if (targets.empty()) return;
    Ev e{Ev::call, line, depth};
    e.targets = std::move(targets);
    e.desc = qual_name(*e.targets.front());
    evs.push_back(e);
  }

  // First argument of a condvar wait: the guard it releases.
  std::string wait_exempt_rank(const FuncDef& f,
                               const std::map<std::string, Local>& locals,
                               ClassInfo* cur, std::size_t lparen) {
    const auto& t = toks(f);
    if (lparen + 1 >= f.body_close || !is_ident(t[lparen + 1])) return "";
    const std::string& arg = t[lparen + 1].text;
    auto lit = locals.find(arg);
    if (lit != locals.end()) return lit->second.guard_rank;
    if (cur) {
      const MemberVar* mv = index_.find_member(cur, arg);
      if (mv) return mv->guard_rank;
    }
    return "";
  }

  // Definitions of Class::name: the class itself, its bases (inherited
  // methods), and every override in derived classes (virtual dispatch is
  // over-approximated by including all of them).
  void collect_method_defs(ClassInfo* cls, const std::string& name,
                           std::vector<FuncDef*>& out, int depth = 0) {
    if (!cls || depth > 6) return;
    auto add = [&](ClassInfo* c) {
      auto r = index_.funcs_by_cls.equal_range({c->name, name});
      for (auto it = r.first; it != r.second; ++it) {
        if (std::find(out.begin(), out.end(), it->second) == out.end())
          out.push_back(it->second);
      }
    };
    add(cls);
    // Derived overrides (any class transitively deriving from cls that
    // declares `name`).
    for (auto& [short_name, cand] : index_.classes_by_name) {
      (void)short_name;
      for (ClassInfo* d : cand) {
        if (d != cls && d->method_decls.count(name) &&
            index_.class_derives_from(d, cls))
          add(d);
      }
    }
    if (!out.empty()) return;
    for (const std::string& b : cls->bases)
      collect_method_defs(index_.class_named(b, nullptr), name, out,
                          depth + 1);
  }

  // --- fixpoint over may-acquire / may-block summaries --------------------

  void seed_policy_blocking() {
    for (FuncDef& f : index_.funcs) {
      if (policy_blocking(f.cls, f.name)) {
        f.may_block = true;
        block_reason_[&f] = qual_name(f) + " blocks by policy (backpressure)";
      }
    }
  }

  void fixpoint() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (FuncDef& f : index_.funcs) {
        std::size_t before = f.may_acquire.size();
        bool blocked = f.may_block;
        for (auto& [rank, line] : f.init_acquires) {
          (void)line;
          f.may_acquire.insert(rank);
        }
        auto evit = events_.find(&f);
        if (evit != events_.end()) {
          for (const Ev& e : evit->second) {
            switch (e.kind) {
              case Ev::guard_open:
              case Ev::relock:
                f.may_acquire.insert(e.rank);
                break;
              case Ev::scope_open:
                f.may_acquire.insert(e.ranks.begin(), e.ranks.end());
                for (FuncDef* d : e.targets) {
                  f.may_acquire.insert(d->may_acquire.begin(),
                                       d->may_acquire.end());
                  if (d->may_block && !f.may_block) {
                    f.may_block = true;
                    block_reason_[&f] = "destroys " + e.desc + ", " +
                                        reason_of(d);
                  }
                }
                break;
              case Ev::call:
                for (FuncDef* d : e.targets) {
                  f.may_acquire.insert(d->may_acquire.begin(),
                                       d->may_acquire.end());
                  if (d->may_block && !f.may_block) {
                    f.may_block = true;
                    block_reason_[&f] =
                        "calls " + qual_name(*d) + ", " + reason_of(d);
                  }
                }
                break;
              case Ev::block:
                if (!f.may_block) {
                  f.may_block = true;
                  block_reason_[&f] = "waits at " + e.desc;
                }
                break;
              default:
                break;
            }
          }
        }
        if (f.may_acquire.size() != before || f.may_block != blocked)
          changed = true;
      }
    }
  }

  std::string reason_of(const FuncDef* f) {
    auto it = block_reason_.find(f);
    return it == block_reason_.end() ? std::string("which may block")
                                     : it->second;
  }

  // --- final walk: edges + same-rank + blocking-under-lock ----------------

  struct Held {
    std::string rank;
    int line = 0;
    int depth = 0;

    Held() = default;
    Held(std::string r, int l, int d) : rank(std::move(r)), line(l), depth(d) {}

    bool scope = false;               // scope-guard object
    std::vector<std::string> ranks;   // live ranks of a scope object
    std::vector<FuncDef*> dtors;
    std::string desc;

    std::vector<std::string> live_ranks() const {
      if (scope) return ranks;
      return {rank};
    }
  };

  void add_edge(const std::string& from, const std::string& to,
                const FuncDef& f, int line, int holder_line,
                const std::string& via) {
    EdgeKey key{from, to};
    if (edges.count(key)) return;
    edges[key] = EdgeInfo{f.sf->display, line, holder_line, via, qual_name(f)};
  }

  void walk_edges(FuncDef& f) {
    auto evit = events_.find(&f);
    std::vector<Held> held;
    ClassInfo* cur = index_.class_named(f.cls, nullptr);
    // A scope-guard destructor runs with its member-guard ranks held.
    if (!f.name.empty() && f.name[0] == '~' && cur)
      for (const std::string& r : cur->scope_guard_ranks)
        held.push_back(Held{r, f.line, 0});
    // Constructor init-list acquisitions, in order.
    for (auto& [rank, line] : f.init_acquires) {
      acquire(f, held, rank, line, 0);
    }
    if (evit == events_.end()) return;
    for (const Ev& e : evit->second) {
      switch (e.kind) {
        case Ev::guard_open:
        case Ev::relock:
          acquire(f, held, e.rank, e.line, e.depth);
          break;
        case Ev::scope_open: {
          for (const std::string& r : e.ranks) acquire(f, held, r, e.line,
                                                       e.depth);
          // Collapse the pushed entries into one scope record so the
          // destructor edges can be computed at close.
          for (std::size_t n = 0; n < e.ranks.size(); ++n) held.pop_back();
          Held h;
          h.rank = e.ranks.empty() ? "" : e.ranks.front();
          h.ranks = e.ranks;
          h.line = e.line;
          h.depth = e.depth;
          h.scope = true;
          h.dtors = e.targets;
          h.desc = e.desc;
          held.push_back(h);
          break;
        }
        case Ev::brace_close: {
          // Pop everything opened at this depth; scope objects run their
          // destructors against what remains held.
          std::vector<Held> closing;
          while (!held.empty() && held.back().depth >= e.depth) {
            closing.push_back(held.back());
            held.pop_back();
          }
          for (const Held& h : closing) {
            if (!h.scope) continue;
            for (FuncDef* d : h.dtors) {
              for (const Held& outer : held)
                for (const std::string& hr : outer.live_ranks())
                  for (const std::string& r : d->may_acquire)
                    add_edge(hr, r, f, e.line, outer.line, "~" + h.desc);
              if (d->may_block && !held.empty())
                report(findings_, *f.sf, h.line, "blocking-under-lock",
                       "destroying " + h.desc + " may block (" +
                           reason_of(d) + ") while holding " +
                           held_names(held));
            }
          }
          break;
        }
        case Ev::unlock:
          release(held, e.rank);
          break;
        case Ev::call: {
          if (held.empty()) break;
          for (FuncDef* d : e.targets) {
            for (const std::string& r : d->may_acquire)
              for (const Held& h : held)
                for (const std::string& hr : h.live_ranks())
                  add_edge(hr, r, f, e.line, h.line, e.desc);
            if (d->may_block)
              report(findings_, *f.sf, e.line, "blocking-under-lock",
                     "call to " + e.desc + " may block (" + reason_of(d) +
                         ") while holding " + held_names(held));
          }
          break;
        }
        case Ev::block: {
          // The wait releases its own lock; anything else held is a bug.
          bool other = false;
          for (const Held& h : held)
            for (const std::string& hr : h.live_ranks())
              if (hr != e.exempt) other = true;
          if (other)
            report(findings_, *f.sf, e.line, "blocking-under-lock",
                   "blocking wait " + e.desc + " while holding " +
                       held_names(held, e.exempt));
          break;
        }
        default:
          break;
      }
    }
  }

  void acquire(FuncDef& f, std::vector<Held>& held, const std::string& rank,
               int line, int depth) {
    for (const Held& h : held) {
      for (const std::string& hr : h.live_ranks()) {
        add_edge(hr, rank, f, line, h.line, "");
        if (hr == rank)
          report(findings_, *f.sf, line, "same-rank",
                 "acquires rank '" + rank + "' while already holding it "
                 "(taken at line " + std::to_string(h.line) +
                 "); runtime lockdep aborts on this path");
      }
    }
    held.push_back(Held{rank, line, depth});
  }

  void release(std::vector<Held>& held, const std::string& rank) {
    for (auto it = held.rbegin(); it != held.rend(); ++it) {
      if (!it->scope && it->rank == rank) {
        held.erase(std::next(it).base());
        return;
      }
      if (it->scope) {
        auto& rs = it->ranks;
        auto f = std::find(rs.begin(), rs.end(), rank);
        if (f != rs.end()) {
          rs.erase(f);
          return;
        }
      }
    }
  }

  static std::string held_names(const std::vector<Held>& held,
                                const std::string& exempt = "") {
    std::string out;
    for (const Held& h : held)
      for (const std::string& r : h.live_ranks()) {
        if (r == exempt) continue;
        if (!out.empty()) out += ", ";
        out += r;
      }
    return out.empty() ? std::string("(released)") : out;
  }

  // --- rank-cycle detection over the static edge graph --------------------

  void rule_cycles() {
    // DFS from every rank; report each cycle once (smallest rotation).
    std::map<std::string, std::vector<std::string>> adj;
    for (auto& [key, info] : edges) {
      (void)info;
      if (key.first != key.second) adj[key.first].push_back(key.second);
    }
    std::set<std::string> reported;
    for (auto& [start, outs] : adj) {
      (void)outs;
      std::vector<std::string> path{start};
      std::set<std::string> on_path{start};
      dfs_cycle(start, start, path, on_path, adj, reported);
    }
  }

  void dfs_cycle(const std::string& start, const std::string& at,
                 std::vector<std::string>& path, std::set<std::string>& on,
                 std::map<std::string, std::vector<std::string>>& adj,
                 std::set<std::string>& reported) {
    auto it = adj.find(at);
    if (it == adj.end()) return;
    for (const std::string& next : it->second) {
      if (next == start && path.size() > 1) {
        // Canonical form: rotate so the lexicographically smallest rank
        // leads, to report each cycle once.
        std::vector<std::string> cyc = path;
        auto mn = std::min_element(cyc.begin(), cyc.end());
        std::rotate(cyc.begin(), mn, cyc.end());
        std::string key;
        for (auto& r : cyc) key += r + ">";
        if (!reported.insert(key).second) continue;
        std::string msg = "static lock-order cycle: ";
        for (auto& r : cyc) msg += r + " -> ";
        msg += cyc.front() + "; edges:";
        for (std::size_t i = 0; i < cyc.size(); ++i) {
          const EdgeInfo& e = edges[{cyc[i], cyc[(i + 1) % cyc.size()]}];
          msg += " [" + cyc[i] + "->" + cyc[(i + 1) % cyc.size()] + " at " +
                 e.file + ":" + std::to_string(e.line) +
                 (e.via.empty() ? "" : " via " + e.via) + "]";
        }
        const EdgeInfo& anchor = edges[{cyc[0], cyc[1 % cyc.size()]}];
        // Anchor the finding at one edge's source file.
        Finding fd;
        fd.file = anchor.file;
        fd.line = anchor.line;
        fd.rule = "lock-cycle";
        fd.message = msg;
        findings_.push_back(fd);
        continue;
      }
      if (on.count(next)) continue;
      on.insert(next);
      path.push_back(next);
      dfs_cycle(start, next, path, on, adj, reported);
      path.pop_back();
      on.erase(next);
    }
  }

};

// --- non-flow rules --------------------------------------------------------

void rule_rank_unused(const Index& index, std::vector<Finding>& out) {
  if (!index.rank_file) return;
  for (const std::string& r : index.rank_names) {
    if (index.instantiated_ranks.count(r)) continue;
    const SourceFile& sf = *index.rank_file;
    int line = index.rank_lines.count(r) ? index.rank_lines.at(r) : 1;
    report(out, sf, line, "rank-unused",
           "rank '" + r +
               "' is never instantiated as Mutex<Rank::" + r +
               ">/SharedMutex<Rank::" + r +
               "> — dead rank or missing lock (waive if reserved)");
  }
}

// --- lock rules, per file --------------------------------------------------

void rule_raw_mutex(const SourceFile& sf, std::vector<Finding>& out) {
  static const std::set<std::string> kRawLockTypes = {
      "mutex",       "shared_mutex",       "recursive_mutex",
      "timed_mutex", "shared_timed_mutex", "recursive_timed_mutex",
      "lock_guard",  "unique_lock",        "shared_lock",
      "scoped_lock", "condition_variable", "condition_variable_any"};
  const auto& t = sf.lex.tokens;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (is_ident(t[i]) && t[i].text == "std" && t[i + 1].text == "::" &&
        is_ident(t[i + 2]) && kRawLockTypes.count(t[i + 2].text))
      report(out, sf, t[i].line, "raw-mutex",
             "std::" + t[i + 2].text +
                 " — a lock the rank graph and lockdep cannot see; use the "
                 "ranked yanc::dbg wrappers and guards (docs/CORRECTNESS.md)");
  }
}

void rule_manual_lock(const SourceFile& sf, std::vector<Finding>& out) {
  static const std::set<std::string> kManualLockCalls = {
      "lock", "unlock", "try_lock", "lock_shared", "unlock_shared",
      "try_lock_shared"};
  const auto& t = sf.lex.tokens;
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    if (!is_ident(t[i]) || !kManualLockCalls.count(t[i].text)) continue;
    if (t[i - 1].text != "." && t[i - 1].text != "->") continue;
    if (t[i + 1].text != "(") continue;
    report(out, sf, t[i].line, "manual-lock",
           "." + t[i].text +
               "() — acquire through RAII guards (dbg::LockGuard/"
               "UniqueLock/SharedLock) so every exit path releases");
  }
}

// --- file rules -------------------------------------------------------------

void rule_banned_function(const SourceFile& sf, std::vector<Finding>& out) {
  static const std::set<std::string> kBannedFunctions = {
      "sprintf", "vsprintf", "strcpy", "strcat", "strtok",
      "gmtime",  "localtime", "rand",  "srand",  "rand_r"};
  // `int rand(...)` is a declaration of a project function, not a call; a
  // call is never directly preceded by a plain identifier unless that
  // identifier is a statement keyword.
  static const std::set<std::string> kCallKeywords = {
      "return", "co_return", "co_await", "co_yield", "throw",
      "else",   "do",        "case"};
  const auto& t = sf.lex.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_ident(t[i]) || !kBannedFunctions.count(t[i].text)) continue;
    if (t[i + 1].text != "(") continue;
    if (i > 0) {
      const std::string& prev = t[i - 1].text;
      if (prev == "." || prev == "->") continue;  // member of another type
      if (is_ident(t[i - 1]) && !kCallKeywords.count(prev)) continue;
      if (prev == "::") {
        // std::rand is as banned as ::rand; other qualifiers name project
        // functions that merely share the name.
        bool std_qualified =
            i >= 2 && is_ident(t[i - 2]) && t[i - 2].text == "std";
        bool global_qualified = i < 2 || !is_ident(t[i - 2]);
        if (!std_qualified && !global_qualified) continue;
      }
    }
    report(out, sf, t[i].line, "banned-function",
           t[i].text +
               "() is banned (non-reentrant/unbounded); use the yanc "
               "equivalents (util::Rng, strings.hpp, snprintf)");
  }
}

void rule_pragma_once(const SourceFile& sf, std::vector<Finding>& out) {
  if (!sf.is_header) return;
  for (const Token& tok : sf.lex.tokens) {
    if (tok.kind == TokKind::preproc &&
        tok.text.find("pragma") != std::string::npos &&
        tok.text.find("once") != std::string::npos)
      return;
  }
  report(out, sf, 1, "pragma-once",
         "header without #pragma once (every yanc header is include-guarded "
         "this way)");
}

/// Blocking calls that must not run under a live obs::Span guard: the
/// guard measures *service* time, and a wait inside it books queue time
/// as work, corrupting the per-stage attribution `/yanc/.trace` reports.
void rule_span_wait(const SourceFile& sf, std::vector<Finding>& out) {
  static const std::set<std::string> kBlockingWaits = {
      "pop_wait", "wait", "wait_for", "wait_until",
      "sleep",    "sleep_for", "sleep_until"};
  const auto& t = sf.lex.tokens;
  struct OpenSpan {
    int depth;
    int line;
    std::string name;
  };
  std::vector<OpenSpan> open;
  int depth = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == "{") {
      ++depth;
      continue;
    }
    if (s == "}") {
      // Guards declared in the closing scope are destroyed here.
      while (!open.empty() && open.back().depth >= depth) open.pop_back();
      --depth;
      continue;
    }
    if (!is_ident(t[i])) continue;
    // A guard declaration: `obs :: Span name (` inside a function body.
    // The qualifier requirement keeps `Span make();` member declarations
    // (the most-vexing-parse twin) from registering phantom guards.
    if (s == "Span" && depth >= 1 && i >= 2 && i + 2 < t.size() &&
        t[i - 2].text == "obs" && t[i - 1].text == "::" &&
        is_ident(t[i + 1]) && t[i + 2].text == "(") {
      open.push_back({depth, t[i].line, t[i + 1].text});
      continue;
    }
    bool blocking = s == "co_await" || s == "co_yield";
    if (!blocking && kBlockingWaits.count(s) && i + 1 < t.size() &&
        t[i + 1].text == "(")
      blocking = true;
    if (blocking && !open.empty())
      report(out, sf, t[i].line, "span-wait",
             s + " while span guard '" + open.back().name + "' (line " +
                 std::to_string(open.back().line) +
                 ") is live — the wait is booked as service time; close "
                 "the span first or measure the wait as queue_ns");
  }
}

void rule_include_cycle(const std::deque<SourceFile>& files,
                        const fs::path& root, std::vector<Finding>& out) {
  static const std::regex kInclude(R"(#\s*include\s+\"([^\"]+)\")");
  // Graph over headers only (a cycle must pass exclusively through them).
  std::map<std::string, const SourceFile*> by_canonical;
  for (const auto& sf : files) {
    if (!sf.is_header) continue;
    std::error_code ec;
    fs::path canon = fs::weakly_canonical(sf.path, ec);
    by_canonical[(ec ? fs::path(sf.path) : canon).generic_string()] = &sf;
  }
  std::map<std::string, std::vector<std::string>> edges;
  for (const auto& [canon, sf] : by_canonical) {
    for (const Token& tok : sf->lex.tokens) {
      std::smatch m;
      if (tok.kind != TokKind::preproc ||
          !std::regex_search(tok.text, m, kInclude))
        continue;
      const std::string inc = m[1].str();
      for (const fs::path& cand :
           {root / "src" / inc, fs::path(sf->path).parent_path() / inc}) {
        std::error_code ec;
        fs::path canon_inc = fs::weakly_canonical(cand, ec);
        if (ec) continue;
        std::string key = canon_inc.generic_string();
        if (by_canonical.count(key)) {
          edges[canon].push_back(key);
          break;
        }
      }
    }
  }
  // DFS with colour marking; report each cycle once.
  std::map<std::string, int> colour;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;
  std::set<std::string> reported;
  std::function<void(const std::string&)> dfs = [&](const std::string& u) {
    colour[u] = 1;
    stack.push_back(u);
    for (const std::string& v : edges[u]) {
      if (colour[v] == 1) {
        std::string cycle;
        for (auto it = std::find(stack.begin(), stack.end(), v);
             it != stack.end(); ++it)
          cycle += by_canonical[*it]->display + " -> ";
        cycle += by_canonical[v]->display;
        if (reported.insert(cycle).second)
          out.push_back(Finding{by_canonical[v]->display, 1, "include-cycle",
                                "header include cycle: " + cycle});
      } else if (colour[v] == 0) {
        dfs(v);
      }
    }
    stack.pop_back();
    colour[u] = 2;
  };
  for (const auto& [node, _] : by_canonical)
    if (colour[node] == 0) dfs(node);
}

// docs/CORRECTNESS.md rank table vs the enum: names, order, count.
void rule_doc_rank_drift(const Index& index, const std::string& doc_path,
                         std::vector<Finding>& out) {
  if (!index.rank_file || index.rank_names.empty()) return;
  std::ifstream in(doc_path);
  if (!in) {
    out.push_back(Finding{doc_path, 0, "doc-rank-drift",
                          "cannot open the rank-table document"});
    return;
  }
  std::vector<std::pair<std::string, int>> rows;  // (rank, line)
  std::string line;
  int lineno = 0;
  bool in_section = false, in_table = false;
  static const std::regex kRow(R"(^\|\s*`([A-Za-z_][A-Za-z0-9_]*)`)");
  while (std::getline(in, line)) {
    ++lineno;
    if (line.rfind("#", 0) == 0) {
      std::string lower = line;
      std::transform(lower.begin(), lower.end(), lower.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      in_section = lower.find("lock rank") != std::string::npos;
      in_table = false;
      continue;
    }
    if (!in_section) continue;
    std::smatch m;
    if (std::regex_search(line, m, kRow)) {
      std::string name = m[1].str();
      if (name == "Rank" || name == "rank") continue;  // header row
      rows.emplace_back(name, lineno);
      in_table = true;
    } else if (in_table && line.rfind("|", 0) != 0) {
      break;  // table ended
    }
  }
  if (rows.empty()) {
    out.push_back(Finding{doc_path, 0, "doc-rank-drift",
                          "no rank table found under a 'lock rank' heading"});
    return;
  }
  const auto& en = index.rank_names;
  std::size_t n = std::min(rows.size(), en.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (rows[i].first != en[i]) {
      out.push_back(Finding{
          doc_path, rows[i].second, "doc-rank-drift",
          "rank table row " + std::to_string(i + 1) + " is `" +
              rows[i].first + "` but the enum declares `" + en[i] +
              "` at this position — doc and dbg::Rank have drifted"});
      return;  // first divergence only; fixing it re-aligns the rest
    }
  }
  if (rows.size() != en.size())
    out.push_back(Finding{
        doc_path, rows.back().second, "doc-rank-drift",
        "rank table lists " + std::to_string(rows.size()) +
            " ranks but the enum declares " + std::to_string(en.size()) +
            " (kRankCount) — document every rank"});
}

// --- runtime-edge diff (lock coverage report) ------------------------------

struct Coverage {
  std::set<EdgeKey> static_edges, runtime_edges;
  std::vector<EdgeKey> static_only, runtime_only, common;
  bool loaded = false;
};

Coverage diff_runtime(const std::map<EdgeKey, EdgeInfo>& edges,
                      const std::string& path) {
  Coverage cov;
  for (auto& [k, v] : edges) {
    (void)v;
    cov.static_edges.insert(k);
  }
  std::ifstream in(path);
  if (!in) return cov;
  cov.loaded = true;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string held, acquired;
    if (!(ss >> held >> acquired)) continue;
    cov.runtime_edges.insert({held, acquired});
  }
  for (const EdgeKey& k : cov.static_edges) {
    if (cov.runtime_edges.count(k)) cov.common.push_back(k);
    else cov.static_only.push_back(k);
  }
  for (const EdgeKey& k : cov.runtime_edges)
    if (!cov.static_edges.count(k)) cov.runtime_only.push_back(k);
  return cov;
}

// --- output ----------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void print_json(const std::vector<Finding>& findings,
                const std::map<EdgeKey, EdgeInfo>& edges,
                const Coverage* cov) {
  std::printf("{\n  \"findings\": [");
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    std::printf("%s\n    {\"file\": \"%s\", \"line\": %d, \"rule\": \"%s\", "
                "\"message\": \"%s\"}",
                i ? "," : "", json_escape(f.file).c_str(), f.line,
                json_escape(f.rule).c_str(), json_escape(f.message).c_str());
  }
  std::printf("\n  ],\n  \"edges\": [");
  std::size_t i = 0;
  for (auto& [k, e] : edges) {
    std::printf("%s\n    {\"from\": \"%s\", \"to\": \"%s\", \"file\": "
                "\"%s\", \"line\": %d, \"func\": \"%s\", \"via\": \"%s\"}",
                i++ ? "," : "", json_escape(k.first).c_str(),
                json_escape(k.second).c_str(), json_escape(e.file).c_str(),
                e.line, json_escape(e.func).c_str(),
                json_escape(e.via).c_str());
  }
  std::printf("\n  ]");
  if (cov && cov->loaded) {
    std::printf(",\n  \"coverage\": {\"static\": %zu, \"runtime\": %zu, "
                "\"common\": %zu, \"static_only\": [",
                cov->static_edges.size(), cov->runtime_edges.size(),
                cov->common.size());
    for (std::size_t j = 0; j < cov->static_only.size(); ++j)
      std::printf("%s[\"%s\", \"%s\"]", j ? ", " : "",
                  cov->static_only[j].first.c_str(),
                  cov->static_only[j].second.c_str());
    std::printf("], \"runtime_only\": [");
    for (std::size_t j = 0; j < cov->runtime_only.size(); ++j)
      std::printf("%s[\"%s\", \"%s\"]", j ? ", " : "",
                  cov->runtime_only[j].first.c_str(),
                  cov->runtime_only[j].second.c_str());
    std::printf("]}");
  }
  std::printf("\n}\n");
}

void print_coverage(const std::map<EdgeKey, EdgeInfo>& edges,
                    const Coverage& cov) {
  std::printf("\n== lock coverage: static-possible vs runtime-observed ==\n");
  std::printf("static edges: %zu   runtime edges: %zu   exercised: %zu\n",
              cov.static_edges.size(), cov.runtime_edges.size(),
              cov.common.size());
  if (!cov.static_only.empty()) {
    std::printf(
        "\nstatically-reachable edges NO test exercised (%zu) — runtime\n"
        "lockdep has never validated these orderings:\n",
        cov.static_only.size());
    for (const EdgeKey& k : cov.static_only) {
      const EdgeInfo& e = edges.at(k);
      std::printf("  %-16s -> %-16s  %s:%d in %s%s%s\n", k.first.c_str(),
                  k.second.c_str(), e.file.c_str(), e.line, e.func.c_str(),
                  e.via.empty() ? "" : " via ",
                  e.via.empty() ? "" : e.via.c_str());
    }
  }
  if (!cov.runtime_only.empty()) {
    std::printf(
        "\nruntime-observed edges the analyzer did NOT derive (%zu) — "
        "static blind spots:\n",
        cov.runtime_only.size());
    for (const EdgeKey& k : cov.runtime_only)
      std::printf("  %-16s -> %-16s\n", k.first.c_str(), k.second.c_str());
  }
  std::printf("\n");
}

// --- driver ----------------------------------------------------------------

bool should_scan(const fs::path& p) {
  auto ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

std::string display_path(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(p, root, ec);
  std::string s = (ec || rel.empty()) ? p.generic_string()
                                      : rel.generic_string();
  return s;
}

int load_files(const std::vector<std::string>& paths, const fs::path& root,
               std::deque<SourceFile>& files) {
  std::vector<fs::path> found;
  for (const std::string& ps : paths) {
    fs::path p = fs::path(ps).is_absolute() ? fs::path(ps) : root / ps;
    std::error_code ec;
    if (fs::is_regular_file(p, ec)) {
      found.push_back(p);
    } else if (fs::is_directory(p, ec)) {
      for (auto it = fs::recursive_directory_iterator(p, ec);
           !ec && it != fs::recursive_directory_iterator(); ++it)
        if (it->is_regular_file() && should_scan(it->path()))
          found.push_back(it->path());
    } else {
      std::fprintf(stderr, "yanc-analyze: no such path: %s\n",
                   p.string().c_str());
      return 2;
    }
  }
  std::sort(found.begin(), found.end());
  for (const fs::path& p : found) {
    std::ifstream in(p, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "yanc-analyze: cannot read %s\n",
                   p.string().c_str());
      return 2;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string src = ss.str();
    files.push_back(SourceFile{});
    SourceFile& sf = files.back();
    sf.path = p.string();
    sf.display = display_path(p, root);
    sf.lex = lex(src);
    sf.is_header = p.extension() == ".hpp" || p.extension() == ".h";
    sf.lock_scope = sf.display.rfind("src/yanc/", 0) == 0;
    compute_matches(sf);
  }
  return 0;
}

struct RunResult {
  std::vector<Finding> findings;
  std::map<EdgeKey, EdgeInfo> edges;
};

RunResult run_analysis(std::deque<SourceFile>& files, const fs::path& root,
                       const std::string& doc_path) {
  RunResult rr;
  Index index;
  for (SourceFile& sf : files) {
    if (!sf.lock_scope) continue;
    Harvester h(sf, index);
    h.run();
  }
  Analyzer a(index, rr.findings);
  a.run();
  rr.edges = std::move(a.edges);
  rule_rank_unused(index, rr.findings);
  if (!doc_path.empty()) rule_doc_rank_drift(index, doc_path, rr.findings);
  for (const SourceFile& sf : files) {
    if (sf.lock_scope && !in_dbg_dir(sf)) {  // dbg/ wraps the primitives
      rule_raw_mutex(sf, rr.findings);
      rule_manual_lock(sf, rr.findings);
    }
    rule_banned_function(sf, rr.findings);
    rule_pragma_once(sf, rr.findings);
    rule_span_wait(sf, rr.findings);
  }
  rule_include_cycle(files, root, rr.findings);
  std::sort(rr.findings.begin(), rr.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return rr;
}

// --- self-test -------------------------------------------------------------

int self_test(const fs::path& fixtures_arg) {
  // Absolute from here on: load_files resolves relative paths against the
  // analysis root, and fixture paths already carry the directory prefix.
  fs::path fixtures = fs::absolute(fixtures_arg);
  if (!fs::is_directory(fixtures)) {
    std::fprintf(stderr, "yanc-analyze: not a directory: %s\n",
                 fixtures.string().c_str());
    return 2;
  }
  static const std::regex kName(R"(^([a-z_]+?)_(bad|ok)[0-9]*$)");
  int failures = 0, cases = 0;
  std::set<std::string> bad_rules, ok_rules;
  std::vector<fs::path> entries;
  for (const auto& de : fs::directory_iterator(fixtures))
    entries.push_back(de.path());
  std::sort(entries.begin(), entries.end());
  for (const fs::path& p : entries) {
    std::string stem = p.stem().string();
    std::smatch m;
    if (!std::regex_match(stem, m, kName)) {
      // A fixture that never runs is a test silently lost.
      ++failures;
      std::fprintf(stderr, "FAIL %s: not named <rule>_(bad|ok)[N]\n",
                   stem.c_str());
      continue;
    }
    std::string rule = m[1].str();
    std::replace(rule.begin(), rule.end(), '_', '-');
    bool expect_bad = m[2].str() == "bad";
    (expect_bad ? bad_rules : ok_rules).insert(rule);
    ++cases;

    std::deque<SourceFile> files;
    std::string doc;
    std::vector<std::string> paths;
    if (fs::is_directory(p)) {
      for (const auto& de : fs::directory_iterator(p)) {
        if (de.path().filename() == "CORRECTNESS.md")
          doc = de.path().string();
        else if (should_scan(de.path()))
          paths.push_back(de.path().string());
      }
    } else {
      paths.push_back(p.string());
    }
    if (load_files(paths, fixtures, files) != 0) {
      ++failures;
      continue;
    }
    for (SourceFile& sf : files) sf.lock_scope = true;
    RunResult rr = run_analysis(files, fixtures, doc);
    int hits = 0;
    for (const Finding& f : rr.findings)
      if (f.rule == rule) ++hits;
    bool pass = expect_bad ? hits > 0 : hits == 0;
    if (!pass) {
      ++failures;
      std::fprintf(stderr, "FAIL %s: expected %s finding(s) of '%s', got %d\n",
                   stem.c_str(), expect_bad ? ">0" : "0", rule.c_str(), hits);
      for (const Finding& f : rr.findings)
        std::fprintf(stderr, "  saw %s:%d [%s] %s\n", f.file.c_str(), f.line,
                     f.rule.c_str(), f.message.c_str());
    }
  }
  // An ok fixture passes vacuously for a rule that does not exist (a typo
  // in its name); a bad fixture of the same rule proves the rule fires.
  for (const std::string& rule : ok_rules) {
    if (bad_rules.count(rule)) continue;
    ++failures;
    std::fprintf(stderr, "FAIL %s: ok fixture without a bad one\n",
                 rule.c_str());
  }
  std::printf("yanc-analyze self-test: %d case(s), %d failure(s)\n", cases,
              failures);
  if (cases == 0) {
    std::fprintf(stderr, "yanc-analyze: no fixtures matched\n");
    return 2;
  }
  return failures ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::string doc, runtime_edges;
  bool json = false, dump_edges = false;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "yanc-analyze: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--self-test") {
      return self_test(need_value("--self-test"));
    } else if (arg == "--root") {
      root = need_value("--root");
    } else if (arg == "--doc") {
      doc = need_value("--doc");
    } else if (arg == "--runtime-edges") {
      runtime_edges = need_value("--runtime-edges");
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--dump-edges") {
      dump_edges = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: yanc-analyze [--root DIR] [--doc FILE] [--json]\n"
          "                    [--dump-edges] [--runtime-edges FILE]\n"
          "                    [paths...]     (default: src tests bench)\n"
          "       yanc-analyze --self-test <fixtures-dir>\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "yanc-analyze: unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) paths = {"src", "tests", "bench"};

  std::deque<SourceFile> files;
  if (int rc = load_files(paths, root, files)) return rc;
  if (files.empty()) {
    std::fprintf(stderr, "yanc-analyze: nothing to analyze\n");
    return 2;
  }

  RunResult rr = run_analysis(files, root, doc);
  Coverage cov;
  if (!runtime_edges.empty()) {
    cov = diff_runtime(rr.edges, runtime_edges);
    if (!cov.loaded)
      std::fprintf(stderr,
                   "yanc-analyze: warning: cannot read runtime edges %s\n",
                   runtime_edges.c_str());
  }

  if (json) {
    print_json(rr.findings, rr.edges,
               runtime_edges.empty() ? nullptr : &cov);
  } else {
    for (const Finding& f : rr.findings)
      std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                  f.message.c_str());
    if (dump_edges) {
      std::printf("# static acquired-while-held edges (%zu)\n",
                  rr.edges.size());
      for (auto& [k, e] : rr.edges)
        std::printf("%s %s  # %s:%d in %s%s%s\n", k.first.c_str(),
                    k.second.c_str(), e.file.c_str(), e.line, e.func.c_str(),
                    e.via.empty() ? "" : " via ",
                    e.via.empty() ? "" : e.via.c_str());
    }
    if (cov.loaded) print_coverage(rr.edges, cov);
    if (!rr.findings.empty())
      std::printf("yanc-analyze: %zu finding(s)\n", rr.findings.size());
  }
  return rr.findings.empty() ? 0 : 1;
}


// yanc-analyze symbol layer: grows the tokenizer (lexer.hpp) into the
// lightweight program model the static lock-order pass runs on.
//
// Pass 1 (this header) walks every file's token stream once and harvests:
//   * classes/structs: name, base classes, member variables with their
//     declared types — specifically which members are ranked mutexes
//     (dbg::Mutex<Rank::X>), condition variables (dbg::CondVar), or member
//     lock guards (dbg::UniqueLock<...> held for the object's lifetime,
//     which makes the class a *scope guard* — MemFs::MutationScope);
//   * type aliases (using X = ...), resolved transitively so
//     `WatchQueuePtr` reads as `WatchQueue`;
//   * the dbg::Rank enum, in declaration order;
//   * every function/method *definition*: qualified name, parameter
//     types, body token range, constructor init-list acquisitions, and —
//     for accessors like MemFs::shard_of — a ranked-mutex return type.
//
// Deliberately NOT a compiler frontend, same contract as the lexer: no
// preprocessing, no overload resolution, no templates.  The consumer
// (yanc_analyze.cpp) compensates with an ambiguity-aware discipline: a
// name that cannot be resolved to exactly one plausible definition set is
// skipped, never guessed at.
#pragma once

#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace yancanalyze {

struct SourceFile {
  std::string path;     // as opened
  std::string display;  // relative to root, '/'-separated
  LexedFile lex;
  bool is_header = false;
  // Lock rules apply: library code under src/yanc/ (dbg/ included, for the
  // rank enum and wrappers), or every file of a self-test fixture.
  bool lock_scope = false;
  std::vector<int> brace_match;  // token index of matching {/} (-1 if none)
  std::vector<int> paren_match;  // token index of matching (/) (-1 if none)
};

struct MemberVar {
  std::vector<std::string> type_tokens;  // declared type, as written
  std::string mutex_rank;   // non-empty: ranked dbg::Mutex/SharedMutex member
  std::string guard_rank;   // non-empty: member lock guard (UniqueLock<...>)
  bool condvar = false;
  int line = 0;
};

struct ClassInfo {
  std::string name;  // short name (MutationScope)
  std::string qual;  // qualified (MemFs::MutationScope)
  const SourceFile* sf = nullptr;
  int line = 0;
  std::vector<std::string> bases;  // short names as written (MemFs)
  std::map<std::string, MemberVar> members;
  std::map<std::string, int> method_decls;  // declared-or-defined methods
  std::map<std::string, std::string> method_return_rank;
  // Ranks of member guards: constructing an instance acquires these and
  // holds them until destruction (the scope-guard pattern).
  std::vector<std::string> scope_guard_ranks;
};

struct FuncDef {
  std::string cls;   // short class name, "" for free functions
  std::string name;  // may start with '~'
  const SourceFile* sf = nullptr;
  int line = 0;
  std::size_t lparen = 0;     // token index of the parameter list '('
  std::size_t body_open = 0;  // token index of '{'
  std::size_t body_close = 0;
  std::map<std::string, std::vector<std::string>> params;  // name -> type
  // Constructor init-list entries that acquire a ranked mutex through a
  // member guard: (rank, line).
  std::vector<std::pair<std::string, int>> init_acquires;

  // Filled by the analysis passes (yanc_analyze.cpp):
  std::set<std::string> may_acquire;  // ranks possibly acquired during call
  bool may_block = false;             // may park the calling thread
  bool visited = false;
};

struct Index {
  std::deque<ClassInfo> classes;
  std::map<std::string, std::vector<ClassInfo*>> classes_by_name;
  std::map<std::string, std::vector<std::string>> aliases;
  std::deque<FuncDef> funcs;
  std::multimap<std::pair<std::string, std::string>, FuncDef*> funcs_by_cls;
  std::multimap<std::string, FuncDef*> funcs_by_name;
  // dbg::Rank enum, in declaration order, with the line each enumerator
  // was declared on (for rank-unused reporting and doc diffing).
  std::vector<std::string> rank_names;
  std::map<std::string, int> rank_lines;
  const SourceFile* rank_file = nullptr;
  // Ranks that appear as a Mutex<Rank::X>/SharedMutex<Rank::X> template
  // argument anywhere in the scanned set.
  std::set<std::string> instantiated_ranks;

  ClassInfo* class_named(const std::string& short_name,
                         const ClassInfo* context) const {
    auto it = classes_by_name.find(short_name);
    if (it == classes_by_name.end() || it->second.empty()) return nullptr;
    if (it->second.size() == 1) return it->second.front();
    // Ambiguous short name (several nested `Node` structs): prefer the one
    // nested inside the context class, else give up rather than guess.
    if (context) {
      for (ClassInfo* c : it->second)
        if (c->qual == context->qual + "::" + short_name) return c;
    }
    return nullptr;
  }

  const MemberVar* find_member(const ClassInfo* cls, const std::string& name,
                               const ClassInfo** owner = nullptr,
                               int depth = 0) const {
    if (!cls || depth > 6) return nullptr;
    auto it = cls->members.find(name);
    if (it != cls->members.end()) {
      if (owner) *owner = cls;
      return &it->second;
    }
    for (const std::string& base : cls->bases)
      if (const MemberVar* m = find_member(class_named(base, nullptr), name,
                                           owner, depth + 1))
        return m;
    return nullptr;
  }

  bool class_derives_from(const ClassInfo* derived, const ClassInfo* base,
                          int depth = 0) const {
    if (!derived || depth > 6) return false;
    for (const std::string& b : derived->bases) {
      ClassInfo* bc = class_named(b, nullptr);
      if (bc == base || class_derives_from(bc, base, depth + 1)) return true;
    }
    return false;
  }
};

namespace detail {

inline bool is_ident(const Token& t) { return t.kind == TokKind::identifier; }

inline const std::set<std::string>& control_keywords() {
  static const std::set<std::string> k = {
      "if",     "while", "for",    "switch", "catch",  "return",
      "sizeof", "else",  "do",     "case",   "static_assert",
      "alignof", "decltype", "new", "delete", "throw", "assert"};
  return k;
}

/// Names that must never be alias-expanded: lockdep.hpp's release branch
/// defines `using Mutex = std::mutex;` etc., and expanding through those
/// would erase the very spellings the rank scanner keys on.
inline bool reserved_type_name(const std::string& t) {
  return t == "Mutex" || t == "SharedMutex" || t == "LockGuard" ||
         t == "UniqueLock" || t == "SharedLock" || t == "CondVar" ||
         t == "Rank";
}

/// Expands alias chains: `WatchQueuePtr` -> tokens of its definition.
/// Bounded depth; cycles terminate.
inline void expand_type_tokens(const Index& index,
                               const std::vector<std::string>& in,
                               std::vector<std::string>& out, int depth = 0) {
  for (const std::string& t : in) {
    auto it = index.aliases.find(t);
    if (it != index.aliases.end() && depth < 4 && !reserved_type_name(t))
      expand_type_tokens(index, it->second, out, depth + 1);
    else
      out.push_back(t);
  }
}

/// Rank named by a Mutex<...Rank::X...>/SharedMutex<...> type spelling,
/// or "" when the tokens name no ranked mutex.
inline std::string rank_of_tokens(const Index& index,
                                  const std::vector<std::string>& raw) {
  std::vector<std::string> toks;
  expand_type_tokens(index, raw, toks);
  bool saw_mutex = false;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i] == "Mutex" || toks[i] == "SharedMutex") saw_mutex = true;
    if (saw_mutex && toks[i] == "Rank" && i + 2 < toks.size() &&
        toks[i + 1] == "::")
      return toks[i + 2];
  }
  return "";
}

inline bool tokens_contain(const std::vector<std::string>& toks,
                           const char* what) {
  for (const auto& t : toks)
    if (t == what) return true;
  return false;
}

/// First project class a type spelling mentions (alias-expanded):
/// `std::vector<WatchQueuePtr>` -> WatchQueue.
inline ClassInfo* class_of_tokens(const Index& index,
                                  const std::vector<std::string>& raw,
                                  const ClassInfo* context) {
  std::vector<std::string> toks;
  expand_type_tokens(index, raw, toks);
  for (const std::string& t : toks)
    if (ClassInfo* c = index.class_named(t, context)) return c;
  return nullptr;
}

}  // namespace detail

/// Computes brace/paren matchings for a lexed file.
inline void compute_matches(SourceFile& sf) {
  const auto& t = sf.lex.tokens;
  sf.brace_match.assign(t.size(), -1);
  sf.paren_match.assign(t.size(), -1);
  std::vector<std::size_t> braces, parens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == "{") braces.push_back(i);
    else if (s == "}" && !braces.empty()) {
      sf.brace_match[i] = static_cast<int>(braces.back());
      sf.brace_match[braces.back()] = static_cast<int>(i);
      braces.pop_back();
    } else if (s == "(") parens.push_back(i);
    else if (s == ")" && !parens.empty()) {
      sf.paren_match[i] = static_cast<int>(parens.back());
      sf.paren_match[parens.back()] = static_cast<int>(i);
      parens.pop_back();
    }
  }
}

// --- pass 1: harvest one file into the index -------------------------------

class Harvester {
 public:
  Harvester(const SourceFile& sf, Index& index) : sf_(sf), index_(index) {}

  void run() {
    scan_instantiated_ranks();
    walk(0, sf_.lex.tokens.size(), /*cls=*/nullptr, /*qual_prefix=*/"");
  }

 private:
  const SourceFile& sf_;
  Index& index_;

  const std::vector<Token>& toks() const { return sf_.lex.tokens; }

  void scan_instantiated_ranks() {
    const auto& t = toks();
    for (std::size_t i = 0; i + 4 < t.size(); ++i) {
      if ((t[i].text == "Mutex" || t[i].text == "SharedMutex") &&
          t[i + 1].text == "<") {
        // Template argument list: find Rank::X within the next few tokens.
        for (std::size_t j = i + 2; j < t.size() && j < i + 10; ++j) {
          if (t[j].text == ">" || t[j].text == ";") break;
          if (t[j].text == "Rank" && j + 2 < t.size() &&
              t[j + 1].text == "::" && detail::is_ident(t[j + 2]))
            index_.instantiated_ranks.insert(t[j + 2].text);
        }
      }
    }
  }

  /// Splits [begin, end) on top-level `,` (paren/angle/brace aware).
  std::vector<std::pair<std::size_t, std::size_t>> split_commas(
      std::size_t begin, std::size_t end) const {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    int paren = 0, angle = 0, brace = 0;
    std::size_t start = begin;
    for (std::size_t i = begin; i < end; ++i) {
      const std::string& s = toks()[i].text;
      if (s == "(" || s == "[") ++paren;
      else if (s == ")" || s == "]") --paren;
      else if (s == "{") ++brace;
      else if (s == "}") --brace;
      else if (s == "<") ++angle;
      else if (s == ">") angle = angle > 0 ? angle - 1 : 0;
      else if (s == ">>") angle = angle > 1 ? angle - 2 : 0;
      else if (s == "," && paren == 0 && angle == 0 && brace == 0) {
        if (i > start) out.emplace_back(start, i);
        start = i + 1;
      }
    }
    if (end > start) out.emplace_back(start, end);
    return out;
  }

  /// Harvests the enumerators of `enum class Rank` bodies.
  void harvest_rank_enum(std::size_t body_open, std::size_t body_close) {
    bool take = true;  // at '{' or just after ','
    for (std::size_t i = body_open + 1; i < body_close; ++i) {
      const Token& t = toks()[i];
      if (t.text == ",") { take = true; continue; }
      if (take && detail::is_ident(t)) {
        index_.rank_names.push_back(t.text);
        index_.rank_lines[t.text] = t.line;
        take = false;
      } else if (t.text == "=") {
        take = false;  // skip explicit values until the next comma
      }
    }
    index_.rank_file = &sf_;
  }

  /// Member-variable declaration inside a class body: [begin, end) is the
  /// segment up to (not including) ';'.  Returns quietly on anything it
  /// cannot shape-match.
  void harvest_member_var(ClassInfo& cls, std::size_t begin, std::size_t end) {
    // Strip a trailing initializer: `= ...` or `{...}` at top level.
    int paren = 0, angle = 0;
    std::size_t stop = end;
    for (std::size_t i = begin; i < end; ++i) {
      const std::string& s = toks()[i].text;
      if (s == "(" || s == "[") ++paren;
      else if (s == ")" || s == "]") --paren;
      else if (s == "<") ++angle;
      else if (s == ">") angle = angle > 0 ? angle - 1 : 0;
      else if (s == ">>") angle = angle > 1 ? angle - 2 : 0;
      else if ((s == "=" || s == "{") && paren == 0 && angle == 0) {
        stop = i;
        break;
      }
    }
    if (stop <= begin) return;
    // Name: last identifier, skipping a trailing array extent.
    std::size_t k = stop;
    while (k > begin && (toks()[k - 1].text == "]" ||
                         toks()[k - 1].text == "[" ||
                         toks()[k - 1].kind == TokKind::number))
      --k;
    if (k == begin || !detail::is_ident(toks()[k - 1])) return;
    const Token& name_tok = toks()[k - 1];
    std::vector<std::string> type;
    for (std::size_t i = begin; i + 1 < k; ++i) type.push_back(toks()[i].text);
    if (type.empty()) return;
    MemberVar mv;
    mv.type_tokens = type;
    mv.line = name_tok.line;
    mv.mutex_rank = detail::rank_of_tokens(index_, type);
    if (mv.mutex_rank.empty()) {
      // keep it as a plain member
    } else if (detail::tokens_contain(type, "UniqueLock") ||
               detail::tokens_contain(type, "LockGuard") ||
               detail::tokens_contain(type, "SharedLock")) {
      mv.guard_rank = mv.mutex_rank;
      mv.mutex_rank.clear();
      cls.scope_guard_ranks.push_back(mv.guard_rank);
    }
    if (detail::tokens_contain(type, "CondVar") ||
        detail::tokens_contain(type, "condition_variable") ||
        detail::tokens_contain(type, "condition_variable_any"))
      mv.condvar = true;
    cls.members[name_tok.text] = std::move(mv);
  }

  /// Parameter list [lparen+1, rparen): name -> type tokens.
  void harvest_params(FuncDef& fn, std::size_t lparen, std::size_t rparen) {
    for (auto [b, e] : split_commas(lparen + 1, rparen)) {
      // Drop default argument.
      int paren = 0, angle = 0;
      std::size_t stop = e;
      for (std::size_t i = b; i < e; ++i) {
        const std::string& s = toks()[i].text;
        if (s == "(") ++paren;
        else if (s == ")") --paren;
        else if (s == "<") ++angle;
        else if (s == ">") angle = angle > 0 ? angle - 1 : 0;
        else if (s == "=" && paren == 0 && angle == 0) { stop = i; break; }
      }
      if (stop <= b || !detail::is_ident(toks()[stop - 1])) continue;
      std::vector<std::string> type;
      for (std::size_t i = b; i + 1 < stop; ++i)
        type.push_back(toks()[i].text);
      if (!type.empty()) fn.params[toks()[stop - 1].text] = std::move(type);
    }
  }

  /// Constructor init list [begin, end): record member-guard acquisitions,
  /// e.g. MutationScope's `lock_(fs.mu_)`.
  void harvest_init_list(FuncDef& fn, ClassInfo* cls, std::size_t begin,
                         std::size_t end) {
    if (!cls) return;
    for (auto [b, e] : split_commas(begin, end)) {
      if (e - b < 3 || !detail::is_ident(toks()[b])) continue;
      const std::string& member = toks()[b].text;
      auto it = cls->members.find(member);
      if (it == cls->members.end() || it->second.guard_rank.empty()) continue;
      fn.init_acquires.emplace_back(it->second.guard_rank, toks()[b].line);
    }
  }

  /// Walks [begin, end) at one scope level.  `cls` non-null inside a class
  /// body.  Function and enum bodies are skipped (recorded, not descended).
  void walk(std::size_t begin, std::size_t end, ClassInfo* cls,
            const std::string& qual_prefix) {
    std::size_t seg = begin;
    for (std::size_t i = begin; i < end; ++i) {
      const std::string& s = toks()[i].text;
      if (s == ";") {
        if (cls) harvest_class_decl(*cls, seg, i);
        else harvest_ns_decl(seg, i);
        seg = i + 1;
        continue;
      }
      if (detail::is_ident(toks()[i]) &&
          (s == "public" || s == "private" || s == "protected") &&
          i + 1 < end && toks()[i + 1].text == ":") {
        seg = i + 2;
        ++i;
        continue;
      }
      if (s != "{") continue;
      int close = sf_.brace_match[i];
      std::size_t body_close =
          close < 0 ? end : static_cast<std::size_t>(close);
      classify_and_descend(seg, i, body_close, cls, qual_prefix);
      i = body_close;
      seg = body_close + 1;
    }
  }

  void classify_and_descend(std::size_t seg, std::size_t brace,
                            std::size_t body_close, ClassInfo* cls,
                            const std::string& qual_prefix) {
    // Scan the declaration segment.
    bool has_namespace = false, has_enum = false;
    std::size_t class_kw = SIZE_MAX;
    std::size_t first_paren = SIZE_MAX;
    int paren = 0, angle = 0;
    for (std::size_t i = seg; i < brace; ++i) {
      const std::string& s = toks()[i].text;
      if (s == "(") {
        if (paren == 0 && angle == 0 && first_paren == SIZE_MAX)
          first_paren = i;
        ++paren;
      } else if (s == ")") --paren;
      else if (s == "<") ++angle;
      else if (s == ">") angle = angle > 0 ? angle - 1 : 0;
      else if (s == ">>") angle = angle > 1 ? angle - 2 : 0;
      else if (paren == 0 && angle == 0 && detail::is_ident(toks()[i])) {
        if (s == "namespace") has_namespace = true;
        else if (s == "enum") has_enum = true;
        else if ((s == "class" || s == "struct" || s == "union") &&
                 class_kw == SIZE_MAX && !has_enum)
          class_kw = i;
      }
    }
    if (has_namespace) {
      walk(brace + 1, body_close, nullptr, qual_prefix);
      return;
    }
    if (has_enum) {
      // enum [class] Name [: base] { ... }
      std::string name;
      for (std::size_t i = seg; i < brace; ++i)
        if (detail::is_ident(toks()[i]) && toks()[i].text != "enum" &&
            toks()[i].text != "class" && toks()[i].text != "struct")
          { name = toks()[i].text; break; }
      if (name == "Rank") harvest_rank_enum(brace, body_close);
      return;
    }
    if (class_kw != SIZE_MAX) {
      // class/struct Name [final] [: bases] { ... }
      std::string name;
      std::size_t name_idx = SIZE_MAX;
      for (std::size_t i = class_kw + 1; i < brace; ++i) {
        if (toks()[i].text == ":" || toks()[i].text == "{") break;
        if (detail::is_ident(toks()[i]) && toks()[i].text != "final" &&
            toks()[i].text != "alignas") {
          name = toks()[i].text;
          name_idx = i;
        }
      }
      if (name.empty()) {  // anonymous struct: walk as plain block
        walk(brace + 1, body_close, cls, qual_prefix);
        return;
      }
      index_.classes.push_back(ClassInfo{});
      ClassInfo& ci = index_.classes.back();
      ci.name = name;
      ci.qual = qual_prefix.empty() ? name : qual_prefix + "::" + name;
      ci.sf = &sf_;
      ci.line = toks()[class_kw].line;
      // Bases: after the first top-level ':' that is not '::'.
      for (std::size_t i = name_idx + 1; i < brace; ++i) {
        if (toks()[i].text != ":") continue;
        for (auto [b, e] : split_commas(i + 1, brace)) {
          std::string last;
          for (std::size_t k = b; k < e; ++k) {
            const std::string& bs = toks()[k].text;
            if (detail::is_ident(toks()[k]) && bs != "public" &&
                bs != "protected" && bs != "private" && bs != "virtual")
              last = bs;
            if (bs == "<") break;  // template base: take the template name
          }
          if (!last.empty()) ci.bases.push_back(last);
        }
        break;
      }
      index_.classes_by_name[name].push_back(&ci);
      walk(brace + 1, body_close, &ci, ci.qual);
      return;
    }
    if (first_paren != SIZE_MAX) {
      harvest_function(seg, first_paren, brace, body_close, cls);
      return;
    }
    // Anything else (initializer braces, extern "C", try blocks at odd
    // levels): don't descend — nothing harvestable at this layer.
  }

  void harvest_function(std::size_t seg, std::size_t lparen,
                        std::size_t brace, std::size_t body_close,
                        ClassInfo* cls) {
    // Name tokens immediately before '(': [~]name, optionally qualified.
    std::size_t k = lparen;
    if (k == seg || !detail::is_ident(toks()[k - 1])) return;  // operator etc.
    std::string name = toks()[k - 1].text;
    if (name == "operator") return;
    std::size_t name_idx = k - 1;
    if (detail::control_keywords().count(name)) return;
    if (name_idx > seg && toks()[name_idx - 1].text == "~") name = "~" + name;
    // Qualifiers: A :: B :: name — class is the last qualifier component.
    std::string owner = cls ? cls->name : "";
    std::size_t q = name_idx;
    if (q > seg && toks()[q - 1].text == "~") --q;
    while (q >= seg + 2 && toks()[q - 1].text == "::" &&
           detail::is_ident(toks()[q - 2])) {
      if (owner.empty() || q == name_idx || toks()[q - 1].text == "::")
        owner = toks()[q - 2].text;
      q -= 2;
      break;  // nearest qualifier is the owning class
    }
    int rp = sf_.paren_match[lparen];
    if (rp < 0 || static_cast<std::size_t>(rp) > brace) return;
    auto rparen = static_cast<std::size_t>(rp);

    index_.funcs.push_back(FuncDef{});
    FuncDef& fn = index_.funcs.back();
    fn.cls = owner;
    fn.name = name;
    fn.sf = &sf_;
    fn.line = toks()[name_idx].line;
    fn.lparen = lparen;
    fn.body_open = brace;
    fn.body_close = body_close;
    harvest_params(fn, lparen, rparen);
    // Constructor init list between ')' and '{'.
    if (rparen + 1 < brace && toks()[rparen + 1].text == ":") {
      ClassInfo* owning = index_.class_named(owner, cls);
      harvest_init_list(fn, owning ? owning : cls, rparen + 2, brace);
    }
    index_.funcs_by_cls.emplace(std::make_pair(owner, name), &fn);
    index_.funcs_by_name.emplace(name, &fn);
    if (cls) {
      cls->method_decls.emplace(name, fn.line);
      std::vector<std::string> ret;
      for (std::size_t i = seg; i < name_idx; ++i)
        ret.push_back(toks()[i].text);
      std::string rank = detail::rank_of_tokens(index_, ret);
      if (!rank.empty()) cls->method_return_rank[name] = rank;
    }
  }

  /// Declaration ending in ';' inside a class body: a method declaration,
  /// a member variable, or an alias.
  void harvest_class_decl(ClassInfo& cls, std::size_t seg, std::size_t semi) {
    if (semi <= seg) return;
    if (toks()[seg].text == "using" || toks()[seg].text == "typedef") {
      harvest_alias(seg, semi);
      return;
    }
    if (toks()[seg].text == "friend" || toks()[seg].text == "template" ||
        toks()[seg].text == "static_assert")
      return;
    // Method declaration: identifier directly before a top-level '(' with
    // no '=' before it (which would make it an initialized variable).
    int paren = 0, angle = 0;
    for (std::size_t i = seg; i < semi; ++i) {
      const std::string& s = toks()[i].text;
      if (s == "=" && paren == 0 && angle == 0) break;
      if (s == "<") ++angle;
      else if (s == ">") angle = angle > 0 ? angle - 1 : 0;
      else if (s == ">>") angle = angle > 1 ? angle - 2 : 0;
      else if (s == "(") {
        if (paren == 0 && angle == 0) {
          if (i > seg && detail::is_ident(toks()[i - 1]) &&
              toks()[i - 1].text != "operator") {
            std::string name = toks()[i - 1].text;
            if (i - 1 > seg && toks()[i - 2].text == "~") name = "~" + name;
            cls.method_decls.emplace(name, toks()[i - 1].line);
            std::vector<std::string> ret;
            for (std::size_t r = seg; r + 1 < i; ++r)
              ret.push_back(toks()[r].text);
            std::string rank = detail::rank_of_tokens(index_, ret);
            if (!rank.empty()) cls.method_return_rank[name] = rank;
          }
          return;
        }
        ++paren;
      } else if (s == ")") --paren;
    }
    harvest_member_var(cls, seg, semi);
  }

  void harvest_ns_decl(std::size_t seg, std::size_t semi) {
    if (semi <= seg) return;
    if (toks()[seg].text == "using" || toks()[seg].text == "typedef")
      harvest_alias(seg, semi);
  }

  /// `using X = tokens...;` (skips using-declarations without '=').
  void harvest_alias(std::size_t seg, std::size_t semi) {
    if (toks()[seg].text == "typedef") {
      // typedef tokens... Name;
      if (semi - seg < 3 || !detail::is_ident(toks()[semi - 1])) return;
      std::vector<std::string> type;
      for (std::size_t i = seg + 1; i + 1 < semi; ++i)
        type.push_back(toks()[i].text);
      index_.aliases[toks()[semi - 1].text] = std::move(type);
      return;
    }
    if (semi - seg < 4 || !detail::is_ident(toks()[seg + 1]) ||
        toks()[seg + 2].text != "=")
      return;
    std::vector<std::string> type;
    for (std::size_t i = seg + 3; i < semi; ++i)
      type.push_back(toks()[i].text);
    index_.aliases[toks()[seg + 1].text] = std::move(type);
  }
};

}  // namespace yancanalyze

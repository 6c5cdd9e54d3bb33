// detlint implementation. See detlint.h for the rule catalog and
// DESIGN.md section 13 for the policy (how to suppress, how to add a
// rule).
//
// Structure: a comment/string-aware tokenizer produces an identifier/punct
// stream plus per-line comment text; declaration passes collect the names
// of unordered-container and float/double variables declared in the file;
// then the rule passes walk the token stream. Everything is lexical — no
// preprocessing, no type resolution — so each rule is scoped to patterns
// whose false-positive rate on idiomatic code is near zero, and the escape
// hatch (NOLINT-DET) is first-class.

#include "tools/detlint/detlint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <unordered_set>

namespace numalab {
namespace detlint {

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Tokenizer.

struct Tok {
  enum Kind { kIdent, kPunct, kString, kNumber };
  Kind kind;
  std::string text;
  int line;
  int col;
};

struct Lexed {
  std::vector<Tok> toks;
  std::map<int, std::string> comments;   // line -> comment text (merged)
  std::vector<std::pair<int, std::string>> includes;  // line -> header name
};

bool IdentStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool IdentChar(char c) { return IdentStart(c) || (c >= '0' && c <= '9'); }

const char* kMultiPunct[] = {"::", "->", "+=", "-=", "*=", "/=", "%=", "&=",
                             "|=", "^=", "<<=", ">>=", "==", "!=", "<=",
                             ">=", "&&", "||", "<<", ">>", "++", "--"};

Lexed Lex(const std::string& src) {
  Lexed out;
  size_t i = 0, n = src.size();
  int line = 1, col = 1;
  auto advance = [&](size_t k) {
    for (size_t j = 0; j < k && i < n; ++j, ++i) {
      if (src[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
  };
  auto add_comment = [&](int at, const std::string& text) {
    std::string& slot = out.comments[at];
    if (!slot.empty()) slot.push_back(' ');
    slot += text;
  };

  while (i < n) {
    char c = src[i];
    // Whitespace.
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance(1);
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      size_t e = src.find('\n', i);
      if (e == std::string::npos) e = n;
      add_comment(line, src.substr(i, e - i));
      advance(e - i);
      continue;
    }
    // Block comment (attached to its starting line; multi-line block
    // comments attach each line's text to that line so NOLINT-DET inside
    // them still lands next to the code it annotates).
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      size_t e = src.find("*/", i + 2);
      size_t end = e == std::string::npos ? n : e + 2;
      std::string body = src.substr(i, end - i);
      int at = line;
      std::string piece;
      for (char bc : body) {
        if (bc == '\n') {
          add_comment(at, piece);
          piece.clear();
          ++at;
        } else {
          piece.push_back(bc);
        }
      }
      if (!piece.empty()) add_comment(at, piece);
      advance(end - i);
      continue;
    }
    // Preprocessor directive: emit no tokens, but record #include names.
    if (c == '#' && (col == 1 || [&] {
          // '#' preceded only by whitespace on its line.
          size_t b = i;
          while (b > 0 && src[b - 1] != '\n' &&
                 (src[b - 1] == ' ' || src[b - 1] == '\t'))
            --b;
          return b == 0 || src[b - 1] == '\n';
        }())) {
      size_t e = src.find('\n', i);
      if (e == std::string::npos) e = n;
      // Logical line continuation.
      while (e < n && e > 0 && src[e - 1] == '\\') {
        e = src.find('\n', e + 1);
        if (e == std::string::npos) e = n;
      }
      std::string dir = src.substr(i, e - i);
      size_t p = dir.find_first_not_of(" \t", 1);
      if (p != std::string::npos && dir.compare(p, 7, "include") == 0) {
        size_t a = dir.find_first_of("<\"", p + 7);
        if (a != std::string::npos) {
          char close = dir[a] == '<' ? '>' : '"';
          size_t b = dir.find(close, a + 1);
          if (b != std::string::npos) {
            out.includes.emplace_back(line, dir.substr(a + 1, b - a - 1));
          }
        }
      }
      advance(e - i);
      continue;
    }
    // String literal (incl. raw strings) and char literal.
    if (c == '"' || c == '\'' ||
        (c == 'R' && i + 1 < n && src[i + 1] == '"')) {
      int tl = line, tc = col;
      size_t start = i;
      if (c == 'R') {
        size_t paren = src.find('(', i + 2);
        if (paren == std::string::npos) {
          advance(n - i);
          continue;
        }
        std::string delim = ")" + src.substr(i + 2, paren - (i + 2)) + "\"";
        size_t e = src.find(delim, paren + 1);
        size_t end = e == std::string::npos ? n : e + delim.size();
        out.toks.push_back(
            {Tok::kString, src.substr(start, end - start), tl, tc});
        advance(end - i);
        continue;
      }
      char quote = c;
      size_t j = i + 1;
      while (j < n && src[j] != quote) {
        if (src[j] == '\\' && j + 1 < n) ++j;
        ++j;
      }
      size_t end = j < n ? j + 1 : n;
      out.toks.push_back(
          {Tok::kString, src.substr(start, end - start), tl, tc});
      advance(end - i);
      continue;
    }
    // Identifier / keyword.
    if (IdentStart(c)) {
      size_t j = i + 1;
      while (j < n && IdentChar(src[j])) ++j;
      out.toks.push_back({Tok::kIdent, src.substr(i, j - i), line, col});
      advance(j - i);
      continue;
    }
    // Number (good enough: digits and the usual suffix/exponent chars).
    if (c >= '0' && c <= '9') {
      size_t j = i + 1;
      while (j < n && (IdentChar(src[j]) || src[j] == '.' ||
                       (src[j] == '\'' && j + 1 < n &&
                        IdentChar(src[j + 1])) ||  // digit separator
                       ((src[j] == '+' || src[j] == '-') && j > 0 &&
                        (src[j - 1] == 'e' || src[j - 1] == 'E' ||
                         src[j - 1] == 'p' || src[j - 1] == 'P'))))
        ++j;
      out.toks.push_back({Tok::kNumber, src.substr(i, j - i), line, col});
      advance(j - i);
      continue;
    }
    // Punctuation (longest multi-char first).
    std::string best(1, c);
    for (const char* mp : kMultiPunct) {
      size_t len = std::char_traits<char>::length(mp);
      if (len > best.size() && i + len <= n &&
          src.compare(i, len, mp) == 0) {
        best = mp;
      }
    }
    out.toks.push_back({Tok::kPunct, best, line, col});
    advance(best.size());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Helpers over the token stream.

const Tok kNull{Tok::kPunct, "", 0, 0};

struct Stream {
  const std::vector<Tok>& t;
  const Tok& at(size_t i) const { return i < t.size() ? t[i] : kNull; }
  const Tok& prev(size_t i) const { return i == 0 ? kNull : t[i - 1]; }
  const Tok& prev2(size_t i) const { return i < 2 ? kNull : t[i - 2]; }
};

bool Is(const Tok& t, const char* s) { return t.text == s; }

/// Advances past a balanced <...> starting at the '<' at index `i`;
/// returns the index just after the closing '>' (or tokens.size() if
/// unbalanced). Treats '>>' as two closes.
size_t SkipAngles(const Stream& s, size_t i) {
  int depth = 0;
  size_t n = s.t.size();
  for (; i < n; ++i) {
    const std::string& x = s.t[i].text;
    if (x == "<") {
      ++depth;
    } else if (x == ">") {
      if (--depth == 0) return i + 1;
    } else if (x == ">>") {
      depth -= 2;
      if (depth <= 0) return i + 1;
    } else if (x == ";" || x == "{") {
      return i;  // bail: not a template argument list after all
    }
  }
  return n;
}

/// Matching close brace for the '{' at `i`; tokens.size() if unbalanced.
size_t MatchBrace(const Stream& s, size_t i) {
  int depth = 0;
  for (size_t n = s.t.size(); i < n; ++i) {
    if (Is(s.t[i], "{")) ++depth;
    if (Is(s.t[i], "}") && --depth == 0) return i;
  }
  return s.t.size();
}

/// Matching ')' for the '(' at `i`.
size_t MatchParen(const Stream& s, size_t i) {
  int depth = 0;
  for (size_t n = s.t.size(); i < n; ++i) {
    if (Is(s.t[i], "(")) ++depth;
    if (Is(s.t[i], ")") && --depth == 0) return i;
  }
  return s.t.size();
}

const std::unordered_set<std::string>& UnorderedTypes() {
  static const std::unordered_set<std::string> kSet = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return kSet;
}

// Identifiers that are nondeterministic whenever they appear.
const std::unordered_set<std::string>& WallClockIdents() {
  static const std::unordered_set<std::string> kSet = {
      "steady_clock", "system_clock", "high_resolution_clock", "utc_clock",
      "tai_clock", "gps_clock", "file_clock", "gettimeofday",
      "clock_gettime", "timespec_get", "ftime"};
  return kSet;
}
// Nondeterministic only as a call: `time(...)`, `clock(...)`, ...
const std::unordered_set<std::string>& WallClockCalls() {
  static const std::unordered_set<std::string> kSet = {
      "time", "clock", "localtime", "localtime_r", "gmtime", "gmtime_r",
      "mktime", "difftime", "strftime", "asctime", "ctime"};
  return kSet;
}
const std::unordered_set<std::string>& HostRandIdents() {
  static const std::unordered_set<std::string> kSet = {
      "random_device", "mt19937", "mt19937_64", "minstd_rand",
      "minstd_rand0", "default_random_engine", "knuth_b", "ranlux24",
      "ranlux24_base", "ranlux48", "ranlux48_base", "random_shuffle",
      "mersenne_twister_engine", "linear_congruential_engine",
      "subtract_with_carry_engine"};
  return kSet;
}
const std::unordered_set<std::string>& HostRandCalls() {
  static const std::unordered_set<std::string> kSet = {
      "rand", "srand", "rand_r", "srandom", "drand48", "erand48", "lrand48",
      "mrand48", "random"};
  return kSet;
}

// #include targets that drag a hazard in wholesale.
const std::map<std::string, std::string>& HazardHeaders() {
  static const std::map<std::string, std::string> kMap = {
      {"chrono", "wall-clock"},     {"ctime", "wall-clock"},
      {"time.h", "wall-clock"},     {"sys/time.h", "wall-clock"},
      {"sys/timeb.h", "wall-clock"}, {"random", "host-rand"}};
  return kMap;
}

/// True when the identifier at `i` is used as a plain (or std::/globally
/// qualified) function call — not a member (`x.time(...)`) and not a
/// qualified name from another class (`Foo::time(...)`).
bool IsBareCall(const Stream& s, size_t i) {
  if (!Is(s.at(i + 1), "(")) return false;
  const Tok& p = s.prev(i);
  if (Is(p, ".") || Is(p, "->")) return false;
  if (Is(p, "::")) {
    const Tok& q = s.prev2(i);
    return q.kind == Tok::kIdent ? q.text == "std" : true;  // `::time(`
  }
  return true;
}

// ---------------------------------------------------------------------------
// Suppressions: `// NOLINT-DET(rule[,rule...]): reason`.

struct Suppression {
  std::set<std::string> rules;  // "*" = all
  bool malformed = false;
  std::string why_malformed;
};

Suppression ParseNolint(const std::string& comment, size_t pos) {
  Suppression sup;
  size_t p = pos + std::char_traits<char>::length("NOLINT-DET");
  if (p >= comment.size() || comment[p] != '(') {
    sup.malformed = true;
    sup.why_malformed = "missing (rule) list";
    return sup;
  }
  size_t close = comment.find(')', p);
  if (close == std::string::npos) {
    sup.malformed = true;
    sup.why_malformed = "unterminated (rule) list";
    return sup;
  }
  std::string rules = comment.substr(p + 1, close - p - 1);
  std::stringstream ss(rules);
  std::string r;
  while (std::getline(ss, r, ',')) {
    size_t a = r.find_first_not_of(" \t");
    size_t b = r.find_last_not_of(" \t");
    if (a == std::string::npos) continue;
    std::string id = r.substr(a, b - a + 1);
    if (id != "*" && !IsKnownRule(id)) {
      sup.malformed = true;
      sup.why_malformed = "unknown rule '" + id + "'";
      return sup;
    }
    sup.rules.insert(id);
  }
  if (sup.rules.empty()) {
    sup.malformed = true;
    sup.why_malformed = "empty rule list";
    return sup;
  }
  size_t after = close + 1;
  if (after >= comment.size() || comment[after] != ':' ||
      comment.find_first_not_of(" \t", after + 1) == std::string::npos) {
    sup.malformed = true;
    sup.why_malformed = "missing ': reason'";
    return sup;
  }
  return sup;
}

// ---------------------------------------------------------------------------
// The scanner proper.

struct Scanner {
  const std::string& path;
  const Lexed& lx;
  Stream s;
  std::vector<Finding> raw;  // pre-suppression

  std::set<std::string> unordered_vars;
  std::set<std::string> float_vars;

  void Emit(const std::string& rule, int line, int col,
            const std::string& message) {
    // One finding per (rule, line): a single hazardous statement should
    // not demand several identical suppressions.
    for (const Finding& f : raw) {
      if (f.rule == rule && f.line == line) return;
    }
    Finding f;
    f.rule = rule;
    f.file = path;
    f.line = line;
    f.col = col;
    f.message = message;
    raw.push_back(std::move(f));
  }

  // ---- declaration passes ----

  void CollectDecls() {
    const std::vector<Tok>& t = s.t;
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Tok::kIdent) continue;
      // unordered_map<K,V> name / std::unordered_set<T>& name ...
      if (UnorderedTypes().count(t[i].text) != 0 && Is(s.at(i + 1), "<")) {
        size_t j = SkipAngles(s, i + 1);
        while (Is(s.at(j), "&") || Is(s.at(j), "*") ||
               (s.at(j).kind == Tok::kIdent && s.at(j).text == "const"))
          ++j;
        if (s.at(j).kind == Tok::kIdent && !Is(s.at(j + 1), "(")) {
          unordered_vars.insert(s.at(j).text);
        }
      }
      // float/double declarations (locals, params, members).
      if (t[i].text == "float" || t[i].text == "double") {
        const Tok& p = s.prev(i);
        if (Is(p, "<") || Is(p, "(") || Is(p, ",")) {
          // Template argument or cast, unless the following shape is a
          // parameter declaration (`, double x` / `(double x`).
          if (!(s.at(i + 1).kind == Tok::kIdent &&
                (Is(s.at(i + 2), ",") || Is(s.at(i + 2), ")") ||
                 Is(s.at(i + 2), "=")))) {
            continue;
          }
        }
        if (s.at(i + 1).kind != Tok::kIdent) continue;
        // `double Mean(...)` declares a function, not an accumulator.
        if (Is(s.at(i + 2), "(")) continue;
        float_vars.insert(s.at(i + 1).text);
        // `double x = 0, y = 1;`
        size_t j = i + 2;
        while (j < t.size() && !Is(t[j], ";") && !Is(t[j], ")") &&
               !Is(t[j], "{")) {
          if (Is(t[j], ",") && s.at(j + 1).kind == Tok::kIdent &&
              !Is(s.at(j + 2), "(")) {
            float_vars.insert(s.at(j + 1).text);
          }
          ++j;
        }
      }
    }
  }

  // ---- rule passes ----

  void CheckIncludes() {
    for (const auto& [line, header] : lx.includes) {
      auto it = HazardHeaders().find(header);
      if (it == HazardHeaders().end()) continue;
      Emit(it->second, line, 1,
           "#include <" + header + "> drags in a " +
               (it->second == "wall-clock" ? std::string("wall-clock time")
                                           : std::string("host-entropy RNG")) +
               " facility; use the seeded src/common/rng.h instead");
    }
  }

  void CheckIdents() {
    for (size_t i = 0; i < s.t.size(); ++i) {
      const Tok& t = s.t[i];
      if (t.kind != Tok::kIdent) continue;
      const Tok& p = s.prev(i);
      if (Is(p, ".") || Is(p, "->")) continue;  // member of something else
      if (t.text == "chrono" && Is(p, "::")) {
        Emit("wall-clock", t.line, t.col,
             "std::chrono reads wall-clock time; simulated runs must use "
             "virtual cycles");
        continue;
      }
      if (WallClockIdents().count(t.text) != 0) {
        Emit("wall-clock", t.line, t.col,
             t.text + " is a wall-clock time source");
        continue;
      }
      if (WallClockCalls().count(t.text) != 0 && IsBareCall(s, i)) {
        Emit("wall-clock", t.line, t.col,
             t.text + "() reads wall-clock time");
        continue;
      }
      if (HostRandIdents().count(t.text) != 0) {
        Emit("host-rand", t.line, t.col,
             t.text + " draws host randomness; all randomness must flow "
             "through the seeded numalab::Rng (src/common/rng.h)");
        continue;
      }
      if (HostRandCalls().count(t.text) != 0 && IsBareCall(s, i)) {
        Emit("host-rand", t.line, t.col,
             t.text + "() draws host randomness; use the seeded "
             "numalab::Rng (src/common/rng.h)");
        continue;
      }
    }
  }

  void CheckUnorderedIteration() {
    for (size_t i = 0; i < s.t.size(); ++i) {
      const Tok& t = s.t[i];
      // for (... : container)
      if (t.kind == Tok::kIdent && t.text == "for" && Is(s.at(i + 1), "(")) {
        size_t close = MatchParen(s, i + 1);
        size_t colon = 0;
        int depth = 0;
        for (size_t j = i + 1; j < close; ++j) {
          if (Is(s.t[j], "(")) ++depth;
          if (Is(s.t[j], ")")) --depth;
          if (depth == 1 && Is(s.t[j], ":")) {
            colon = j;
            break;
          }
        }
        if (colon == 0) continue;
        bool unordered = false;
        for (size_t j = colon + 1; j < close; ++j) {
          if (s.t[j].kind == Tok::kIdent &&
              unordered_vars.count(s.t[j].text) != 0) {
            unordered = true;
            break;
          }
        }
        if (!unordered) continue;
        Emit("unordered-iter", t.line, t.col,
             "iteration over an unordered container: order depends on the "
             "hash seed and addresses; sort keys (or use an ordered "
             "structure) before this can feed exported or ordered state");
        CheckFloatAccumInLoop(close);
        continue;
      }
      // container.begin() / container->cbegin()
      if (t.kind == Tok::kIdent && unordered_vars.count(t.text) != 0 &&
          (Is(s.at(i + 1), ".") || Is(s.at(i + 1), "->"))) {
        const std::string& m = s.at(i + 2).text;
        if ((m == "begin" || m == "cbegin" || m == "rbegin") &&
            Is(s.at(i + 3), "(")) {
          Emit("unordered-iter", t.line, t.col,
               "iterator over an unordered container: traversal order is "
               "nondeterministic");
        }
      }
    }
  }

  /// Body of an unordered range-for begins right after its closing ')' at
  /// `close`: either a braced block or a single statement. Floating-point
  /// compound assignment inside is an order-sensitive reduction.
  void CheckFloatAccumInLoop(size_t close) {
    size_t body_begin = close + 1, body_end;
    if (Is(s.at(body_begin), "{")) {
      body_end = MatchBrace(s, body_begin);
    } else {
      body_end = body_begin;
      while (body_end < s.t.size() && !Is(s.t[body_end], ";")) ++body_end;
    }
    for (size_t j = body_begin; j < body_end; ++j) {
      if (!Is(s.t[j], "+=") && !Is(s.t[j], "-=") && !Is(s.t[j], "*=")) {
        continue;
      }
      // Walk back over an optional [index] to the accumulator's name.
      size_t k = j;
      if (k > 0 && Is(s.t[k - 1], "]")) {
        int d = 0;
        while (k > 0) {
          --k;
          if (Is(s.t[k], "]")) ++d;
          if (Is(s.t[k], "[") && --d == 0) break;
        }
      }
      if (k == 0) continue;
      const Tok& lhs = s.t[k - 1];
      if (lhs.kind == Tok::kIdent && float_vars.count(lhs.text) != 0) {
        Emit("float-accum", s.t[j].line, s.t[j].col,
             "floating-point accumulation inside unordered iteration: the "
             "sum depends on traversal order; accumulate integers or sort "
             "first");
      }
    }
  }

  void CheckCounterStructFloats() {
    for (size_t i = 0; i < s.t.size(); ++i) {
      const Tok& t = s.t[i];
      if (t.kind != Tok::kIdent ||
          (t.text != "struct" && t.text != "class")) {
        continue;
      }
      const Tok& name = s.at(i + 1);
      if (name.kind != Tok::kIdent ||
          name.text.find("ounter") == std::string::npos) {
        continue;
      }
      size_t j = i + 2;
      while (j < s.t.size() && !Is(s.t[j], "{") && !Is(s.t[j], ";")) ++j;
      if (!Is(s.at(j), "{")) continue;  // forward declaration
      size_t end = MatchBrace(s, j);
      for (size_t k = j + 1; k < end; ++k) {
        if (s.t[k].kind == Tok::kIdent &&
            (s.t[k].text == "float" || s.t[k].text == "double") &&
            s.at(k + 1).kind == Tok::kIdent && !Is(s.at(k + 2), "(")) {
          Emit("float-accum", s.t[k].line, s.t[k].col,
               "float/double field in counters struct '" + name.text +
                   "': counters are summed across threads/nodes, and "
                   "floating-point addition is order-sensitive — use "
                   "integral counters");
        }
      }
    }
  }

  void CheckPointerOrder() {
    for (size_t i = 0; i < s.t.size(); ++i) {
      const Tok& t = s.t[i];
      // std::map<T*, ...> / std::set<T*> (ordered by raw pointer value).
      if (t.kind == Tok::kIdent &&
          (t.text == "map" || t.text == "set" || t.text == "multimap" ||
           t.text == "multiset") &&
          Is(s.prev(i), "::") && s.prev2(i).text == "std" &&
          Is(s.at(i + 1), "<")) {
        int depth = 0;
        for (size_t j = i + 1; j < s.t.size(); ++j) {
          const std::string& x = s.t[j].text;
          if (x == "<") {
            ++depth;
          } else if (x == ">" || x == ">>") {
            depth -= x == ">" ? 1 : 2;
            if (depth <= 0) break;
          } else if (x == "," && depth == 1) {
            break;  // end of the key type
          } else if (x == "*" && depth == 1) {
            Emit("pointer-order", t.line, t.col,
                 "std::" + t.text +
                     " keyed by a pointer: iteration order follows raw "
                     "addresses, which vary under ASLR; key by a stable id "
                     "instead");
            break;
          } else if (x == ";" || x == "{") {
            break;
          }
        }
      }
      // %p in a format string.
      if (t.kind == Tok::kString && t.text.find("%p") != std::string::npos) {
        Emit("pointer-order", t.line, t.col,
             "pointer value formatted with %p: addresses vary under ASLR "
             "and must never reach exported output");
      }
      // static_cast<void*>(...) — the ostream pointer-printing idiom.
      if (t.kind == Tok::kIdent && t.text == "static_cast" &&
          Is(s.at(i + 1), "<") && s.at(i + 2).text == "void" &&
          Is(s.at(i + 3), "*") && Is(s.at(i + 4), ">")) {
        Emit("pointer-order", t.line, t.col,
             "static_cast<void*> (pointer-printing idiom): addresses vary "
             "under ASLR and must never reach exported output");
      }
    }
  }

  void CheckUnseededRng() {
    for (size_t i = 0; i < s.t.size(); ++i) {
      const Tok& t = s.t[i];
      if (t.kind != Tok::kIdent || t.text != "Rng") continue;
      const Tok& p = s.prev(i);
      if (p.text == "class" || p.text == "struct" || Is(p, "::") ||
          Is(p, ".") || Is(p, "->")) {
        continue;
      }
      const Tok& n1 = s.at(i + 1);
      const Tok& n2 = s.at(i + 2);
      bool flag = false;
      if (Is(n1, "(") && Is(n2, ")")) flag = true;        // Rng()
      if (Is(n1, "{") && Is(n2, "}")) flag = true;        // Rng{}
      if (Is(n1, ";") && p.text == "new") flag = true;    // new Rng;
      if (n1.kind == Tok::kIdent && Is(n2, ";") &&
          (n1.text.empty() || n1.text.back() != '_')) {
        flag = true;  // `Rng r;` (members `rng_;` are seeded in ctors)
      }
      if (flag) {
        Emit("unseeded-rng", t.line, t.col,
             "Rng constructed without an explicit seed: every such site "
             "draws the same default stream; derive the seed from the "
             "run's RunConfig::seed");
      }
    }
  }

  void Run() {
    CollectDecls();
    CheckIncludes();
    CheckIdents();
    CheckUnorderedIteration();
    CheckCounterStructFloats();
    CheckPointerOrder();
    CheckUnseededRng();
  }
};

// Files exempt from the rules that would flag the sanctioned
// implementation itself.
bool IsExempt(const std::string& rel_path, const std::string& rule) {
  if (rel_path == "src/common/rng.h") {
    return rule == "wall-clock" || rule == "host-rand" ||
           rule == "unseeded-rng";
  }
  // The linter's own sources must name the hazards they detect (rule
  // tables, message strings, docs) — exempt from everything. The fixture
  // corpus is NOT exempt: the detlint_rejects_* ctests depend on it
  // flagging.
  if (rel_path.rfind("tools/detlint/", 0) == 0 &&
      rel_path.rfind("tools/detlint/testdata/", 0) != 0) {
    return true;
  }
  return false;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& Rules() {
  static const std::vector<std::pair<std::string, std::string>> kRules = {
      {"wall-clock",
       "wall-clock time source; simulated runs must be seed-deterministic"},
      {"host-rand",
       "host RNG facility; all randomness flows through src/common/rng.h"},
      {"unordered-iter",
       "iteration over an unordered container (hash/ASLR-dependent order)"},
      {"pointer-order",
       "pointer values used for ordering, keys or output (ASLR-dependent)"},
      {"float-accum",
       "order-sensitive floating-point accumulation in a counter path"},
      {"unseeded-rng", "numalab::Rng constructed without an explicit seed"},
      {"nolint-format",
       "malformed NOLINT-DET; need NOLINT-DET(rule[,rule]): reason"},
  };
  return kRules;
}

bool IsKnownRule(const std::string& id) {
  for (const auto& [rule, desc] : Rules()) {
    if (rule == id) return true;
  }
  return false;
}

std::vector<Finding> ScanSource(const std::string& rel_path,
                                const std::string& source,
                                int* suppressed_out) {
  Lexed lx = Lex(source);
  Scanner sc{rel_path, lx, Stream{lx.toks}, {}, {}, {}};
  sc.Run();

  // Suppressions (and malformed suppressions, which are findings).
  std::map<int, Suppression> sups;
  for (const auto& [line, text] : lx.comments) {
    size_t pos = text.find("NOLINT-DET");
    if (pos == std::string::npos) continue;
    Suppression sup = ParseNolint(text, pos);
    if (sup.malformed) {
      Finding f;
      f.rule = "nolint-format";
      f.file = rel_path;
      f.line = line;
      f.col = 1;
      f.message = "malformed NOLINT-DET (" + sup.why_malformed +
                  "); need NOLINT-DET(rule[,rule]): reason";
      sc.raw.push_back(std::move(f));
    } else {
      sups[line] = std::move(sup);
    }
  }

  int suppressed = 0;
  std::vector<Finding> out;
  for (Finding& f : sc.raw) {
    if (IsExempt(rel_path, f.rule)) continue;
    bool quiet = false;
    if (f.rule != "nolint-format") {
      for (int at : {f.line, f.line - 1}) {
        auto it = sups.find(at);
        if (it != sups.end() && (it->second.rules.count("*") != 0 ||
                                 it->second.rules.count(f.rule) != 0)) {
          quiet = true;
          break;
        }
      }
    }
    if (quiet) {
      ++suppressed;
    } else {
      out.push_back(std::move(f));
    }
  }
  if (suppressed_out != nullptr) *suppressed_out += suppressed;
  std::sort(out.begin(), out.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.col, a.rule) <
                     std::tie(b.file, b.line, b.col, b.rule);
            });
  return out;
}

bool CollectFiles(const std::string& root,
                  const std::vector<std::string>& paths,
                  std::vector<std::string>* out, std::string* error) {
  std::set<std::string> files;
  auto want = [](const fs::path& p) {
    std::string e = p.extension().string();
    return e == ".h" || e == ".hpp" || e == ".cc" || e == ".cpp";
  };
  for (const std::string& p : paths) {
    fs::path full = fs::path(root) / p;
    std::error_code ec;
    if (fs::is_directory(full, ec)) {
      for (fs::recursive_directory_iterator it(full, ec), end;
           !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec) && want(it->path())) {
          files.insert(
              fs::relative(it->path(), root, ec).generic_string());
        }
      }
    } else if (fs::is_regular_file(full, ec)) {
      files.insert(fs::relative(full, root, ec).generic_string());
    } else {
      if (error != nullptr) *error = "no such file or directory: " + p;
      return false;
    }
  }
  out->assign(files.begin(), files.end());
  return true;
}

bool ScanFiles(const std::string& root,
               const std::vector<std::string>& rel_files, ScanResult* out,
               std::string* error) {
  for (const std::string& rel : rel_files) {
    std::string src;
    if (!ReadFile((fs::path(root) / rel).string(), &src)) {
      if (error != nullptr) *error = "cannot read " + rel;
      return false;
    }
    ++out->files_scanned;
    for (Finding& f : ScanSource(rel, src, &out->suppressed)) {
      out->findings.push_back(std::move(f));
    }
  }
  std::sort(out->findings.begin(), out->findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.col, a.rule) <
                     std::tie(b.file, b.line, b.col, b.rule);
            });
  return true;
}

std::string ToHuman(const ScanResult& r) {
  std::string out;
  for (const Finding& f : r.findings) {
    out += f.file + ":" + std::to_string(f.line) + ":" +
           std::to_string(f.col) + ": [" + f.rule + "] " + f.message + "\n";
  }
  out += "detlint: " + std::to_string(r.findings.size()) + " finding(s) (" +
         std::to_string(r.suppressed) + " suppressed) in " +
         std::to_string(r.files_scanned) + " file(s)\n";
  return out;
}

}  // namespace detlint
}  // namespace numalab

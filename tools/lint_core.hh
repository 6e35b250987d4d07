/**
 * @file
 * Rule engine for contest_lint, the repo's own static-analysis pass.
 *
 * Header-only so the contest_lint binary and tests/test_lint.cc share
 * one implementation. The rules encode lessons this codebase already
 * paid for — most directly the unsigned-wrap subtraction behind the
 * original SyncStoreQueue::canAccept bug — as mechanical checks:
 *
 *  - bare-u64-quantity     time/cycle/sequence quantities must use
 *                          the Strong<> aliases from common/types.hh,
 *                          not bare uint64_t/int64_t
 *  - unsigned-sub          subtraction of two counters inside a
 *                          comparison must be parenthesized (i.e.
 *                          routed through Strong's checked operator-)
 *  - include-guard         headers guard with CONTEST_<PATH>_HH
 *  - naked-new             no raw `new`; owning code uses
 *                          make_unique/make_shared
 *  - panic-message         panic()/fatal() messages must name the
 *                          violated invariant, not just say "bad"
 *  - core-container        no std::deque / std::priority_queue in
 *                          src/core/: the per-tick hot path uses the
 *                          fixed-capacity SoA rings (SoaVec) and the
 *                          CycleRing timing wheel from common/
 *  - core-soa              no std::vector<bool> and no containers of
 *                          locally-defined per-entry structs (AoS) in
 *                          src/core/: hot state is parallel SoaVec
 *                          field arrays plus uint64 mask words
 *                          (DESIGN.md §12)
 *  - runner-bypass         no OooCore / ContestSystem construction
 *                          and no runSingle() call in bench/: suite
 *                          experiments simulate through the Runner,
 *                          whose memo and result cache let a warm
 *                          rerun simulate nothing (DESIGN.md §10)
 *
 * Any line (or its predecessor) may carry
 *     // contest-lint: allow(<rule>)
 * to suppress a single finding where the pattern is intentional.
 */

#ifndef CONTEST_TOOLS_LINT_CORE_HH
#define CONTEST_TOOLS_LINT_CORE_HH

#include <cctype>
#include <cstddef>
#include <string>
#include <vector>

namespace contest::lint
{

/** One rule violation at a specific source line. */
struct Violation
{
    std::string file;
    std::size_t line = 0; //!< 1-based
    std::string rule;
    std::string message;
};

namespace detail
{

inline bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * Blank out comments and string/char literals (preserving line
 * structure and length) so the rules below scan only real code.
 * Escape sequences inside literals are honored.
 */
inline std::string
stripCommentsAndStrings(const std::string &src)
{
    std::string out(src);
    enum class St { Code, Line, Block, Str, Chr } st = St::Code;
    for (std::size_t i = 0; i < src.size(); ++i) {
        char c = src[i];
        char n = i + 1 < src.size() ? src[i + 1] : '\0';
        switch (st) {
          case St::Code:
            if (c == '/' && n == '/') {
                st = St::Line;
                out[i] = ' ';
            } else if (c == '/' && n == '*') {
                st = St::Block;
                out[i] = ' ';
            } else if (c == '"') {
                st = St::Str;
            } else if (c == '\'') {
                // A quote between two alphanumerics is a digit
                // separator (1'000'000, 0xFF'FF), not a character
                // literal: treating it as one would swallow every
                // line up to the next quote and silently hide code
                // from all rules.
                const bool separator =
                    i > 0
                    && std::isalnum(
                        static_cast<unsigned char>(src[i - 1]))
                    && std::isalnum(static_cast<unsigned char>(n));
                if (!separator)
                    st = St::Chr;
            }
            break;
          case St::Line:
            if (c == '\n')
                st = St::Code;
            else
                out[i] = ' ';
            break;
          case St::Block:
            if (c == '*' && n == '/') {
                st = St::Code;
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          case St::Str:
          case St::Chr:
            if (c == '\\' && n != '\0') {
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if ((st == St::Str && c == '"')
                       || (st == St::Chr && c == '\'')) {
                st = St::Code;
            } else {
                out[i] = ' ';
            }
            break;
        }
    }
    return out;
}

inline std::vector<std::string>
splitLines(const std::string &s)
{
    std::vector<std::string> lines;
    std::string cur;
    for (char c : s) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    lines.push_back(cur);
    return lines;
}

/** Is the finding on (1-based) @p line suppressed by an allow
 *  comment on the same or the preceding raw source line? */
inline bool
allowed(const std::vector<std::string> &raw_lines, std::size_t line,
        const std::string &rule)
{
    const std::string needle = "contest-lint: allow(" + rule + ")";
    for (std::size_t l : {line, line - 1}) {
        if (l >= 1 && l <= raw_lines.size()
            && raw_lines[l - 1].find(needle) != std::string::npos)
            return true;
    }
    return false;
}

/** Does this identifier name a time/cycle/sequence quantity? */
inline bool
quantityName(const std::string &name)
{
    std::string low;
    for (char c : name)
        low += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    // "...Ps"/"..._ps" suffix means picoseconds; substrings cover
    // cycle/seq/period/latency spellings. Plain "steps"/"laps" etc.
    // end in "ps" only via an unrelated word, so require the
    // character before the suffix to be a separator or lower/upper
    // camel boundary ("Ps") in the original spelling.
    if (name.size() >= 2) {
        const std::string tail = name.substr(name.size() - 2);
        if (tail == "Ps" || name == "ps"
            || (name.size() >= 3 && tail == "ps"
                && name[name.size() - 3] == '_'))
            return true;
    }
    for (const char *part :
         {"cycle", "seq", "period", "latency", "timeps"})
        if (low.find(part) != std::string::npos)
            return true;
    return false;
}

/** First identifier after position @p pos in @p s. */
inline std::string
nextIdentifier(const std::string &s, std::size_t pos)
{
    while (pos < s.size() && !isIdentChar(s[pos]))
        ++pos;
    std::size_t b = pos;
    while (pos < s.size() && isIdentChar(s[pos]))
        ++pos;
    return s.substr(b, pos - b);
}

/** Token ending at (exclusive) @p end, walking identifier chars,
 *  []. and -> backwards; used to classify subtraction operands. */
inline std::string
operandEndingAt(const std::string &s, std::size_t end)
{
    std::size_t b = end;
    while (b > 0) {
        char c = s[b - 1];
        if (isIdentChar(c) || c == ']' || c == '[' || c == '.') {
            --b;
        } else if (b >= 2 && c == '>' && s[b - 2] == '-') {
            b -= 2;
        } else {
            break;
        }
    }
    return s.substr(b, end - b);
}

inline bool
identifierLike(const std::string &tok)
{
    if (tok.empty())
        return false;
    char c0 = tok[0];
    return isIdentChar(c0)
        && !std::isdigit(static_cast<unsigned char>(c0));
}

} // namespace detail

/**
 * Lint one file.
 *
 * @param path repo-relative path (used for include-guard naming and
 *        in the reported findings)
 * @param content full file content
 */
inline std::vector<Violation>
lintFile(const std::string &path, const std::string &content)
{
    using namespace detail;

    std::vector<Violation> out;
    const std::vector<std::string> raw = splitLines(content);
    const std::vector<std::string> code =
        splitLines(stripCommentsAndStrings(content));

    auto report = [&](std::size_t line, const char *rule,
                      std::string msg) {
        if (!allowed(raw, line, rule))
            out.push_back(Violation{path, line, rule, std::move(msg)});
    };

    const bool isTypesHeader =
        path == "src/common/types.hh" || path == "common/types.hh";

    // ---- bare-u64-quantity -------------------------------------
    if (!isTypesHeader) {
        for (std::size_t i = 0; i < code.size(); ++i) {
            const std::string &l = code[i];
            for (const char *tok : {"uint64_t", "int64_t"}) {
                std::size_t pos = 0;
                while ((pos = l.find(tok, pos)) != std::string::npos) {
                    // Require a token boundary so "int64_t" does not
                    // also match inside "uint64_t".
                    if (pos > 0 && isIdentChar(l[pos - 1])
                        && l[pos - 1] != ':') {
                        ++pos;
                        continue;
                    }
                    std::size_t after = pos + std::string(tok).size();
                    // Skip casts and template args: only flag
                    // declarations, i.e. the token followed by an
                    // identifier.
                    std::string name = nextIdentifier(l, after);
                    if (quantityName(name))
                        report(i + 1, "bare-u64-quantity",
                               "'" + name + "' looks like a "
                               "time/cycle/sequence quantity; use the "
                               "Strong<> aliases from "
                               "common/types.hh");
                    pos = after;
                }
            }
        }
    }

    // ---- unsigned-sub ------------------------------------------
    // Flag `a - b < c`-style comparisons where the subtraction of
    // two identifier-like operands is not parenthesized: the wrap
    // happens before the comparison ever sees it. Routing the
    // subtraction through a Strong<> quantity (whose checked
    // operator- panics on wrap in debug builds) or parenthesizing
    // to show intent both silence the rule.
    for (std::size_t i = 0; i < code.size(); ++i) {
        const std::string &l = code[i];
        for (std::size_t p = 0; p + 1 < l.size(); ++p) {
            char c = l[p];
            if ((c != '<' && c != '>') || p == 0)
                continue;
            if (l[p - 1] == '<' || l[p - 1] == '>' || l[p - 1] == '-')
                continue; // <<, >>, ->
            if (l[p + 1] == '<' || l[p + 1] == '>')
                continue;
            // Walk left from the comparison collecting the LHS up
            // to an expression boundary at paren depth 0.
            int depth = 0;
            bool sub_at_top = false;
            std::size_t q = p;
            while (q > 0) {
                char b = l[q - 1];
                if (b == '>' && q >= 2 && l[q - 2] == '-') {
                    q -= 2; // member arrow, not a comparison/minus
                    continue;
                }
                if (b == ')') {
                    ++depth;
                } else if (b == '(') {
                    if (depth == 0)
                        break;
                    --depth;
                } else if (depth == 0
                           && (b == ',' || b == ';' || b == '='
                               || b == '&' || b == '|' || b == '?'
                               || b == ':' || b == '{')) {
                    break;
                } else if (depth == 0 && b == '-' && q >= 2
                           && l[q - 2] != '-' && l[q - 2] != '(') {
                    // candidate subtraction; classify operands
                    std::size_t lhs_end = q - 1;
                    while (lhs_end > 0 && l[lhs_end - 1] == ' ')
                        --lhs_end;
                    std::string lhs = operandEndingAt(l, lhs_end);
                    std::string rhs =
                        nextIdentifier(l, q);
                    if (identifierLike(lhs) && identifierLike(rhs)) {
                        sub_at_top = true;
                        break;
                    }
                }
                --q;
            }
            if (sub_at_top)
                report(i + 1, "unsigned-sub",
                       "unparenthesized counter subtraction feeding "
                       "a comparison wraps below zero on unsigned "
                       "types; parenthesize or use a Strong<> "
                       "quantity with checked subtraction");
        }
    }

    // ---- include-guard -----------------------------------------
    if (path.size() > 3
        && path.compare(path.size() - 3, 3, ".hh") == 0) {
        std::string rel = path;
        if (rel.rfind("src/", 0) == 0)
            rel = rel.substr(4);
        std::vector<std::string> tokens;
        std::string cur;
        for (char c : rel) {
            if (c == '/' || c == '.' || c == '_') {
                if (!cur.empty())
                    tokens.push_back(cur);
                cur.clear();
            } else {
                cur += static_cast<char>(
                    std::toupper(static_cast<unsigned char>(c)));
            }
        }
        if (!cur.empty())
            tokens.push_back(cur);
        if (!tokens.empty() && tokens.back() == "HH")
            tokens.pop_back();
        auto join = [](const std::vector<std::string> &ts) {
            std::string g = "CONTEST";
            for (const auto &t : ts)
                g += "_" + t;
            return g + "_HH";
        };
        // Adjacent duplicate path tokens may collapse
        // (bench/bench_common.hh guards as CONTEST_BENCH_COMMON_HH).
        std::vector<std::string> collapsed;
        for (const auto &t : tokens)
            if (collapsed.empty() || collapsed.back() != t)
                collapsed.push_back(t);
        const std::string exact = join(tokens);
        const std::string loose = join(collapsed);

        std::string guard;
        std::size_t guard_line = 0;
        for (std::size_t i = 0; i < code.size(); ++i) {
            std::size_t pos = code[i].find("#ifndef");
            if (pos != std::string::npos) {
                guard = nextIdentifier(code[i], pos + 7);
                guard_line = i + 1;
                break;
            }
        }
        if (guard.empty())
            report(1, "include-guard",
                   "header has no include guard; expected #ifndef "
                       + exact);
        else if (guard != exact && guard != loose)
            report(guard_line, "include-guard",
                   "include guard '" + guard + "' should be '" + exact
                       + "'");
    }

    // ---- naked-new ---------------------------------------------
    for (std::size_t i = 0; i < code.size(); ++i) {
        const std::string &l = code[i];
        // Preprocessor lines cannot hold a new-expression (the
        // header <new> is the classic false positive).
        const std::size_t first = l.find_first_not_of(" \t");
        if (first != std::string::npos && l[first] == '#')
            continue;
        std::size_t pos = 0;
        while ((pos = l.find("new", pos)) != std::string::npos) {
            bool word_start = pos == 0 || !isIdentChar(l[pos - 1]);
            bool word_end =
                pos + 3 >= l.size() || !isIdentChar(l[pos + 3]);
            // `operator new` — an overload definition or a direct
            // allocator-internals call — is not a new-expression;
            // the rule targets owning `new T(...)`.
            std::size_t back = pos;
            while (back > 0 && std::isspace(
                                   static_cast<unsigned char>(
                                       l[back - 1])))
                --back;
            const bool after_operator =
                back >= 8 && l.compare(back - 8, 8, "operator") == 0
                && (back == 8 || !isIdentChar(l[back - 9]));
            if (word_start && word_end && !after_operator)
                report(i + 1, "naked-new",
                       "raw 'new' expression; use std::make_unique / "
                       "std::make_shared so ownership is explicit");
            pos += 3;
        }
    }

    // ---- core-container ----------------------------------------
    // The OooCore hot path was rebuilt on fixed-capacity SoA rings
    // (SoaVec) and the CycleRing timing wheel (common/, DESIGN.md
    // §12) precisely because node-based std::deque and
    // std::priority_queue's allocation churn dominated the per-tick
    // constants. New uses in src/core/ need an explicit
    // allow-comment with the reason.
    if (path.rfind("src/core/", 0) == 0
        || path.rfind("core/", 0) == 0) {
        for (std::size_t i = 0; i < code.size(); ++i) {
            const std::string &l = code[i];
            for (const char *tok :
                 {"std::deque<", "std::priority_queue<"}) {
                if (l.find(tok) != std::string::npos)
                    report(i + 1, "core-container",
                           std::string(tok)
                               + "...> on the core hot path; use "
                                 "an SoA ring (SoaVec) or CycleRing "
                                 "from common/ (fixed capacity, no "
                                 "per-tick allocation)");
            }
        }
    }

    // ---- core-soa ----------------------------------------------
    // The SoA refactor (DESIGN.md §12) replaced the per-entry
    // RobEntry/IqSlot structs with parallel packed field arrays and
    // mask words. Reintroducing an array-of-structs for hot state —
    // a std::vector/SoaVec of a struct defined in the same file — or
    // the bit-proxy std::vector<bool> silently undoes the layout.
    // Intentional cold-path uses carry an allow-comment.
    if (path.rfind("src/core/", 0) == 0
        || path.rfind("core/", 0) == 0) {
        // Struct/class types defined in this file (skipping forward
        // declarations): containers of these are per-entry records.
        std::vector<std::string> localStructs;
        for (const std::string &l : code) {
            for (const char *kw : {"struct", "class"}) {
                std::size_t pos = 0;
                const std::size_t kwLen = std::string(kw).size();
                while ((pos = l.find(kw, pos)) != std::string::npos) {
                    const bool ws = pos == 0 || !isIdentChar(l[pos - 1]);
                    const bool we = pos + kwLen >= l.size()
                        || !isIdentChar(l[pos + kwLen]);
                    if (!ws || !we) {
                        pos += kwLen;
                        continue;
                    }
                    const std::string name =
                        nextIdentifier(l, pos + kwLen);
                    std::size_t after = l.find(name, pos + kwLen);
                    after = after == std::string::npos
                        ? l.size() : after + name.size();
                    while (after < l.size() && l[after] == ' ')
                        ++after;
                    // `struct X;` forward-declares; anything else
                    // (brace, base list, end of line) defines.
                    if (!name.empty()
                        && (after >= l.size() || l[after] != ';'))
                        localStructs.push_back(name);
                    pos += kwLen;
                }
            }
        }
        for (std::size_t i = 0; i < code.size(); ++i) {
            const std::string &l = code[i];
            if (l.find("std::vector<bool>") != std::string::npos)
                report(i + 1, "core-soa",
                       "std::vector<bool> on the core hot path; use "
                       "SoaVec<uint64_t> mask words with "
                       "bitSet/bitTest/scanBits");
            for (const char *tpl : {"std::vector<", "SoaVec<"}) {
                std::size_t pos = 0;
                while ((pos = l.find(tpl, pos)) != std::string::npos) {
                    if (pos > 0 && isIdentChar(l[pos - 1])) {
                        ++pos;
                        continue;
                    }
                    const std::size_t open =
                        pos + std::string(tpl).size();
                    const std::string elem = nextIdentifier(l, open);
                    for (const std::string &s : localStructs)
                        if (elem == s)
                            report(i + 1, "core-soa",
                                   "container of per-entry struct '"
                                       + elem + "' (AoS) on the core "
                                     "hot path; split the struct into "
                                     "parallel SoaVec field arrays "
                                     "(DESIGN.md §12)");
                    pos = open;
                }
            }
        }
    }

    // ---- runner-bypass -----------------------------------------
    // An experiment that builds its own OooCore or ContestSystem, or
    // calls runSingle, re-simulates on every warm rerun and never
    // shares a result with the rest of the suite. Naming the type
    // through a reference, pointer or scope (`const OooCore &`,
    // `OooCore::RetireCallback`) constructs nothing.
    if (path.rfind("bench/", 0) == 0) {
        for (std::size_t i = 0; i < code.size(); ++i) {
            const std::string &l = code[i];
            for (const std::string tok :
                 {"OooCore", "ContestSystem", "runSingle"}) {
                std::size_t pos = 0;
                while ((pos = l.find(tok, pos)) != std::string::npos) {
                    const std::size_t end = pos + tok.size();
                    const bool word =
                        (pos == 0 || !isIdentChar(l[pos - 1]))
                        && (end >= l.size() || !isIdentChar(l[end]));
                    const std::size_t next =
                        l.find_first_not_of(' ', end);
                    const bool names_only = next != std::string::npos
                        && (l[next] == '&' || l[next] == '*'
                            || l[next] == ':');
                    if (word && !names_only)
                        report(i + 1, "runner-bypass",
                               tok + " in an experiment simulates "
                                     "outside the Runner's memo and "
                                     "result cache; use "
                                     "Runner::single / contested");
                    pos = end;
                }
            }
        }
    }

    // ---- panic-message -----------------------------------------
    // A panic/fatal message must state the violated invariant. The
    // proxy: the format string carries at least three words and 16
    // characters ("bad" and "oops" do not survive review by tool).
    for (std::size_t i = 0; i < code.size(); ++i) {
        const std::string &l = code[i];
        for (const char *fn :
             {"panic(", "panic_if(", "fatal(", "fatal_if("}) {
            std::size_t pos = 0;
            while ((pos = l.find(fn, pos)) != std::string::npos) {
                if (pos > 0 && isIdentChar(l[pos - 1])) {
                    ++pos;
                    continue;
                }
                // Find the first string literal in the raw source
                // within the next few lines (arguments may wrap).
                std::string msg;
                bool found = false;
                for (std::size_t j = i;
                     j < raw.size() && j < i + 4 && !found; ++j) {
                    const std::string &rl = raw[j];
                    std::size_t b =
                        rl.find('"', j == i ? pos : 0);
                    while (b != std::string::npos) {
                        std::size_t e = b + 1;
                        while (e < rl.size()
                               && (rl[e] != '"'
                                   || rl[e - 1] == '\\'))
                            ++e;
                        if (e < rl.size()) {
                            msg = rl.substr(b + 1, e - b - 1);
                            found = true;
                        }
                        break;
                    }
                }
                if (found) {
                    std::size_t words = 0;
                    bool in_word = false;
                    for (char c : msg) {
                        if (c == ' ') {
                            in_word = false;
                        } else if (!in_word) {
                            in_word = true;
                            ++words;
                        }
                    }
                    if (msg.size() < 16 || words < 3)
                        report(i + 1, "panic-message",
                               "panic/fatal message \"" + msg
                                   + "\" does not name the violated "
                                     "invariant");
                }
                ++pos;
            }
        }
    }

    return out;
}

} // namespace contest::lint

#endif // CONTEST_TOOLS_LINT_CORE_HH

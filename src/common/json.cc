#include "common/json.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/log.hh"

namespace contest
{

JsonValue
JsonValue::boolean(bool b)
{
    JsonValue v;
    v.k = Kind::Bool;
    v.b = b;
    return v;
}

JsonValue
JsonValue::number(double value)
{
    JsonValue v;
    v.k = Kind::Number;
    v.num = value;
    return v;
}

JsonValue
JsonValue::str(std::string s)
{
    JsonValue v;
    v.k = Kind::String;
    v.s = std::move(s);
    return v;
}

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.k = Kind::Array;
    return v;
}

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.k = Kind::Object;
    return v;
}

bool
JsonValue::asBool() const
{
    panic_if(k != Kind::Bool, "JsonValue::asBool on a non-bool value");
    return b;
}

double
JsonValue::asNumber() const
{
    panic_if(k != Kind::Number,
             "JsonValue::asNumber on a non-number value");
    return num;
}

const std::string &
JsonValue::asString() const
{
    panic_if(k != Kind::String,
             "JsonValue::asString on a non-string value");
    return s;
}

const std::vector<JsonValue> &
JsonValue::elements() const
{
    panic_if(k != Kind::Array,
             "JsonValue::elements on a non-array value");
    return arr;
}

void
JsonValue::push(JsonValue v)
{
    panic_if(k != Kind::Array, "JsonValue::push on a non-array value");
    arr.push_back(std::move(v));
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    panic_if(k != Kind::Object,
             "JsonValue::members on a non-object value");
    return obj;
}

void
JsonValue::set(const std::string &key, JsonValue v)
{
    panic_if(k != Kind::Object, "JsonValue::set on a non-object value");
    for (auto &m : obj) {
        if (m.first == key) {
            m.second = std::move(v);
            return;
        }
    }
    obj.emplace_back(key, std::move(v));
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    panic_if(k != Kind::Object,
             "JsonValue::find on a non-object value");
    for (const auto &m : obj)
        if (m.first == key)
            return &m.second;
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *v = find(key);
    panic_if(v == nullptr, "JsonValue::at: no member named '%s'",
             key.c_str());
    return *v;
}

std::size_t
JsonValue::size() const
{
    if (k == Kind::Array)
        return arr.size();
    if (k == Kind::Object)
        return obj.size();
    panic("JsonValue::size on a scalar value");
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

namespace
{

/** Bytes enough for any jsonNumber() output (at most 24). */
constexpr std::size_t kNumberChars = 32;

/** Digits in the mantissa of a scientific-notation decimal. */
int
mantissaDigits(const char *first, const char *last)
{
    int digits = 0;
    for (const char *p = first; p != last && *p != 'e'; ++p)
        digits += *p >= '0' && *p <= '9' ? 1 : 0;
    return digits;
}

/** Write jsonNumber(v) into @p buf (kNumberChars bytes); returns the
 *  end of the text. */
char *
formatNumber(char *buf, double v)
{
    char *const end = buf + kNumberChars;
    if (!std::isfinite(v)) {
        // JSON has no inf/nan; emit null-adjacent sentinels that the
        // strict parser will reject, making the corruption loud.
        const char *text = v > 0 ? "1e999" : (v < 0 ? "-1e999" : "nan");
        return std::copy(text, text + std::strlen(text), buf);
    }
    // Integers inside the exactly-representable window print without
    // a fraction (printf's %.0f).
    if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15)
        return std::to_chars(buf, end, v, std::chars_format::fixed, 0)
            .ptr;
    // The shortest %.*g precision that parses back to the identical
    // bits. No precision below the digit count of the shortest
    // round-trip form can round-trip, so the search starts there.
    // to_chars with a precision is %.*g and from_chars is strtod,
    // both in the C locale.
    int prec = mantissaDigits(
        buf,
        std::to_chars(buf, end, v, std::chars_format::scientific).ptr);
    for (;; ++prec) {
        char *const last =
            std::to_chars(buf, end, v, std::chars_format::general, prec)
                .ptr;
        double back = 0.0;
        std::from_chars(buf, last, back);
        if (back == v || prec >= 17)
            return last;
    }
}

} // namespace

std::string
jsonNumber(double v)
{
    char buf[kNumberChars];
    return std::string(buf, formatNumber(buf, v));
}

void
JsonValue::dumpTo(std::string &out, int indent, int depth) const
{
    auto newline = [&](int d) {
        if (indent <= 0)
            return;
        out += '\n';
        out.append(static_cast<std::size_t>(indent) * d, ' ');
    };
    switch (k) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += b ? "true" : "false";
        break;
      case Kind::Number: {
        char buf[kNumberChars];
        out.append(buf, formatNumber(buf, num));
        break;
      }
      case Kind::String:
        out += '"';
        out += jsonEscape(s);
        out += '"';
        break;
      case Kind::Array:
        if (arr.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < arr.size(); ++i) {
            if (i > 0)
                out += indent > 0 ? "," : ", ";
            newline(depth + 1);
            arr[i].dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
        break;
      case Kind::Object:
        if (obj.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < obj.size(); ++i) {
            if (i > 0)
                out += indent > 0 ? "," : ", ";
            newline(depth + 1);
            out += '"';
            out += jsonEscape(obj[i].first);
            out += "\": ";
            obj[i].second.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
        break;
    }
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    if (indent > 0)
        out += '\n';
    return out;
}

namespace
{

/** Strict recursive-descent JSON parser over a byte range. */
class Parser
{
  public:
    Parser(const std::string &text, std::string *error)
        : src(text), err(error)
    {}

    JsonValue
    document()
    {
        JsonValue v = value();
        if (!failed) {
            skipWs();
            if (pos != src.size())
                fail("trailing characters after the document");
        }
        return failed ? JsonValue{} : v;
    }

  private:
    const std::string &src;
    std::string *err;
    std::size_t pos = 0;
    int depth = 0;
    bool failed = false;

    /** Guard one container level; fails past maxParseDepth. */
    bool
    enter()
    {
        if (++depth > JsonValue::maxParseDepth) {
            fail("nesting deeper than "
                 + std::to_string(JsonValue::maxParseDepth)
                 + " levels");
            return false;
        }
        return true;
    }

    void leave() { --depth; }

    void
    fail(const std::string &why)
    {
        if (!failed && err != nullptr)
            *err = why + " at byte " + std::to_string(pos);
        failed = true;
    }

    void
    skipWs()
    {
        while (pos < src.size()
               && (src[pos] == ' ' || src[pos] == '\t'
                   || src[pos] == '\n' || src[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos < src.size() && src[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        std::size_t n = std::strlen(word);
        if (src.compare(pos, n, word) == 0) {
            pos += n;
            return true;
        }
        return false;
    }

    JsonValue
    value()
    {
        skipWs();
        if (pos >= src.size()) {
            fail("unexpected end of document");
            return {};
        }
        char c = src[pos];
        if (c == '{')
            return objectValue();
        if (c == '[')
            return arrayValue();
        if (c == '"')
            return JsonValue::str(stringBody());
        if (c == 't') {
            if (literal("true"))
                return JsonValue::boolean(true);
        } else if (c == 'f') {
            if (literal("false"))
                return JsonValue::boolean(false);
        } else if (c == 'n') {
            if (literal("null"))
                return {};
        } else if (c == '-' || (c >= '0' && c <= '9')) {
            return numberValue();
        }
        fail("unexpected character");
        return {};
    }

    JsonValue
    numberValue()
    {
        const char *start = src.c_str() + pos;
        char *end = nullptr;
        double v = std::strtod(start, &end);
        if (end == start || !std::isfinite(v)) {
            fail("malformed number");
            return {};
        }
        pos += static_cast<std::size_t>(end - start);
        return JsonValue::number(v);
    }

    std::string
    stringBody()
    {
        std::string out;
        ++pos; // opening quote
        while (pos < src.size()) {
            char c = src[pos];
            if (c == '"') {
                ++pos;
                return out;
            }
            if (c == '\\') {
                ++pos;
                if (pos >= src.size())
                    break;
                char e = src[pos++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u': {
                    if (pos + 4 > src.size()) {
                        fail("truncated \\u escape");
                        return out;
                    }
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = src[pos++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code += static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code += static_cast<unsigned>(h - 'a') + 10;
                        else if (h >= 'A' && h <= 'F')
                            code += static_cast<unsigned>(h - 'A') + 10;
                        else {
                            fail("malformed \\u escape");
                            return out;
                        }
                    }
                    // UTF-8 encode the basic-multilingual-plane code
                    // point (surrogate pairs are not produced by our
                    // writer and are passed through as-is).
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(
                            0x80 | ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                  }
                  default:
                    fail("unknown escape sequence");
                    return out;
                }
            } else {
                out += c;
                ++pos;
            }
        }
        fail("unterminated string");
        return out;
    }

    JsonValue
    arrayValue()
    {
        if (!enter())
            return {};
        JsonValue v = arrayBody();
        leave();
        return v;
    }

    JsonValue
    arrayBody()
    {
        ++pos; // '['
        JsonValue v = JsonValue::array();
        skipWs();
        if (consume(']'))
            return v;
        while (!failed) {
            v.push(value());
            if (consume(']'))
                return v;
            if (!consume(',')) {
                fail("expected ',' or ']' in array");
                return v;
            }
        }
        return v;
    }

    JsonValue
    objectValue()
    {
        if (!enter())
            return {};
        JsonValue v = objectBody();
        leave();
        return v;
    }

    JsonValue
    objectBody()
    {
        ++pos; // '{'
        JsonValue v = JsonValue::object();
        skipWs();
        if (consume('}'))
            return v;
        while (!failed) {
            skipWs();
            if (pos >= src.size() || src[pos] != '"') {
                fail("expected a string key in object");
                return v;
            }
            std::string key = stringBody();
            if (!consume(':')) {
                fail("expected ':' after object key");
                return v;
            }
            v.set(key, value());
            if (consume('}'))
                return v;
            if (!consume(',')) {
                fail("expected ',' or '}' in object");
                return v;
            }
        }
        return v;
    }
};

} // namespace

JsonValue
JsonValue::parse(const std::string &text, std::string *error)
{
    if (error != nullptr)
        error->clear();
    Parser p(text, error);
    return p.document();
}

} // namespace contest

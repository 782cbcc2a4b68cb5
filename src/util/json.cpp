#include "util/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace bpnsp {

namespace {

const std::string kEmptyString;
const std::vector<JsonValue> kEmptyArray;
const std::map<std::string, JsonValue> kEmptyObject;
const JsonValue kNullValue;

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
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
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!(v == v) || v > 1e308 || v < -1e308)   // NaN or +-inf
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    // %.9g may produce "1e+06"-style output, which is valid JSON.
    return buf;
}

double
JsonValue::asDouble(double def) const
{
    return isNumber() ? numVal : def;
}

uint64_t
JsonValue::asUint(uint64_t def) const
{
    if (!isNumber() || numVal < 0)
        return def;
    return static_cast<uint64_t>(numVal);
}

const std::string &
JsonValue::asString() const
{
    return isString() ? strVal : kEmptyString;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    return isArray() ? arrVal : kEmptyArray;
}

const JsonValue &
JsonValue::get(const std::string &key) const
{
    if (isObject()) {
        const auto it = objVal.find(key);
        if (it != objVal.end())
            return it->second;
    }
    return kNullValue;
}

bool
JsonValue::has(const std::string &key) const
{
    return isObject() && objVal.count(key) != 0;
}

const std::map<std::string, JsonValue> &
JsonValue::members() const
{
    return isObject() ? objVal : kEmptyObject;
}

/** Recursive-descent parser over the input buffer. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : in(text) {}

    Status
    run(JsonValue *out)
    {
        Status st = parseValue(out, 0);
        if (!st.ok())
            return st;
        skipWs();
        if (pos != in.size())
            return error("trailing characters after document");
        return Status();
    }

  private:
    static constexpr int kMaxDepth = 64;

    const std::string &in;
    size_t pos = 0;

    Status
    error(const std::string &what) const
    {
        return Status::invalidArgument(
            "json: " + what + " at offset " + std::to_string(pos));
    }

    void
    skipWs()
    {
        while (pos < in.size() &&
               (in[pos] == ' ' || in[pos] == '\t' || in[pos] == '\n' ||
                in[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < in.size() && in[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    consumeWord(const char *word)
    {
        const size_t len = std::string(word).size();
        if (in.compare(pos, len, word) == 0) {
            pos += len;
            return true;
        }
        return false;
    }

    Status
    parseValue(JsonValue *out, int depth)
    {
        if (depth > kMaxDepth)
            return error("nesting too deep");
        skipWs();
        if (pos >= in.size())
            return error("unexpected end of input");
        const char c = in[pos];
        switch (c) {
          case '{':
            return parseObject(out, depth);
          case '[':
            return parseArray(out, depth);
          case '"':
            out->kindTag = JsonValue::Kind::String;
            return parseString(&out->strVal);
          case 't':
            if (consumeWord("true")) {
                out->kindTag = JsonValue::Kind::Bool;
                return Status();
            }
            return error("expected 'true'");
          case 'f':
            if (consumeWord("false")) {
                out->kindTag = JsonValue::Kind::Bool;
                return Status();
            }
            return error("expected 'false'");
          case 'n':
            if (consumeWord("null")) {
                out->kindTag = JsonValue::Kind::Null;
                return Status();
            }
            return error("expected 'null'");
          default:
            return parseNumber(out);
        }
    }

    Status
    parseObject(JsonValue *out, int depth)
    {
        ++pos;   // '{'
        out->kindTag = JsonValue::Kind::Object;
        skipWs();
        if (consume('}'))
            return Status();
        while (true) {
            skipWs();
            if (pos >= in.size() || in[pos] != '"')
                return error("expected object key string");
            std::string key;
            if (Status st = parseString(&key); !st.ok())
                return st;
            skipWs();
            if (!consume(':'))
                return error("expected ':' after object key");
            JsonValue member;
            if (Status st = parseValue(&member, depth + 1); !st.ok())
                return st;
            out->objVal[key] = std::move(member);
            skipWs();
            if (consume(','))
                continue;
            if (consume('}'))
                return Status();
            return error("expected ',' or '}' in object");
        }
    }

    Status
    parseArray(JsonValue *out, int depth)
    {
        ++pos;   // '['
        out->kindTag = JsonValue::Kind::Array;
        skipWs();
        if (consume(']'))
            return Status();
        while (true) {
            JsonValue item;
            if (Status st = parseValue(&item, depth + 1); !st.ok())
                return st;
            out->arrVal.push_back(std::move(item));
            skipWs();
            if (consume(','))
                continue;
            if (consume(']'))
                return Status();
            return error("expected ',' or ']' in array");
        }
    }

    Status
    parseString(std::string *out)
    {
        ++pos;   // opening quote
        out->clear();
        while (pos < in.size()) {
            const char c = in[pos];
            if (c == '"') {
                ++pos;
                return Status();
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return error("unescaped control character in string");
            if (c != '\\') {
                out->push_back(c);
                ++pos;
                continue;
            }
            ++pos;
            if (pos >= in.size())
                return error("dangling escape");
            const char esc = in[pos++];
            switch (esc) {
              case '"': out->push_back('"'); break;
              case '\\': out->push_back('\\'); break;
              case '/': out->push_back('/'); break;
              case 'b': out->push_back('\b'); break;
              case 'f': out->push_back('\f'); break;
              case 'n': out->push_back('\n'); break;
              case 'r': out->push_back('\r'); break;
              case 't': out->push_back('\t'); break;
              case 'u': {
                if (pos + 4 > in.size())
                    return error("truncated \\u escape");
                unsigned code = 0;
                // Advance past a digit only once it parsed, so an
                // error names the offending byte.
                for (int i = 0; i < 4; ++i, ++pos) {
                    const char h = in[pos];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return error("bad hex digit in \\u escape");
                }
                // UTF-8 encode the code point (BMP only; surrogate
                // pairs are not produced by any bpnsp writer).
                if (code < 0x80) {
                    out->push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out->push_back(
                        static_cast<char>(0xc0 | (code >> 6)));
                    out->push_back(
                        static_cast<char>(0x80 | (code & 0x3f)));
                } else {
                    out->push_back(
                        static_cast<char>(0xe0 | (code >> 12)));
                    out->push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3f)));
                    out->push_back(
                        static_cast<char>(0x80 | (code & 0x3f)));
                }
                break;
              }
              default:
                return error("unknown escape character");
            }
        }
        return error("unterminated string");
    }

    Status
    parseNumber(JsonValue *out)
    {
        const size_t start = pos;
        if (pos < in.size() && in[pos] == '-')
            ++pos;
        while (pos < in.size() &&
               (std::isdigit(static_cast<unsigned char>(in[pos])) ||
                in[pos] == '.' || in[pos] == 'e' || in[pos] == 'E' ||
                in[pos] == '+' || in[pos] == '-'))
            ++pos;
        if (pos == start)
            return error("expected a value");
        const std::string token = in.substr(start, pos - start);
        char *end = nullptr;
        const double v = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            return error("malformed number '" + token + "'");
        out->kindTag = JsonValue::Kind::Number;
        out->numVal = v;
        return Status();
    }
};

Status
JsonValue::parse(const std::string &text, JsonValue *out)
{
    *out = JsonValue();
    return JsonParser(text).run(out);
}

} // namespace bpnsp

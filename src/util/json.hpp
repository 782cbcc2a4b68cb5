/**
 * @file
 * Minimal JSON document model and recursive-descent parser, plus the
 * one string and number writer.
 *
 * The repository renders all of its JSON by hand (run reports, campaign
 * results) through jsonEscape()/jsonNumber(). The parser reads it back:
 * `bpnsp_client` pretty-prints the daemon's Stats run report, and the
 * tests check run reports through it. It covers the full JSON grammar
 * (objects, arrays, strings with escapes, numbers, booleans, null)
 * with strict error reporting and no dependencies, and is small
 * enough to audit.
 *
 * Numbers are held as doubles; integral values up to 2^53 round-trip
 * exactly, which covers every counter and histogram edge a run report
 * carries.
 */

#ifndef BPNSP_UTIL_JSON_HPP
#define BPNSP_UTIL_JSON_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace bpnsp {

/**
 * Escape `s` for the inside of a JSON string: quote, backslash, \n,
 * \r and \t get their short escapes, other control bytes \u00XX.
 */
std::string jsonEscape(const std::string &s);

/** A double as a JSON number (%.9g); NaN and +-inf become null. */
std::string jsonNumber(double v);

/** One JSON value (object, array, string, number, bool, or null). */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    JsonValue() = default;

    Kind kind() const { return kindTag; }
    bool isNull() const { return kindTag == Kind::Null; }
    bool isNumber() const { return kindTag == Kind::Number; }
    bool isString() const { return kindTag == Kind::String; }
    bool isArray() const { return kindTag == Kind::Array; }
    bool isObject() const { return kindTag == Kind::Object; }

    /** Value accessors; fatal-free, return the default on kind mismatch. */
    double asDouble(double def = 0.0) const;
    uint64_t asUint(uint64_t def = 0) const;
    const std::string &asString() const;   ///< "" on mismatch

    /** Array access ([] of a non-array is empty). */
    const std::vector<JsonValue> &items() const;

    /** Object member lookup; null-kind sentinel when absent. */
    const JsonValue &get(const std::string &key) const;
    bool has(const std::string &key) const;

    /** Object members in key order (objects only). */
    const std::map<std::string, JsonValue> &members() const;

    /**
     * Parse a complete JSON document. On grammar violations returns
     * InvalidArgument naming the byte offset and what was expected;
     * trailing non-whitespace after the document is an error too.
     */
    static Status parse(const std::string &text, JsonValue *out);

  private:
    Kind kindTag = Kind::Null;
    double numVal = 0.0;
    std::string strVal;
    std::vector<JsonValue> arrVal;
    std::map<std::string, JsonValue> objVal;

    friend class JsonParser;
};

} // namespace bpnsp

#endif // BPNSP_UTIL_JSON_HPP

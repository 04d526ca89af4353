/**
 * @file
 * Minimal JSON value type: build, serialize, parse.
 *
 * Exists so the simulator can emit machine-readable results (the
 * toleo_sim sweep driver, future BENCH_*.json perf tracking) and so
 * tests can parse that output back without an external dependency.
 * Objects preserve insertion order, which keeps serialized reports
 * stable across runs and easy to diff.
 */

#ifndef TOLEO_COMMON_JSON_HH
#define TOLEO_COMMON_JSON_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace toleo {

class Json
{
  public:
    Json() : type_(Type::Null) {}
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(double d) : type_(Type::Number), num_(d) {}
    Json(int i) : type_(Type::Number), num_(i) {}
    Json(unsigned u) : type_(Type::Number), num_(u) {}
    Json(std::int64_t i)
        : type_(Type::Number), num_(static_cast<double>(i)) {}
    Json(std::uint64_t u)
        : type_(Type::Number), num_(static_cast<double>(u)) {}
    Json(const char *s) : type_(Type::String), str_(s) {}
    Json(std::string s) : type_(Type::String), str_(std::move(s)) {}

    static Json array() { Json j; j.type_ = Type::Array; return j; }
    static Json object() { Json j; j.type_ = Type::Object; return j; }

    bool isNull() const { return type_ == Type::Null; }
    bool isString() const { return type_ == Type::String; }

    /** Value accessors; panic() on type mismatch. */
    bool asBool() const;
    double asDouble() const;
    std::uint64_t asUint() const;
    const std::string &asString() const;

    /** Array access. */
    std::size_t size() const;
    const Json &at(std::size_t i) const;
    void push_back(Json v);

    /** Object access: operator[] inserts, get() returns null ptr on
     *  missing key. */
    Json &operator[](const std::string &key);
    const Json *get(const std::string &key) const;
    bool has(const std::string &key) const { return get(key); }
    const std::vector<std::pair<std::string, Json>> &items() const;

    /**
     * Serialize.  @p indent < 0 emits the compact single-line form;
     * otherwise nested values are pretty-printed with that many
     * spaces per level.
     */
    void dump(std::ostream &os, int indent = -1) const;
    std::string dump(int indent = -1) const;

    /**
     * Parse a JSON document.
     * @param err On failure receives a message with offset; if null,
     *        failures are reported via fatal().
     * @return The parsed value, or a Null value on failure.
     */
    static Json parse(const std::string &text,
                      std::string *err = nullptr);

  private:
    enum class Type { Null, Bool, Number, String, Array, Object };

    void dumpIndented(std::ostream &os, int indent, int depth) const;

    Type type_;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<Json> arr_;
    std::vector<std::pair<std::string, Json>> obj_;
};

} // namespace toleo

#endif // TOLEO_COMMON_JSON_HH

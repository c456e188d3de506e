#include "src/json/parser.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace lsmcol {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> Parse() {
    SkipWhitespace();
    Value v;
    LSMCOL_RETURN_NOT_OK(ParseValue(&v, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 256;

  Status ParseValue(Value* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        LSMCOL_RETURN_NOT_OK(ParseString(&s));
        *out = Value::String(std::move(s));
        return Status::OK();
      }
      case 't':
        LSMCOL_RETURN_NOT_OK(Expect("true"));
        *out = Value::Bool(true);
        return Status::OK();
      case 'f':
        LSMCOL_RETURN_NOT_OK(Expect("false"));
        *out = Value::Bool(false);
        return Status::OK();
      case 'n':
        LSMCOL_RETURN_NOT_OK(Expect("null"));
        *out = Value::Null();
        return Status::OK();
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(Value* out, int depth) {
    ++pos_;  // '{'
    *out = Value::MakeObject();
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      SkipWhitespace();
      if (Peek() != '"') return Error("expected object key");
      std::string key;
      LSMCOL_RETURN_NOT_OK(ParseString(&key));
      SkipWhitespace();
      if (Peek() != ':') return Error("expected ':' after key");
      ++pos_;
      Value v;
      LSMCOL_RETURN_NOT_OK(ParseValue(&v, depth + 1));
      out->Set(std::move(key), std::move(v));
      SkipWhitespace();
      char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Status::OK();
      }
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(Value* out, int depth) {
    ++pos_;  // '['
    *out = Value::MakeArray();
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      Value v;
      LSMCOL_RETURN_NOT_OK(ParseValue(&v, depth + 1));
      out->Push(std::move(v));
      SkipWhitespace();
      char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Status::OK();
      }
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c == '\\') {
        if (pos_ >= text_.size()) return Error("bad escape");
        char e = text_[pos_++];
        switch (e) {
          case '"':
            out->push_back('"');
            break;
          case '\\':
            out->push_back('\\');
            break;
          case '/':
            out->push_back('/');
            break;
          case 'b':
            out->push_back('\b');
            break;
          case 'f':
            out->push_back('\f');
            break;
          case 'n':
            out->push_back('\n');
            break;
          case 'r':
            out->push_back('\r');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'u': {
            unsigned code = 0;
            LSMCOL_RETURN_NOT_OK(ParseHex4(&code));
            if (code >= 0xDC00 && code <= 0xDFFF) {
              return Error("lone low surrogate in \\u escape");
            }
            if (code >= 0xD800 && code <= 0xDBFF) {
              // A high surrogate must be followed by an escaped low one;
              // the pair encodes one code point past U+FFFF.
              unsigned low = 0;
              if (text_.substr(pos_, 2) != "\\u") {
                return Error("lone high surrogate in \\u escape");
              }
              pos_ += 2;
              LSMCOL_RETURN_NOT_OK(ParseHex4(&low));
              if (low < 0xDC00 || low > 0xDFFF) {
                return Error("lone high surrogate in \\u escape");
              }
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
            AppendUtf8(out, code);
            break;
          }
          default:
            return Error("unknown escape character");
        }
      } else {
        out->push_back(c);
      }
    }
    return Error("unterminated string");
  }

  /// Four hex digits of a \u escape.
  Status ParseHex4(unsigned* code) {
    if (pos_ + 4 > text_.size()) return Error("bad \\u escape");
    *code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      *code <<= 4;
      if (h >= '0' && h <= '9') {
        *code |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        *code |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        *code |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        return Error("bad \\u escape digit");
      }
    }
    return Status::OK();
  }

  static void AppendUtf8(std::string* out, unsigned code) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Status ParseNumber(Value* out) {
    size_t start = pos_;
    bool is_double = false;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      return Error("invalid number");
    }
    std::string_view num = text_.substr(start, pos_ - start);
    if (!is_double) {
      int64_t v = 0;
      auto [p, ec] = std::from_chars(num.data(), num.data() + num.size(), v);
      if (ec == std::errc() && p == num.data() + num.size()) {
        *out = Value::Int(v);
        return Status::OK();
      }
      // Fall through to double on int64 overflow.
    }
    double d = 0;
    auto [p, ec] = std::from_chars(num.data(), num.data() + num.size(), d);
    if (ec != std::errc() || p != num.data() + num.size()) {
      return Error("invalid number");
    }
    *out = Value::Double(d);
    return Status::OK();
  }

  Status Expect(const char* literal) {
    size_t len = std::strlen(literal);
    if (text_.substr(pos_, len) != literal) {
      return Error(std::string("expected '") + literal + "'");
    }
    pos_ += len;
    return Status::OK();
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  Status Error(std::string msg) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " +
                                   std::move(msg));
  }

  std::string_view text_;
  size_t pos_ = 0;
};

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendNumber(std::string* out, double d) {
  if (std::isnan(d) || std::isinf(d)) {
    *out += "null";  // JSON has no NaN/Inf.
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  *out += buf;
  // Ensure a double round-trips as a double (keep a '.' or exponent).
  if (std::strpbrk(buf, ".eE") == nullptr) *out += ".0";
}

void ToJsonImpl(const Value& v, std::string* out, int indent, int depth) {
  auto newline = [&] {
    if (indent > 0) {
      out->push_back('\n');
      out->append(static_cast<size_t>(indent * depth), ' ');
    }
  };
  switch (v.type()) {
    case ValueType::kMissing:
    case ValueType::kNull:
      *out += "null";
      return;
    case ValueType::kBool:
      *out += v.bool_value() ? "true" : "false";
      return;
    case ValueType::kInt64:
      *out += std::to_string(v.int_value());
      return;
    case ValueType::kDouble:
      AppendNumber(out, v.double_value());
      return;
    case ValueType::kString:
      AppendEscaped(out, v.string_value());
      return;
    case ValueType::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Value& e : v.array()) {
        if (!first) out->push_back(',');
        first = false;
        ++depth;
        newline();
        --depth;
        ToJsonImpl(e, out, indent, depth + 1);
      }
      if (!first) newline();
      out->push_back(']');
      return;
    }
    case ValueType::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, val] : v.object()) {
        if (!first) out->push_back(',');
        first = false;
        ++depth;
        newline();
        --depth;
        AppendEscaped(out, key);
        out->push_back(':');
        if (indent > 0) out->push_back(' ');
        ToJsonImpl(val, out, indent, depth + 1);
      }
      if (!first) newline();
      out->push_back('}');
      return;
    }
  }
}

}  // namespace

Result<Value> ParseJson(std::string_view text) {
  Parser parser(text);
  return parser.Parse();
}

std::string ToJson(const Value& v) {
  std::string out;
  ToJsonImpl(v, &out, 0, 0);
  return out;
}

std::string ToPrettyJson(const Value& v) {
  std::string out;
  ToJsonImpl(v, &out, 2, 0);
  return out;
}

}  // namespace lsmcol

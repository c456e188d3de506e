#include "src/layouts/row_codec.h"

namespace lsmcol {

const char* LayoutKindName(LayoutKind k) {
  switch (k) {
    case LayoutKind::kOpen:
      return "Open";
    case LayoutKind::kVb:
      return "VB";
    case LayoutKind::kApax:
      return "APAX";
    case LayoutKind::kAmax:
      return "AMAX";
  }
  return "?";
}

namespace {

// Shared tag space.
constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagFalse = 1;
constexpr uint8_t kTagTrue = 2;
constexpr uint8_t kTagInt = 3;
constexpr uint8_t kTagDouble = 4;
constexpr uint8_t kTagString = 5;
constexpr uint8_t kTagObject = 6;
constexpr uint8_t kTagArray = 7;

// The deepest nesting a row decoder accepts. Arbitrary bytes must not
// exhaust the stack; no JSON document nests deeper than 257 levels.
constexpr int kMaxRowNesting = 1024;

Status TooDeep() { return Status::Corruption("row nests too deep"); }

// ---------------------------------------------------------------- Open ---

// Recursive encoding: each child is built in its own buffer, then copied
// into the parent — the leaf-to-root copying of AsterixDB's format.
void OpenEncodeValue(const Value& v, Buffer* out) {
  switch (v.type()) {
    case ValueType::kMissing:
    case ValueType::kNull:
      out->AppendByte(kTagNull);
      return;
    case ValueType::kBool:
      out->AppendByte(v.bool_value() ? kTagTrue : kTagFalse);
      return;
    case ValueType::kInt64:
      out->AppendByte(kTagInt);
      out->AppendFixed64(static_cast<uint64_t>(v.int_value()));
      return;
    case ValueType::kDouble:
      out->AppendByte(kTagDouble);
      out->AppendDouble(v.double_value());
      return;
    case ValueType::kString:
      out->AppendByte(kTagString);
      out->AppendFixed32(static_cast<uint32_t>(v.string_value().size()));
      out->Append(Slice(v.string_value()));
      return;
    case ValueType::kObject: {
      // Children first (separate buffers), then assemble with offsets.
      std::vector<Buffer> children;
      children.reserve(v.object().size());
      size_t header_size = 1 + 4 + 4;  // tag + total size + count
      for (const auto& [name, child] : v.object()) {
        children.emplace_back();
        OpenEncodeValue(child, &children.back());
        header_size += 4 + name.size() + 4;  // name len + name + offset
      }
      size_t total = header_size;
      for (const Buffer& c : children) total += c.size();
      out->AppendByte(kTagObject);
      out->AppendFixed32(static_cast<uint32_t>(total));
      out->AppendFixed32(static_cast<uint32_t>(v.object().size()));
      size_t child_offset = header_size;  // relative to the tag byte
      size_t i = 0;
      for (const auto& [name, child] : v.object()) {
        (void)child;
        out->AppendFixed32(static_cast<uint32_t>(name.size()));
        out->Append(Slice(name));
        out->AppendFixed32(static_cast<uint32_t>(child_offset));
        child_offset += children[i++].size();
      }
      for (const Buffer& c : children) out->Append(c.slice());  // the copy
      return;
    }
    case ValueType::kArray: {
      std::vector<Buffer> children;
      children.reserve(v.array().size());
      for (const Value& e : v.array()) {
        children.emplace_back();
        OpenEncodeValue(e, &children.back());
      }
      size_t header_size = 1 + 4 + 4 + 4 * children.size();
      size_t total = header_size;
      for (const Buffer& c : children) total += c.size();
      out->AppendByte(kTagArray);
      out->AppendFixed32(static_cast<uint32_t>(total));
      out->AppendFixed32(static_cast<uint32_t>(children.size()));
      size_t child_offset = header_size;
      for (const Buffer& c : children) {
        out->AppendFixed32(static_cast<uint32_t>(child_offset));
        child_offset += c.size();
      }
      for (const Buffer& c : children) out->Append(c.slice());
      return;
    }
  }
}

// A container's children follow its entries in entry order, each
// ending where the next begins (the last at the container's total size):
// an offset must lie past the entries read so far and past the previous
// offset. So a child is decoded from its own bytes only, and no decode
// revisits bytes or loops.
Status CheckChildOffset(uint32_t offset, size_t entries_end,
                        uint32_t previous, bool first, uint32_t total) {
  if (offset < entries_end || offset >= total ||
      (!first && offset <= previous)) {
    return Status::Corruption("open: bad offset");
  }
  return Status::OK();
}

Status OpenDecodeValue(Slice bytes, Value* out, int depth = 0) {
  if (bytes.empty()) return Status::Corruption("open: empty value");
  if (depth > kMaxRowNesting) return TooDeep();
  const uint8_t tag = static_cast<uint8_t>(bytes[0]);
  BufferReader r(bytes.SubSlice(1, bytes.size() - 1));
  switch (tag) {
    case kTagNull:
      *out = Value::Null();
      return Status::OK();
    case kTagFalse:
      *out = Value::Bool(false);
      return Status::OK();
    case kTagTrue:
      *out = Value::Bool(true);
      return Status::OK();
    case kTagInt: {
      uint64_t v = 0;
      LSMCOL_RETURN_NOT_OK(r.ReadFixed64(&v));
      *out = Value::Int(static_cast<int64_t>(v));
      return Status::OK();
    }
    case kTagDouble: {
      double d = 0;
      LSMCOL_RETURN_NOT_OK(r.ReadDouble(&d));
      *out = Value::Double(d);
      return Status::OK();
    }
    case kTagString: {
      uint32_t len = 0;
      LSMCOL_RETURN_NOT_OK(r.ReadFixed32(&len));
      Slice s;
      LSMCOL_RETURN_NOT_OK(r.ReadBytes(len, &s));
      *out = Value::String(s.ToString());
      return Status::OK();
    }
    case kTagObject:
    case kTagArray: {
      const bool object = tag == kTagObject;
      uint32_t total = 0, count = 0;
      LSMCOL_RETURN_NOT_OK(r.ReadFixed32(&total));
      LSMCOL_RETURN_NOT_OK(r.ReadFixed32(&count));
      if (total > bytes.size()) return Status::Corruption("open: bad size");
      *out = object ? Value::MakeObject() : Value::MakeArray();
      // Child i is decoded once entry i + 1 gives its end.
      Slice name;
      uint32_t offset = 0;
      auto add_child = [&](uint32_t end) -> Status {
        Value child;
        LSMCOL_RETURN_NOT_OK(OpenDecodeValue(
            bytes.SubSlice(offset, end - offset), &child, depth + 1));
        if (object) {
          out->Set(name.ToString(), std::move(child));
        } else {
          out->Push(std::move(child));
        }
        return Status::OK();
      };
      for (uint32_t i = 0; i < count; ++i) {
        Slice next_name;
        if (object) {
          uint32_t name_len = 0;
          LSMCOL_RETURN_NOT_OK(r.ReadFixed32(&name_len));
          LSMCOL_RETURN_NOT_OK(r.ReadBytes(name_len, &next_name));
        }
        uint32_t next_offset = 0;
        LSMCOL_RETURN_NOT_OK(r.ReadFixed32(&next_offset));
        LSMCOL_RETURN_NOT_OK(CheckChildOffset(next_offset,
                                              bytes.size() - r.remaining(),
                                              offset, i == 0, total));
        if (i > 0) LSMCOL_RETURN_NOT_OK(add_child(next_offset));
        name = next_name;
        offset = next_offset;
      }
      if (count > 0) LSMCOL_RETURN_NOT_OK(add_child(total));
      return Status::OK();
    }
    default:
      return Status::Corruption("open: unknown tag");
  }
}

// Navigate offsets: O(fields of each object on the path) instead of a full
// decode.
Status OpenExtract(Slice bytes, const std::vector<std::string>& path,
                   size_t step, Value* out) {
  if (step == path.size()) return OpenDecodeValue(bytes, out);
  if (bytes.empty()) return Status::Corruption("open: empty value");
  const uint8_t tag = static_cast<uint8_t>(bytes[0]);
  if (tag == kTagArray) {
    // SQL++ semantics: the remaining path maps over the elements. Offset
    // navigation stops here; decode and walk.
    Value decoded;
    LSMCOL_RETURN_NOT_OK(OpenDecodeValue(bytes, &decoded));
    *out = WalkValuePath(decoded, path, step);
    return Status::OK();
  }
  if (tag != kTagObject) {
    *out = Value::Missing();
    return Status::OK();
  }
  BufferReader r(bytes.SubSlice(1, bytes.size() - 1));
  uint32_t total = 0, count = 0;
  LSMCOL_RETURN_NOT_OK(r.ReadFixed32(&total));
  LSMCOL_RETURN_NOT_OK(r.ReadFixed32(&count));
  if (total > bytes.size()) return Status::Corruption("open: bad size");
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t name_len = 0, offset = 0;
    LSMCOL_RETURN_NOT_OK(r.ReadFixed32(&name_len));
    Slice name;
    LSMCOL_RETURN_NOT_OK(r.ReadBytes(name_len, &name));
    LSMCOL_RETURN_NOT_OK(r.ReadFixed32(&offset));
    if (name.view() == path[step]) {
      if (offset >= total) return Status::Corruption("open: bad offset");
      return OpenExtract(bytes.SubSlice(offset, total - offset), path,
                         step + 1, out);
    }
  }
  *out = Value::Missing();
  return Status::OK();
}

// ------------------------------------------------------------------ VB ---

void VbCollectNames(const Value& v, std::vector<std::string>* names) {
  if (v.is_object()) {
    for (const auto& [name, child] : v.object()) {
      bool found = false;
      for (const auto& n : *names) {
        if (n == name) {
          found = true;
          break;
        }
      }
      if (!found) names->push_back(name);
      VbCollectNames(child, names);
    }
  } else if (v.is_array()) {
    for (const Value& e : v.array()) VbCollectNames(e, names);
  }
}

uint64_t VbNameId(const std::vector<std::string>& names,
                  const std::string& name) {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  LSMCOL_CHECK(false);
  return 0;
}

// Single forward pass; every value written exactly once.
void VbEncodeValue(const Value& v, const std::vector<std::string>& names,
                   Buffer* out) {
  switch (v.type()) {
    case ValueType::kMissing:
    case ValueType::kNull:
      out->AppendByte(kTagNull);
      return;
    case ValueType::kBool:
      out->AppendByte(v.bool_value() ? kTagTrue : kTagFalse);
      return;
    case ValueType::kInt64:
      out->AppendByte(kTagInt);
      out->AppendSignedVarint64(v.int_value());
      return;
    case ValueType::kDouble:
      out->AppendByte(kTagDouble);
      out->AppendDouble(v.double_value());
      return;
    case ValueType::kString:
      out->AppendByte(kTagString);
      out->AppendLengthPrefixed(Slice(v.string_value()));
      return;
    case ValueType::kObject:
      out->AppendByte(kTagObject);
      out->AppendVarint64(v.object().size());
      for (const auto& [name, child] : v.object()) {
        out->AppendVarint64(VbNameId(names, name));
        VbEncodeValue(child, names, out);
      }
      return;
    case ValueType::kArray:
      out->AppendByte(kTagArray);
      out->AppendVarint64(v.array().size());
      for (const Value& e : v.array()) VbEncodeValue(e, names, out);
      return;
  }
}

Status VbDecodeValue(BufferReader* r, const std::vector<Slice>& names,
                     Value* out, int depth = 0) {
  if (depth > kMaxRowNesting) return TooDeep();
  uint8_t tag = 0;
  LSMCOL_RETURN_NOT_OK(r->ReadByte(&tag));
  switch (tag) {
    case kTagNull:
      *out = Value::Null();
      return Status::OK();
    case kTagFalse:
      *out = Value::Bool(false);
      return Status::OK();
    case kTagTrue:
      *out = Value::Bool(true);
      return Status::OK();
    case kTagInt: {
      int64_t v = 0;
      LSMCOL_RETURN_NOT_OK(r->ReadSignedVarint64(&v));
      *out = Value::Int(v);
      return Status::OK();
    }
    case kTagDouble: {
      double d = 0;
      LSMCOL_RETURN_NOT_OK(r->ReadDouble(&d));
      *out = Value::Double(d);
      return Status::OK();
    }
    case kTagString: {
      Slice s;
      LSMCOL_RETURN_NOT_OK(r->ReadLengthPrefixed(&s));
      *out = Value::String(s.ToString());
      return Status::OK();
    }
    case kTagObject: {
      uint64_t count = 0;
      LSMCOL_RETURN_NOT_OK(r->ReadVarint64(&count));
      *out = Value::MakeObject();
      for (uint64_t i = 0; i < count; ++i) {
        uint64_t name_id = 0;
        LSMCOL_RETURN_NOT_OK(r->ReadVarint64(&name_id));
        if (name_id >= names.size()) {
          return Status::Corruption("vb: bad name id");
        }
        Value child;
        LSMCOL_RETURN_NOT_OK(VbDecodeValue(r, names, &child, depth + 1));
        out->Set(names[name_id].ToString(), std::move(child));
      }
      return Status::OK();
    }
    case kTagArray: {
      uint64_t count = 0;
      LSMCOL_RETURN_NOT_OK(r->ReadVarint64(&count));
      *out = Value::MakeArray();
      for (uint64_t i = 0; i < count; ++i) {
        Value child;
        LSMCOL_RETURN_NOT_OK(VbDecodeValue(r, names, &child, depth + 1));
        out->Push(std::move(child));
      }
      return Status::OK();
    }
    default:
      return Status::Corruption("vb: unknown tag");
  }
}

// Skip one value without materializing it (linear walk).
Status VbSkipValue(BufferReader* r) {
  uint8_t tag = 0;
  LSMCOL_RETURN_NOT_OK(r->ReadByte(&tag));
  switch (tag) {
    case kTagNull:
    case kTagFalse:
    case kTagTrue:
      return Status::OK();
    case kTagInt: {
      int64_t v;
      return r->ReadSignedVarint64(&v);
    }
    case kTagDouble:
      return r->Skip(8);
    case kTagString: {
      Slice s;
      return r->ReadLengthPrefixed(&s);
    }
    case kTagObject: {
      uint64_t count = 0;
      LSMCOL_RETURN_NOT_OK(r->ReadVarint64(&count));
      for (uint64_t i = 0; i < count; ++i) {
        uint64_t name_id = 0;
        LSMCOL_RETURN_NOT_OK(r->ReadVarint64(&name_id));
        LSMCOL_RETURN_NOT_OK(VbSkipValue(r));
      }
      return Status::OK();
    }
    case kTagArray: {
      uint64_t count = 0;
      LSMCOL_RETURN_NOT_OK(r->ReadVarint64(&count));
      for (uint64_t i = 0; i < count; ++i) {
        LSMCOL_RETURN_NOT_OK(VbSkipValue(r));
      }
      return Status::OK();
    }
    default:
      return Status::Corruption("vb: unknown tag");
  }
}

Status VbExtract(BufferReader* r, const std::vector<Slice>& names,
                 const std::vector<std::string>& path, size_t step,
                 Value* out) {
  if (step == path.size()) return VbDecodeValue(r, names, out);
  uint8_t tag = 0;
  LSMCOL_RETURN_NOT_OK(r->ReadByte(&tag));
  if (tag == kTagArray) {
    // SQL++ semantics: map the remaining path over the elements.
    uint64_t count = 0;
    LSMCOL_RETURN_NOT_OK(r->ReadVarint64(&count));
    Value mapped = Value::MakeArray();
    for (uint64_t i = 0; i < count; ++i) {
      Value element;
      LSMCOL_RETURN_NOT_OK(VbDecodeValue(r, names, &element));
      Value sub = WalkValuePath(element, path, step);
      if (!sub.is_missing()) mapped.Push(std::move(sub));
    }
    *out = std::move(mapped);
    return Status::OK();
  }
  if (tag != kTagObject) {
    *out = Value::Missing();
    return Status::OK();
  }
  uint64_t count = 0;
  LSMCOL_RETURN_NOT_OK(r->ReadVarint64(&count));
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t name_id = 0;
    LSMCOL_RETURN_NOT_OK(r->ReadVarint64(&name_id));
    if (name_id >= names.size()) return Status::Corruption("vb: bad name id");
    if (names[name_id].view() == path[step]) {
      return VbExtract(r, names, path, step + 1, out);
    }
    LSMCOL_RETURN_NOT_OK(VbSkipValue(r));  // linear: skip siblings
  }
  *out = Value::Missing();
  return Status::OK();
}

Status VbReadNames(BufferReader* r, std::vector<Slice>* names) {
  uint64_t count = 0;
  LSMCOL_RETURN_NOT_OK(r->ReadVarint64(&count));
  // Each name takes at least its length byte.
  if (count > r->remaining()) return Status::Corruption("vb: bad name count");
  names->resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    LSMCOL_RETURN_NOT_OK(r->ReadLengthPrefixed(&(*names)[i]));
  }
  return Status::OK();
}

}  // namespace

void OpenCodec::Encode(const Value& record, Buffer* out) const {
  OpenEncodeValue(record, out);
}

Status OpenCodec::Decode(Slice bytes, Value* out) const {
  return OpenDecodeValue(bytes, out);
}

Status OpenCodec::ExtractPath(Slice bytes,
                              const std::vector<std::string>& path,
                              Value* out) const {
  return OpenExtract(bytes, path, 0, out);
}

void VbCodec::Encode(const Value& record, Buffer* out) const {
  std::vector<std::string> names;
  VbCollectNames(record, &names);
  out->AppendVarint64(names.size());
  for (const auto& name : names) out->AppendLengthPrefixed(Slice(name));
  VbEncodeValue(record, names, out);
}

Status VbCodec::Decode(Slice bytes, Value* out) const {
  BufferReader r(bytes);
  std::vector<Slice> names;
  LSMCOL_RETURN_NOT_OK(VbReadNames(&r, &names));
  return VbDecodeValue(&r, names, out);
}

Status VbCodec::ExtractPath(Slice bytes, const std::vector<std::string>& path,
                            Value* out) const {
  BufferReader r(bytes);
  std::vector<Slice> names;
  LSMCOL_RETURN_NOT_OK(VbReadNames(&r, &names));
  return VbExtract(&r, names, path, 0, out);
}

const RowCodec& GetRowCodec(LayoutKind kind) {
  static const OpenCodec* open = new OpenCodec();
  static const VbCodec* vb = new VbCodec();
  LSMCOL_CHECK(kind == LayoutKind::kOpen || kind == LayoutKind::kVb);
  return kind == LayoutKind::kOpen ? static_cast<const RowCodec&>(*open)
                                   : static_cast<const RowCodec&>(*vb);
}

}  // namespace lsmcol

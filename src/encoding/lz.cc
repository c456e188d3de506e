#include "src/encoding/lz.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>

namespace lsmcol {
namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatchToken = 127;  // max (tag >> 1) for a match token
constexpr size_t kMaxMatch = kMaxMatchToken + kMinMatch;  // bytes per token
constexpr size_t kMaxLiteralRun = 127;
constexpr size_t kWindow = 65535;
constexpr size_t kHashBits = 15;
// The match finder's probe step: one byte, plus one per kSkipAfter
// consecutive misses, up to kMaxStep bytes.
constexpr size_t kSkipAfter = 128;
constexpr size_t kMaxStep = 8;

// The decoder's fast loop runs while more than this many input and output
// bytes remain. A token then needs no bounds check: it reads at most a tag
// plus a literal rounded up to 16-byte chunks (129 bytes) or a tag plus a
// 10-byte varint, and writes at most a match rounded up to 8-byte words
// (136 bytes) or a widened short-offset pattern (138).
constexpr size_t kFastSlack = 160;

inline uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// Fixed-size copies: each compiles to one or two register moves. Source and
// destination may overlap; the load completes before the store.
inline void Copy8(uint8_t* dst, const uint8_t* src) {
  const uint64_t v = Load64(src);
  std::memcpy(dst, &v, 8);
}

inline void Copy16(uint8_t* dst, const uint8_t* src) {
  uint8_t v[16];
  std::memcpy(v, src, 16);
  std::memcpy(dst, v, 16);
}

/// Copies exactly n bytes between disjoint ranges with fixed-size moves
/// (the last one overlapping the previous), so short token payloads never
/// go through a variable-length memcpy, which compilers may emit as
/// `rep movs` with a high start-up cost.
inline void CopyExact(uint8_t* dst, const uint8_t* src, size_t n) {
  if (n >= 16) {
    for (size_t k = 0; k + 16 < n; k += 16) Copy16(dst + k, src + k);
    Copy16(dst + n - 16, src + n - 16);
  } else if (n >= 8) {
    Copy8(dst, src);
    Copy8(dst + n - 8, src + n - 8);
  } else {
    for (size_t k = 0; k < n; ++k) dst[k] = src[k];
  }
}

inline uint32_t Hash4(const uint8_t* p) {
  return (Load32(p) * 2654435761u) >> (32 - kHashBits);
}

/// Number of leading bytes at which a and b agree, comparing up to b_end
/// (a < b, so a stays in bounds too). Eight bytes per step.
inline size_t MatchLength(const uint8_t* a, const uint8_t* b,
                          const uint8_t* b_end) {
  const uint8_t* const start = b;
  while (b_end - b >= 8) {
    const uint64_t diff = Load64(a) ^ Load64(b);
    if (diff != 0) {
      const int bits = std::endian::native == std::endian::little
                           ? std::countr_zero(diff)
                           : std::countl_zero(diff);
      return static_cast<size_t>(b - start) + static_cast<size_t>(bits >> 3);
    }
    a += 8;
    b += 8;
  }
  while (b < b_end && *a == *b) {
    ++a;
    ++b;
  }
  return static_cast<size_t>(b - start);
}

/// The match finder's hash table: one per thread, allocated on first use
/// and reused. A slot holds position + base_; each call raises base_ past
/// the positions of the previous one, so stale slots read as empty and no
/// call has to clear the table. Positions are 32-bit: past 4 GiB they wrap,
/// and a wrapped candidate is still checked byte for byte.
class MatchTable {
 public:
  void Start(size_t n) {
    if (slots_ == nullptr || n >= UINT32_MAX - base_) {
      slots_ = std::make_unique<uint32_t[]>(kSlots);  // zeroed
      base_ = 1;
    }
  }
  void Finish(size_t n) { base_ += static_cast<uint32_t>(n); }

  /// Returns the position stored under hash h, or SIZE_MAX when empty.
  size_t Get(uint32_t h) const {
    const uint32_t v = slots_[h];
    return v < base_ ? SIZE_MAX : v - base_;
  }
  void Set(uint32_t h, size_t pos) {
    slots_[h] = static_cast<uint32_t>(pos) + base_;
  }

 private:
  static constexpr size_t kSlots = size_t{1} << kHashBits;
  std::unique_ptr<uint32_t[]> slots_;
  uint32_t base_ = 1;
};

uint8_t* PutVarint(uint8_t* op, uint64_t v) {
  while (v >= 0x80) {
    *op++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *op++ = static_cast<uint8_t>(v);
  return op;
}

/// Bounds-checked LEB128 read (at most 10 bytes), as BufferReader's but
/// without a Status per token; nullptr when truncated or too long.
const uint8_t* GetVarint(const uint8_t* ip, const uint8_t* end,
                         uint64_t* out) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    if (ip == end) return nullptr;
    const uint8_t byte = *ip++;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = result;
      return ip;
    }
  }
  return nullptr;
}

uint8_t* EmitLiterals(const uint8_t* src, const uint8_t* end, uint8_t* op) {
  while (src < end) {
    const size_t run =
        std::min(static_cast<size_t>(end - src), kMaxLiteralRun);
    *op++ = static_cast<uint8_t>(run << 1);
    CopyExact(op, src, run);
    op += run;
    src += run;
  }
  return op;
}

/// Greedy matcher over input[0, n), n >= kMinMatch + 4. Writes the tokens
/// at op and returns the end of what it wrote.
///
/// Which matches it finds is encoder policy, not format: the decoder takes
/// any token stream. Two choices keep it cheap per byte, and one wins back
/// what they lose:
///  - after a match it seeds the hash table at two positions only: the one
///    after the match start and the one before the match end;
///  - the probe step grows with consecutive misses (as in Snappy and LZ4),
///    so incompressible bytes are probed sparsely, and a match resets it.
///    The step stays small: an APAX leaf puts compressible minipages right
///    after incompressible ones;
///  - a match found past its true start is extended backwards over the
///    pending literals.
uint8_t* CompressTokens(const uint8_t* p, size_t n, uint8_t* op) {
  thread_local MatchTable table;
  table.Start(n);
  size_t literal_start = 0;
  size_t i = 0;
  size_t misses = 0;  // consecutive probes without a match
  const size_t limit = n - kMinMatch;  // last position where a match can start
  while (i <= limit) {
    const uint32_t h = Hash4(p + i);
    size_t candidate = table.Get(h);
    table.Set(h, i);
    if (candidate == SIZE_MAX || i - candidate > kWindow ||
        Load32(p + candidate) != Load32(p + i)) {
      i += std::min(1 + misses++ / kSkipAfter, kMaxStep);
      continue;
    }
    misses = 0;
    while (i > literal_start && candidate > 0 &&
           p[i - 1] == p[candidate - 1]) {
      --i;
      --candidate;
    }
    const size_t match_len =
        kMinMatch +
        MatchLength(p + candidate + kMinMatch, p + i + kMinMatch, p + n);
    op = EmitLiterals(p + literal_start, p + i, op);
    const size_t offset = i - candidate;
    size_t remaining = match_len;
    while (remaining >= kMinMatch) {
      const size_t chunk = std::min(remaining - kMinMatch, kMaxMatchToken);
      *op++ = static_cast<uint8_t>((chunk << 1) | 1);
      op = PutVarint(op, offset);
      remaining -= chunk + kMinMatch;
    }
    // A sub-kMinMatch tail starts the next literal run.
    const size_t src = i;
    i = src + match_len - remaining;
    literal_start = i;
    if (src + 1 <= limit) table.Set(Hash4(p + src + 1), src + 1);
    if (i - 1 <= limit) table.Set(Hash4(p + i - 1), i - 1);
  }
  table.Finish(n);
  return EmitLiterals(p + literal_start, p + n, op);
}

/// Where a decode stands: the input left, and the output decoded so far
/// (op) within the room [op_begin, op_end) there is for it.
struct TokenStream {
  const uint8_t* ip;
  const uint8_t* ip_end;
  uint8_t* op_begin;
  uint8_t* op;
  uint8_t* op_end;
};

/// Decodes whole tokens until the output reaches `target` (op <= target <=
/// op_end), stopping at the first token boundary at or past it with `s`
/// ready to resume. Runs a fast loop while both streams have
/// kFastSlack bytes to spare, then a fully bounds-checked tail. Bytes past
/// op but before op_end may hold leftovers of the fast loop's whole-chunk
/// copies; every later token overwrites them, and an error leaves the
/// range to the caller to drop.
Status DecodeTokens(TokenStream* s, const uint8_t* const target) {
  const uint8_t* ip = s->ip;
  const uint8_t* const ip_end = s->ip_end;
  uint8_t* const op_begin = s->op_begin;
  uint8_t* const op_end = s->op_end;
  uint8_t* op = s->op;
  if (ip_end - ip > static_cast<ptrdiff_t>(kFastSlack) &&
      op_end - op > static_cast<ptrdiff_t>(kFastSlack)) {
    const uint8_t* const ip_limit = ip_end - kFastSlack;
    const uint8_t* const op_limit = std::min<const uint8_t*>(
        op_end - kFastSlack, target);
    while (ip < ip_limit && op < op_limit) {
      const uint8_t tag = *ip++;
      if ((tag & 1) == 0) {
        const size_t run = tag >> 1;
        if (run == 0) return Status::Corruption("zero-length literal run");
        // Whole 16-byte chunks: a fixed-size copy per step, never a
        // variable-length memcpy.
        for (size_t k = 0; k < run; k += 16) Copy16(op + k, ip + k);
        op += run;
        ip += run;
        continue;
      }
      const size_t len = (tag >> 1) + kMinMatch;
      uint64_t offset = *ip;
      if (offset < 0x80) {
        ++ip;
      } else {
        ip = GetVarint(ip, ip_end, &offset);
        if (ip == nullptr) return Status::Corruption("bad match offset varint");
      }
      if (offset == 0 || offset > static_cast<size_t>(op - op_begin)) {
        return Status::Corruption("match offset out of range");
      }
      uint8_t* d = op;
      uint8_t* const end = op + len;
      size_t distance = offset;
      if (distance < 8) {
        // Widen the pattern: each step copies the bytes from src on and
        // doubles the distance, which stays a multiple of the offset.
        const uint8_t* const src = op - offset;
        while (static_cast<size_t>(d - src) < 8) {
          Copy8(d, src);
          d += d - src;
        }
        distance = static_cast<size_t>(d - src);
      }
      // With a distance >= 8, each word reads only finished bytes.
      for (; d < end; d += 8) Copy8(d, d - distance);
      op = end;
    }
  }

  while (op < target) {
    if (ip == ip_end) return Status::Corruption("truncated LZ tag");
    const uint8_t tag = *ip++;
    if ((tag & 1) == 0) {
      const size_t run = tag >> 1;
      if (run == 0) return Status::Corruption("zero-length literal run");
      if (run > static_cast<size_t>(ip_end - ip)) {
        return Status::Corruption("truncated literal run");
      }
      if (run > static_cast<size_t>(op_end - op)) {
        return Status::Corruption("literal run past the declared length");
      }
      CopyExact(op, ip, run);
      op += run;
      ip += run;
      continue;
    }
    const size_t len = (tag >> 1) + kMinMatch;
    uint64_t offset = 0;
    ip = GetVarint(ip, ip_end, &offset);
    if (ip == nullptr) return Status::Corruption("bad match offset varint");
    if (offset == 0 || offset > static_cast<size_t>(op - op_begin)) {
      return Status::Corruption("match offset out of range");
    }
    if (len > static_cast<size_t>(op_end - op)) {
      return Status::Corruption("match past the declared length");
    }
    // Byte by byte: an overlapping match (offset < len) replicates.
    const uint8_t* src = op - offset;
    for (size_t k = 0; k < len; ++k) op[k] = src[k];
    op += len;
  }
  s->ip = ip;
  s->op = op;
  return Status::OK();
}

/// Reads a stream's header: its declared output length, and the tokens
/// that follow it.
Status ReadHeader(Slice input, uint64_t* declared, Slice* tokens) {
  BufferReader reader(input);
  LSMCOL_RETURN_NOT_OK(reader.ReadVarint64(declared));
  // Every token that produces bytes occupies >= 2 and yields <= kMaxMatch
  // of them, so a larger claim is corrupt; reject it before allocating.
  if (*declared > reader.remaining() / 2 * kMaxMatch) {
    return Status::Corruption("LZ declared length exceeds the stream");
  }
  *tokens = reader.rest();
  return Status::OK();
}

}  // namespace

size_t LzMaxCompressedSize(size_t n) {
  // A match token never costs more than it covers (1 + an offset of at
  // most 3 bytes, for >= 4 bytes). Literal runs cost one tag per 127
  // bytes, and each run after the first follows a match, so there are at
  // most n / 5 + 1 runs: 1 literal byte then a far 4-byte match, repeated,
  // turns 5 bytes into 6. The varint header takes at most 10 bytes.
  return n + n / 4 + 16;
}

void LzCompress(Slice input, Buffer* out) {
  const uint8_t* p = input.udata();
  const size_t n = input.size();
  const size_t start = out->size();
  uint8_t* const base = reinterpret_cast<uint8_t*>(
      out->AppendUninitialized(LzMaxCompressedSize(n)));
  uint8_t* op = PutVarint(base, n);
  op = n < kMinMatch + 4 ? EmitLiterals(p, p + n, op)
                         : CompressTokens(p, n, op);
  out->resize(start + static_cast<size_t>(op - base));
  // Return the worst-case slack (a quarter of the input): callers keep
  // outputs alive, e.g. AMAX holds every column's image until its leaf is
  // written.
  out->ShrinkToFit();
}

Status LzDecoder::Reset(Slice input, Buffer* out) {
  out_ = out;
  base_ = out->size();
  tokens_ = Slice();
  size_ = 0;
  decoded_ = 0;
  uint64_t declared = 0;
  status_ = ReadHeader(input, &declared, &tokens_);
  if (status_.ok()) size_ = declared;
  return status_;
}

void LzDecoder::Reserve(size_t n) {
  n = std::min(n, size_);
  const size_t room = out_->size() - base_;
  if (room < n) out_->AppendUninitialized(n - room);
}

Status LzDecoder::DecodeTo(size_t n) {
  if (!status_.ok() || decoded_ >= n || decoded_ == size_) return status_;
  n = std::min(n, size_);
  // A token that starts before n ends, whole-chunk copies included, less
  // than kFastSlack bytes past it: the room the loop may write into.
  Reserve(n + kFastSlack);
  uint8_t* const op_begin =
      reinterpret_cast<uint8_t*>(out_->mutable_data() + base_);
  TokenStream stream{tokens_.udata(), tokens_.udata() + tokens_.size(),
                     op_begin, op_begin + decoded_,
                     op_begin + (out_->size() - base_)};
  status_ = DecodeTokens(&stream, op_begin + n);
  if (!status_.ok()) {
    // A stream that fails exposes nothing, not even the prefix before
    // the bad token.
    decoded_ = 0;
    return status_;
  }
  tokens_ = Slice(reinterpret_cast<const char*>(stream.ip),
                  static_cast<size_t>(stream.ip_end - stream.ip));
  decoded_ = static_cast<size_t>(stream.op - op_begin);
  return status_;
}

Status LzDecompress(Slice input, Buffer* out) {
  const size_t start = out->size();
  LzDecoder decoder;
  Status s = decoder.Reset(input, out);
  if (s.ok()) {
    out->reserve(start + decoder.size());
    decoder.Reserve(decoder.size());
    s = decoder.DecodeTo(decoder.size());
  }
  if (!s.ok()) out->resize(start);  // never expose undecoded bytes
  return s;
}

}  // namespace lsmcol

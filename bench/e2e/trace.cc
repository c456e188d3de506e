#include "bench/e2e/trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace lsmcol::e2e {

struct ThreadBuffer {
  std::atomic<uint64_t>* next_span = nullptr;
  int64_t origin_ns = 0;
  int tid = 0;
  std::vector<Span> spans;
  std::vector<size_t> open;  // indices into spans, innermost last
};

namespace {

// One tracer per process in practice; the owner check keeps a second
// tracer from writing into the first one's buffers.
struct ThreadSlot {
  const Tracer* owner = nullptr;
  ThreadBuffer* buffer = nullptr;
};
thread_local ThreadSlot tls_slot;

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_ns_(NowNs()) {}

Tracer::~Tracer() = default;

ThreadBuffer* Tracer::BufferForThisThread() {
  if (tls_slot.owner == this) return tls_slot.buffer;
  std::lock_guard<std::mutex> lock(mu_);
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->next_span = &next_span_;
  buffer->origin_ns = origin_ns_;
  buffer->tid = static_cast<int>(buffers_.size()) + 1;
  buffer->spans.reserve(1 << 12);
  tls_slot = ThreadSlot{this, buffer.get()};
  buffers_.push_back(std::move(buffer));
  return tls_slot.buffer;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t op) {
  if (tracer == nullptr || !tracer->enabled()) return;
  buffer_ = tracer->BufferForThisThread();
  Span span;
  span.name = name;
  span.id = buffer_->next_span->fetch_add(1) + 1;
  span.tid = buffer_->tid;
  if (!buffer_->open.empty()) {
    const Span& parent = buffer_->spans[buffer_->open.back()];
    span.parent = parent.id;
    if (op == 0) op = parent.op;
  }
  span.op = op;
  index_ = buffer_->spans.size();
  buffer_->open.push_back(index_);
  span.start_ns = NowNs() - buffer_->origin_ns;
  buffer_->spans.push_back(span);
}

Tracer::Scope::~Scope() {
  if (buffer_ == nullptr) return;
  buffer_->spans[index_].end_ns = NowNs() - buffer_->origin_ns;
  buffer_->open.pop_back();
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

std::map<uint64_t, std::map<std::string, int64_t>> Tracer::SelfTimeByOp(
    const std::vector<Span>& spans) {
  // Children of one parent run on the parent's thread, one after another,
  // inside the parent's interval: the covered part is the sum of their
  // durations, clipped to the parent's own duration.
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<uint64_t, std::map<std::string, int64_t>> by_op;
  for (const Span& s : spans) {
    const int64_t duration = s.end_ns - s.start_ns;
    auto it = child_ns.find(s.id);
    const int64_t covered =
        it == child_ns.end() ? 0 : std::min(it->second, duration);
    by_op[s.op][s.name] += duration - covered;
  }
  return by_op;
}

Status Tracer::WriteChromeTrace(const std::vector<Span>& spans,
                                const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  for (const Span& s : spans) {
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span_id\":"
                 "%llu,\"parent_id\":%llu,\"op_id\":%llu}}",
                 first ? "" : ",\n", s.name, layer.c_str(), s.tid,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
    first = false;
  }
  std::fputs("\n]}\n", f);
  const bool ok = std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !ok) return Status::IOError("write " + path);
  return Status::OK();
}

}  // namespace lsmcol::e2e

#include "trace.hpp"

#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace perfbench::trace {

namespace {

struct thread_buf {
  std::vector<span> spans;
  std::array<std::uint64_t, kCounters> acc{};
};

// Buffers outlive their threads (every execute starts a fresh scheduler,
// hence fresh worker threads, per pass). An exiting thread
// hands its buffer to the next new thread, so the buffer count stays at the
// most threads alive at once.
std::mutex g_mu;
std::vector<std::unique_ptr<thread_buf>> g_bufs;  // guarded by g_mu
std::vector<thread_buf*> g_free;                   // guarded by g_mu
std::atomic<std::uint64_t> g_next_id{1};

struct buf_lease {
  buf_lease() {
    std::lock_guard<std::mutex> lk(g_mu);
    if (g_free.empty()) {
      g_bufs.push_back(std::make_unique<thread_buf>());
      buf = g_bufs.back().get();
    } else {
      buf = g_free.back();
      g_free.pop_back();
    }
  }
  ~buf_lease() {
    std::lock_guard<std::mutex> lk(g_mu);
    g_free.push_back(buf);
  }
  buf_lease(const buf_lease&) = delete;
  buf_lease& operator=(const buf_lease&) = delete;

  thread_buf* buf = nullptr;
};

thread_buf& local() {
  thread_local buf_lease lease;
  return *lease.buf;
}

}  // namespace

std::uint64_t next_id() { return g_next_id.fetch_add(1, std::memory_order_relaxed); }

void record_with_id(const char* name, std::uint64_t id, std::uint64_t parent,
                    std::int64_t start_ns, std::int64_t end_ns) {
  local().spans.push_back(span{name, id, parent, start_ns, end_ns});
}

std::uint64_t record(const char* name, std::uint64_t parent,
                     std::int64_t start_ns, std::int64_t end_ns) {
  const std::uint64_t id = next_id();
  record_with_id(name, id, parent, start_ns, end_ns);
  return id;
}

void add(counter c, std::uint64_t v) { local().acc[c] += v; }

std::uint64_t take(counter c) {
  std::lock_guard<std::mutex> lk(g_mu);
  std::uint64_t sum = 0;
  for (auto& b : g_bufs) sum += std::exchange(b->acc[c], 0);
  return sum;
}

void write(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("trace: cannot open " + path);
  std::lock_guard<std::mutex> lk(g_mu);
  for (auto& b : g_bufs)
    for (const span& s : b->spans)
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
  if (std::fclose(f) != 0) throw std::runtime_error("trace: cannot write " + path);
}

}  // namespace perfbench::trace

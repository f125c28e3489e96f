#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>

namespace perfbench {
namespace {

thread_local std::vector<int> open_stack;

int lane_of_this_thread() {
  static std::atomic<int> next{0};
  thread_local const int lane = next.fetch_add(1);
  return lane;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

double host_seconds() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

namespace {
double cpu_clock(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double thread_cpu_seconds() { return cpu_clock(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_seconds() { return cpu_clock(CLOCK_PROCESS_CPUTIME_ID); }

double clock_scale() {
  static volatile double sink;
  const double t0 = thread_cpu_seconds();
  double x = sink + 1.0;
  for (int i = 0; i < (1 << 20); ++i) x = x * 1.0000001 + 1e-9;
  const double dt = thread_cpu_seconds() - t0;
  sink = x;
  return 3e-3 / dt;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

int SpanLog::open(std::string name, int world, int parent) {
  SpanRecord rec;
  rec.parent = parent >= 0 ? parent
               : open_stack.empty() ? -1
                                    : open_stack.back();
  rec.world = world;
  rec.lane = lane_of_this_thread();
  rec.name = std::move(name);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (world < 0 && rec.parent >= 0) {
      rec.world = records_[static_cast<std::size_t>(rec.parent)].world;
    }
    rec.id = static_cast<int>(records_.size());
    rec.start = host_seconds();
    records_.push_back(std::move(rec));
    open_stack.push_back(records_.back().id);
  }
  return open_stack.back();
}

void SpanLog::close(int id) {
  const double now = host_seconds();
  std::lock_guard<std::mutex> lock(mu_);
  records_[static_cast<std::size_t>(id)].end = now;
  if (!open_stack.empty() && open_stack.back() == id) open_stack.pop_back();
}

void SpanLog::arg(int id, std::string key, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  records_[static_cast<std::size_t>(id)].args.emplace_back(std::move(key),
                                                           value);
}

std::vector<SpanRecord> SpanLog::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::map<int, double> SpanLog::self_seconds(
    const std::vector<SpanRecord>& records) {
  // A span's self time is its duration minus the part of it its children
  // cover. Children on other lanes (worlds under the workload span) overlap
  // each other, so covered time is the union of the child intervals.
  std::map<int, std::vector<std::pair<double, double>>> children;
  for (const SpanRecord& r : records) {
    if (r.parent >= 0) children[r.parent].emplace_back(r.start, r.end);
  }
  std::map<int, double> self;
  for (const SpanRecord& r : records) {
    double covered = 0;
    double reach = r.start;
    auto& kids = children[r.id];
    std::sort(kids.begin(), kids.end());
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, r.end);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    self[r.id] = (r.end - r.start) - covered;
  }
  return self;
}

bool SpanLog::write_chrome_trace(const std::string& path,
                                 const std::string& other_data,
                                 const std::string& extra) const {
  const std::vector<SpanRecord> recs = records();
  const std::map<int, double> self = self_seconds(recs);
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const SpanRecord& r : recs) {
    char head[160];
    std::snprintf(head, sizeof head,
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"cat\":\"perfbench\",\"name\":",
                  r.lane, r.start * 1e6, (r.end - r.start) * 1e6);
    out << (first ? "" : ",\n") << head << json_string(r.name)
        << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent
        << ",\"world\":" << r.world << ",\"self_us\":"
        << self.at(r.id) * 1e6;
    for (const auto& [key, value] : r.args) {
      out << "," << json_string(key) << ":" << value;
    }
    out << "}}";
    first = false;
  }
  out << "\n],\"otherData\":" << other_data << ",\"imcProf\":"
      << (extra.empty() ? "null" : extra) << "}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench

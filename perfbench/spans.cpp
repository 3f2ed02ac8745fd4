#include "spans.hpp"

#include <algorithm>
#include <utility>

namespace perfbench {

namespace {

thread_local std::vector<int> t_open;  // this thread's open span stack

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// Length of [lo, hi] covered by the union of `intervals`.
std::int64_t covered(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                     std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t reach = lo;
  for (auto [a, b] : iv) {
    a = std::max(a, reach);
    b = std::min(b, hi);
    if (b > a) {
      total += b - a;
      reach = b;
    }
  }
  return total;
}

}  // namespace

SpanRecorder& SpanRecorder::instance() {
  static SpanRecorder recorder;
  return recorder;
}

int SpanRecorder::open(std::string name, int parent) {
  if (parent < 0 && !t_open.empty()) parent = t_open.back();
  const std::int64_t start = now_ns();
  int id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const int thread =
        threads_
            .emplace(std::this_thread::get_id(),
                     static_cast<int>(threads_.size()))
            .first->second;
    id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), start, start, parent, thread});
  }
  t_open.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  const std::int64_t end = now_ns();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

std::vector<SpanRecord> SpanRecorder::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

SpanTotals summarize(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  SpanTotals out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    const double self =
        dur - static_cast<double>(
                  covered(children[i], s.start_ns, s.end_ns)) * 1e-9;
    out.total_s[s.name] += dur;
    out.self_s[s.name] += self;
    out.layer_self_s[layer_of(s.name)] += self;
    out.all_self_s += self;
    if (s.parent < 0) {
      out.root_s += dur;
      out.root_self_s += self;
    }
  }
  return out;
}

mbcr::json::Value chrome_trace(const std::vector<SpanRecord>& spans) {
  namespace json = mbcr::json;
  std::int64_t origin = 0;
  if (!spans.empty()) {
    origin = std::min_element(spans.begin(), spans.end(),
                              [](const SpanRecord& a, const SpanRecord& b) {
                                return a.start_ns < b.start_ns;
                              })
                 ->start_ns;
  }
  json::Array events;
  events.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    json::Object args;
    args.emplace_back("id", i);
    args.emplace_back("parent", s.parent);
    json::Object e;
    e.emplace_back("name", s.name);
    e.emplace_back("cat", layer_of(s.name));
    e.emplace_back("ph", "X");
    e.emplace_back("ts", static_cast<double>(s.start_ns - origin) * 1e-3);
    e.emplace_back("dur", static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    e.emplace_back("pid", 1);
    e.emplace_back("tid", s.thread);
    e.emplace_back("args", json::Value(std::move(args)));
    events.emplace_back(std::move(e));
  }
  json::Object doc;
  doc.emplace_back("traceEvents", std::move(events));
  doc.emplace_back("displayTimeUnit", "ms");
  return json::Value(std::move(doc));
}

}  // namespace perfbench

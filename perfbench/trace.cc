#include "trace.h"

#include <cstdio>

namespace perfbench {

Tracer::Span::Span(Tracer* tracer, const char* layer, std::string name)
    : tracer_(tracer), start_(Clock::now()) {
  if (tracer_ == nullptr || !tracer_->enabled_) return;
  Record record;
  record.layer = layer;
  record.name = std::move(name);
  record.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  record.start_us =
      std::chrono::duration<double, std::micro>(start_ - tracer_->origin_)
          .count();
  index_ = static_cast<int64_t>(tracer_->records_.size());
  tracer_->records_.push_back(std::move(record));
  tracer_->open_.push_back(index_);
}

double Tracer::Span::Stop() {
  if (seconds_ >= 0) return seconds_;
  seconds_ = SecondsSince(start_);
  if (index_ >= 0) {
    tracer_->records_[static_cast<size_t>(index_)].dur_us = seconds_ * 1e6;
    tracer_->open_.pop_back();
  }
  return seconds_;
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::vector<double> child_us(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent >= 0) child_us[static_cast<size_t>(r.parent)] += r.dur_us;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < records_.size(); ++i) {
    self[records_[i].layer] += (records_[i].dur_us - child_us[i]) / 1e6;
  }
  return self;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%lld}}\n",
                 i == 0 ? "" : ",", r.name.c_str(), r.layer.c_str(),
                 r.start_us, r.dur_us, i, static_cast<long long>(r.parent));
  }
  std::fputs("],\"displayTimeUnit\":\"ms\"}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench

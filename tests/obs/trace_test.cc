// TraceRecorder: concurrent span recording from pool workers, merged
// ordering, and the Chrome trace_event JSON shape (parse + nesting
// check on the golden small case).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "obs/trace.h"

namespace tpiin {
namespace {

TEST(TraceTest, NoRecorderInstalledIsNoop) {
  ASSERT_EQ(TraceRecorder::Current(), nullptr);
  // Must not crash or record anywhere.
  TPIIN_SPAN("orphan");
}

TEST(TraceTest, RecordsNestedSpansOnOneThread) {
  TraceRecorder recorder;
  recorder.Install();
  {
    TPIIN_SPAN("outer");
    {
      TPIIN_SPAN("inner");
    }
  }
  TraceRecorder::Uninstall();
  ASSERT_EQ(recorder.NumEvents(), 2u);

  std::vector<TraceRecorder::SpanEvent> events = recorder.MergedEvents();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start time with longer spans first on ties, so the parent
  // precedes the child.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_LE(events[0].ts_us, events[1].ts_us);
  EXPECT_GE(events[0].ts_us + events[0].dur_us,
            events[1].ts_us + events[1].dur_us);
  EXPECT_EQ(events[0].tid, events[1].tid);
}

TEST(TraceTest, UninstallStopsRecording) {
  TraceRecorder recorder;
  recorder.Install();
  { TPIIN_SPAN("recorded"); }
  TraceRecorder::Uninstall();
  { TPIIN_SPAN("dropped"); }
  EXPECT_EQ(recorder.NumEvents(), 1u);
}

TEST(TraceTest, DestructorUninstallsItself) {
  {
    TraceRecorder recorder;
    recorder.Install();
    ASSERT_EQ(TraceRecorder::Current(), &recorder);
  }
  EXPECT_EQ(TraceRecorder::Current(), nullptr);
}

TEST(TraceTest, ConcurrentSpansFromPoolWorkers) {
  constexpr size_t kTasks = 64;
  constexpr int kSpansPerTask = 3;  // outer + two nested.
  TraceRecorder recorder;
  recorder.Install();
  ThreadPool::Global().ParallelFor(kTasks, 8, [](size_t) {
    TPIIN_SPAN("task");
    {
      TPIIN_SPAN("step_a");
    }
    {
      TPIIN_SPAN("step_b");
    }
  });
  TraceRecorder::Uninstall();

  EXPECT_EQ(recorder.NumEvents(), kTasks * kSpansPerTask);
  std::vector<TraceRecorder::SpanEvent> events = recorder.MergedEvents();
  size_t tasks = 0;
  size_t steps = 0;
  for (const TraceRecorder::SpanEvent& event : events) {
    EXPECT_GE(event.dur_us, 0);
    if (std::string(event.name) == "task") {
      ++tasks;
    } else {
      ++steps;
    }
  }
  EXPECT_EQ(tasks, kTasks);
  EXPECT_EQ(steps, 2 * kTasks);
  // Merged order is by start time.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_us, events[i].ts_us);
  }
}

TEST(TraceTest, SecondRecorderTakesOverCleanly) {
  TraceRecorder first;
  first.Install();
  { TPIIN_SPAN("one"); }
  TraceRecorder second;
  second.Install();
  { TPIIN_SPAN("two"); }
  TraceRecorder::Uninstall();
  EXPECT_EQ(first.NumEvents(), 1u);
  EXPECT_EQ(second.NumEvents(), 1u);
}

// Minimal structural parse of the Chrome trace JSON: every event object
// carries the required keys, "X" events nest properly per thread, and
// the golden small case (outer wrapping inner) is reproduced.
TEST(TraceTest, ChromeTraceJsonParsesAndNests) {
  TraceRecorder recorder;
  recorder.Install();
  {
    TPIIN_SPAN("golden_outer");
    {
      TPIIN_SPAN("golden_inner");
    }
  }
  TraceRecorder::Uninstall();

  const std::string json = recorder.ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos)
      << "thread_name metadata missing";
  EXPECT_NE(json.find("\"golden_outer\""), std::string::npos);
  EXPECT_NE(json.find("\"golden_inner\""), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check; the format
  // has no strings containing braces here).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_EQ(json.find(",\n]"), std::string::npos)
      << "trailing comma before array close";

  // Nesting: the outer "X" event must fully contain the inner one.
  std::vector<TraceRecorder::SpanEvent> events = recorder.MergedEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_LE(events[0].ts_us, events[1].ts_us);
  EXPECT_GE(events[0].ts_us + events[0].dur_us,
            events[1].ts_us + events[1].dur_us);
}

// Thread-name metadata names the installing thread "main", even when
// another thread records first (serve installs in Server::Start and its
// first spans come from connection threads).
TEST(TraceTest, MainNamesTheInstallerWhenAWorkerRecordsFirst) {
  TraceRecorder recorder;
  recorder.Install();
  std::thread worker([] { TPIIN_SPAN("worker_span"); });
  worker.join();
  { TPIIN_SPAN("main_span"); }
  TraceRecorder::Uninstall();

  uint32_t main_tid = UINT32_MAX;
  uint32_t worker_tid = UINT32_MAX;
  for (const TraceRecorder::SpanEvent& event : recorder.MergedEvents()) {
    if (std::string(event.name) == "main_span") main_tid = event.tid;
    if (std::string(event.name) == "worker_span") worker_tid = event.tid;
  }
  ASSERT_NE(main_tid, UINT32_MAX);
  ASSERT_NE(worker_tid, UINT32_MAX);
  ASSERT_NE(main_tid, worker_tid);
  const std::string json = recorder.ToChromeTraceJson();
  const auto name_of = [&](uint32_t tid) {
    const std::string key = "\"tid\":" + std::to_string(tid) +
                            ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    const size_t at = json.find(key);
    if (at == std::string::npos) return std::string();
    const size_t begin = at + key.size();
    return json.substr(begin, json.find('"', begin) - begin);
  };
  EXPECT_EQ(name_of(main_tid), "main" + std::to_string(main_tid)) << json;
  EXPECT_EQ(name_of(worker_tid), "worker" + std::to_string(worker_tid))
      << json;
}

// Busy work, so a stage's wall and CPU clocks both advance.
void Spin() {
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < (1u << 16); ++i) sink = sink + i;
}

// The report rows are the stages that no other stage encloses, recorded
// on the installing thread, in start order: a stage nested in a stage
// is not a row, one inside a plain span is, and a worker's is not.
TEST(TraceTest, StageRowsAreOutermostStagesOfTheInstaller) {
  TraceRecorder recorder;
  recorder.Install();
  {
    TraceSpan a("a", kStage);
    TraceSpan nested("nested", kStage);
    TPIIN_SPAN("plain_in_stage");
    TraceSpan deeper("deeper", kStage);
  }
  {
    TPIIN_SPAN("plain");
    TraceSpan b("b", kStage);
    Spin();
  }
  std::thread worker([] { TraceSpan w("w", kStage); });
  worker.join();
  { TraceSpan c("c", kStage); }
  TraceRecorder::Uninstall();

  std::vector<std::string> rows;
  for (const TraceRecorder::SpanEvent& row : recorder.StageRows()) {
    EXPECT_TRUE(row.stage);
    EXPECT_EQ(row.stage_depth, 0u);
    rows.push_back(row.name);
  }
  EXPECT_EQ(rows, (std::vector<std::string>{"a", "b", "c"}));
  // Every span is still a trace event.
  EXPECT_EQ(recorder.NumEvents(), 8u);
}

// A stage times itself with no recorder installed; Stop() closes it
// once, and the destructor neither re-times nor re-records it.
TEST(TraceTest, StageStopReadsTheWallClockOnce) {
  ASSERT_EQ(TraceRecorder::Current(), nullptr);
  {
    TraceSpan stage("unrecorded", kStage);
    Spin();
    const double seconds = stage.Stop();
    EXPECT_GT(seconds, 0.0);
    Spin();
    EXPECT_EQ(stage.Stop(), seconds);
  }
  TraceRecorder recorder;
  recorder.Install();
  double seconds = 0;
  {
    TraceSpan stage("recorded", kStage);
    Spin();
    seconds = stage.Stop();
    Spin();
  }
  TraceRecorder::Uninstall();
  const std::vector<TraceRecorder::SpanEvent> events =
      recorder.MergedEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].seconds, seconds);
  EXPECT_GT(events[0].cpu_seconds, 0.0);
  EXPECT_GT(events[0].peak_rss_bytes, 0);
  // The microsecond trace figures come from the same two clock reads.
  EXPECT_LE(events[0].dur_us, static_cast<int64_t>(seconds * 1e6) + 1);
}

TEST(TraceTest, ThreadCpuClocksAreMonotonic) {
  const double thread_before = ThreadCpuSeconds();
  const double process_before = ProcessCpuSeconds();
  // Burn a little CPU so the clocks must advance.
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < (1u << 18); ++i) sink = sink + i;
  EXPECT_GE(ThreadCpuSeconds(), thread_before);
  EXPECT_GE(ProcessCpuSeconds(), process_before);
}

}  // namespace
}  // namespace tpiin

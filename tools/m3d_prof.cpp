// m3d_prof: one-shot flow profiler. Runs the full flow for one benchmark
// (both styles by default) with structured trace collection on, then emits:
//
//   * trace_<bench>_<style>.json — Chrome trace-event JSON per style; open
//     in https://ui.perfetto.dev or chrome://tracing. One pid per flow, one
//     named tid per thread (main + "<pool>/worker<i>"), with exec pool
//     enqueue/steal instants, per-worker idle windows, and per-stage memory
//     counter tracks (mem.rss_mb / mem.hwm_mb / mem.stage_alloc_mb).
//   * a top-N self-time table per style (from the deterministic span
//     summary that also lands in the v3 run report), and
//   * a per-stage memory profile (stage-exit RSS, peak RSS, counting-
//     allocator traffic) plus the collector's own health stats, so a
//     truncated capture is visible right in the terminal.
//
// The profiler uses the analytic test library (tests/test_fixtures.hpp) —
// the same one the tier-1 goldens and perf_gate run against — so it starts
// instantly and profiles exactly the code paths CI locks down.
//
// Usage:
//   m3d_prof [--bench FPU] [--style 2D|T-MI|T-MI+M|both] [--clock ns]
//            [--seed n] [--scale n] [--check none|basic|full]
//            [--out-dir .] [--top 15]
//
// --out-dir is created (with any missing parents) before the flow runs; if
// that fails, m3d_prof exits with status 2 before doing any work, so a long
// profile is never thrown away for want of a directory.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "flow/flow.hpp"
#include "flow/report.hpp"
#include "obs/export.hpp"
#include "obs/mem.hpp"
#include "obs/trace.hpp"
#include "tech/tech.hpp"
#include "util/strf.hpp"
#include "util/table.hpp"
#include "../tests/test_fixtures.hpp"

namespace {

using m3d::util::strf;

m3d::gen::Bench parse_bench(const std::string& s) {
  for (m3d::gen::Bench b : m3d::gen::all_benches()) {
    if (s == m3d::gen::to_string(b)) return b;
  }
  std::fprintf(stderr, "m3d_prof: unknown bench '%s' (try FPU, AES, LDPC, "
               "DES, M256)\n", s.c_str());
  std::exit(2);
}

int parse_styles(const std::string& s, std::vector<m3d::tech::Style>* out) {
  if (s == "both") {
    *out = {m3d::tech::Style::k2D, m3d::tech::Style::kTMI};
    return 0;
  }
  for (m3d::tech::Style st : {m3d::tech::Style::k2D, m3d::tech::Style::kTMI,
                              m3d::tech::Style::kTMIPlusM}) {
    if (s == m3d::tech::to_string(st)) {
      *out = {st};
      return 0;
    }
  }
  std::fprintf(stderr, "m3d_prof: unknown style '%s' (2D, T-MI, T-MI+M, "
               "both)\n", s.c_str());
  return 2;
}

m3d::check::Level parse_check(const std::string& s) {
  if (s == "none") return m3d::check::Level::kNone;
  if (s == "basic") return m3d::check::Level::kBasic;
  if (s == "full") return m3d::check::Level::kFull;
  std::fprintf(stderr, "m3d_prof: unknown check level '%s'\n", s.c_str());
  std::exit(2);
}

void print_top_spans(const std::vector<m3d::obs::SpanSummary>& spans,
                     const char* style, int top_n) {
  std::vector<m3d::obs::SpanSummary> by_self = spans;
  std::sort(by_self.begin(), by_self.end(),
            [](const auto& a, const auto& b) {
              if (a.self_ms != b.self_ms) return a.self_ms > b.self_ms;
              return a.name < b.name;  // deterministic tie-break
            });
  double total_self = 0.0;
  for (const auto& s : by_self) total_self += s.self_ms;

  m3d::util::Table t(strf("top %d spans by self time — %s", top_n, style));
  t.set_header({"span", "count", "total ms", "self ms", "self %"});
  int shown = 0;
  for (const auto& s : by_self) {
    if (shown++ == top_n) break;
    t.add_row({s.name, strf("%lld", static_cast<long long>(s.count)),
               strf("%.2f", s.total_ms), strf("%.2f", s.self_ms),
               strf("%.1f%%", total_self > 0.0
                                  ? 100.0 * s.self_ms / total_self
                                  : 0.0)});
  }
  t.print();
}

void print_memory(const m3d::flow::FlowResult& r) {
  m3d::util::Table t("per-stage memory profile");
  t.set_header({"stage", "rss MB", "peak MB", "alloc MB", "allocs"});
  for (const auto& s : r.stages) {
    t.add_row({s.name, strf("%.1f", s.rss_mb), strf("%.1f", s.hwm_mb),
               strf("%.2f", s.alloc_mb),
               strf("%lld", static_cast<long long>(s.allocs))});
  }
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  m3d::gen::Bench bench = m3d::gen::Bench::kFpu;
  std::vector<m3d::tech::Style> styles = {m3d::tech::Style::k2D,
                                          m3d::tech::Style::kTMI};
  double clock_ns = 4.0;
  uint64_t seed = 20130529;
  int scale_shift = -1;  // -1: per-bench default
  m3d::check::Level check = m3d::check::Level::kBasic;
  std::string out_dir = ".";
  int top_n = 15;

  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto next = [&]() -> const char* {
      if (a + 1 >= argc) {
        std::fprintf(stderr, "m3d_prof: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++a];
    };
    if (arg == "--bench") {
      bench = parse_bench(next());
    } else if (arg == "--style") {
      if (parse_styles(next(), &styles) != 0) return 2;
    } else if (arg == "--clock") {
      clock_ns = std::atof(next());
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--scale") {
      scale_shift = std::atoi(next());
    } else if (arg == "--check") {
      check = parse_check(next());
    } else if (arg == "--out-dir") {
      out_dir = next();
    } else if (arg == "--top") {
      top_n = std::atoi(next());
    } else {
      std::fprintf(stderr,
                   "m3d_prof: unknown arg %s\n"
                   "usage: m3d_prof [--bench FPU] [--style 2D|T-MI|T-MI+M|"
                   "both] [--clock ns] [--seed n] [--scale n] "
                   "[--check none|basic|full] [--out-dir d] [--top n]\n",
                   arg.c_str());
      return 2;
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (!ec && !std::filesystem::is_directory(out_dir, ec) && !ec) {
    ec = std::make_error_code(std::errc::not_a_directory);
  }
  if (ec) {
    std::fprintf(stderr, "m3d_prof: cannot create --out-dir %s: %s\n",
                 out_dir.c_str(), ec.message().c_str());
    return 2;
  }

  m3d::obs::set_thread_name("main");
  const m3d::liberty::Library lib2d =
      m3d::test::make_test_library(m3d::tech::Style::k2D);
  const m3d::liberty::Library lib3d =
      m3d::test::make_test_library(m3d::tech::Style::kTMI);

  int failures = 0;
  for (m3d::tech::Style style : styles) {
    m3d::obs::reset();  // one clean capture window per style

    m3d::flow::FlowOptions o;
    o.bench = bench;
    o.style = style;
    o.scale_shift =
        scale_shift >= 0 ? scale_shift : m3d::flow::default_scale_shift(bench);
    o.clock_ns = clock_ns;
    o.seed = seed;
    o.check_level = check;
    o.lib = style == m3d::tech::Style::k2D ? &lib2d : &lib3d;
    o.trace = true;
    const m3d::flow::FlowResult r = m3d::flow::run_flow(o);

    const m3d::obs::Snapshot snap = m3d::obs::snapshot();
    const std::string trace_path =
        out_dir + "/" +
        m3d::obs::trace_filename(r.bench_name, m3d::tech::to_string(style));
    if (!m3d::obs::write_chrome_trace(snap, trace_path)) {
      std::fprintf(stderr, "m3d_prof: cannot write %s\n", trace_path.c_str());
      ++failures;
      continue;
    }

    std::printf("\n== %s %s: clk %.3f ns, seed %llu ==\n",
                r.bench_name.c_str(), m3d::tech::to_string(style), r.clock_ns,
                static_cast<unsigned long long>(r.seed));
    print_top_spans(r.trace_spans, m3d::tech::to_string(style), top_n);
    print_memory(r);
    std::printf(
        "collector: %llu events recorded, %llu dropped, high water %llu "
        "of %zu per thread%s\n",
        static_cast<unsigned long long>(snap.events_recorded),
        static_cast<unsigned long long>(snap.events_dropped),
        static_cast<unsigned long long>(snap.buffer_high_water),
        m3d::obs::buffer_capacity(),
        snap.events_dropped > 0
            ? " — TRACE TRUNCATED, raise M3D_TRACE_BUF"
            : "");
    std::printf("trace: %s (load in https://ui.perfetto.dev)\n",
                trace_path.c_str());
  }
  return failures == 0 ? 0 : 1;
}

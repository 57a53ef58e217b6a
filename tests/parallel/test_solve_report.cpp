// The CSV report writers.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

#include "mkp/generator.hpp"
#include "parallel/report_io.hpp"
#include "parallel/runner.hpp"

namespace pts::parallel {
namespace {

ParallelResult small_run(std::uint64_t seed) {
  static const auto inst =
      mkp::generate_gk({.num_items = 40, .num_constraints = 4}, 77);
  ParallelConfig config;
  config.num_slaves = 2;
  config.search_iterations = 3;
  config.work_per_slave_round = 300;
  config.base_params.strategy.nb_local = 10;
  config.seed = seed;
  return run_parallel_tabu_search(inst, config);
}

TEST(ReportIo, TimelineCsvShape) {
  const auto result = small_run(1);
  std::ostringstream out;
  timeline_to_csv(out, result.master);
  const auto text = out.str();
  std::size_t lines = 0;
  for (char c : text) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 1 + result.master.timeline.size());  // header + rows
  EXPECT_NE(text.find("round,slave,tenure"), std::string::npos);
  EXPECT_NE(text.find("own-best"), std::string::npos);
}

TEST(ReportIo, SummaryCsvCarriesTheKeys) {
  const auto result = small_run(2);
  std::ostringstream out;
  summary_to_csv(out, result);
  const auto text = out.str();
  for (const char* key :
       {"mode,", "best_value,", "total_moves,", "rounds_completed,",
        "strategy_retunes,", "rendezvous_idle_seconds,"}) {
    EXPECT_NE(text.find(key), std::string::npos) << key;
  }
}

TEST(ReportIo, FilesWritten) {
  const auto result = small_run(3);
  const std::string prefix = ::testing::TempDir() + "/pts_report";
  write_report_files(prefix, result);
  std::ifstream timeline(prefix + "-timeline.csv");
  std::ifstream summary(prefix + "-summary.csv");
  EXPECT_TRUE(timeline.good());
  EXPECT_TRUE(summary.good());
  std::string header;
  std::getline(timeline, header);
  EXPECT_NE(header.find("nb_candidates"), std::string::npos);
}

TEST(ReportIo, CsvRowCountMatchesRoundsTimesSlaves) {
  const auto result = small_run(4);
  EXPECT_EQ(result.master.timeline.size(),
            result.master.rounds_completed * 2);  // 2 slaves
}

}  // namespace
}  // namespace pts::parallel

#include "parallel/slave.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <variant>

#include "bounds/greedy.hpp"
#include "mkp/generator.hpp"

namespace pts::parallel {
namespace {

Assignment make_assignment(const mkp::Instance& inst, std::size_t round = 0) {
  Rng rng(99);
  Assignment a{round, bounds::greedy_randomized(inst, rng), tabu::TsParams{}};
  a.params.max_moves = 300;
  a.params.strategy.nb_local = 10;
  // nb_drop > 1 puts the per-move drop-count draw on the slave's rng stream,
  // so distinct streams produce distinct trajectories.
  a.params.strategy.nb_drop = 3;
  return a;
}

TEST(RunAssignment, ReportCarriesTheEssentials) {
  const auto inst = mkp::generate_gk({.num_items = 40, .num_constraints = 5}, 1);
  const auto assignment = make_assignment(inst, 3);
  const auto report = run_assignment(inst, /*slave_id=*/2, /*seed=*/7, assignment);
  EXPECT_EQ(report.slave_id, 2U);
  EXPECT_EQ(report.round, 3U);
  EXPECT_DOUBLE_EQ(report.initial_value, assignment.initial.value());
  EXPECT_GE(report.final_value, report.initial_value);
  ASSERT_FALSE(report.elite.empty());
  EXPECT_DOUBLE_EQ(report.elite.front().value(), report.final_value);
  EXPECT_EQ(report.moves, 300U);
  EXPECT_FALSE(report.reached_target);
}

TEST(RunAssignment, DeterministicPerSlaveRoundSeed) {
  const auto inst = mkp::generate_gk({.num_items = 40, .num_constraints = 5}, 2);
  const auto assignment = make_assignment(inst);
  const auto a = run_assignment(inst, 1, 7, assignment);
  const auto b = run_assignment(inst, 1, 7, assignment);
  EXPECT_DOUBLE_EQ(a.final_value, b.final_value);
  EXPECT_EQ(a.elite.front(), b.elite.front());
}

TEST(RunAssignment, DifferentSlavesDifferentTrajectories) {
  // A large instance and a short budget leave no time to converge to a
  // common optimum, so distinct rng streams must surface as distinct
  // outcomes for at least one pair of slaves.
  const auto inst = mkp::generate_gk({.num_items = 250, .num_constraints = 10}, 3);
  auto assignment = make_assignment(inst);
  assignment.params.max_moves = 120;
  std::vector<Report> reports;
  for (std::size_t slave = 0; slave < 4; ++slave) {
    reports.push_back(run_assignment(inst, slave, 7, assignment));
  }
  bool any_difference = false;
  for (std::size_t a = 0; a < reports.size() && !any_difference; ++a) {
    for (std::size_t b = a + 1; b < reports.size(); ++b) {
      if (reports[a].elite.front() != reports[b].elite.front()) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(RunAssignment, TargetPropagates) {
  const auto inst = mkp::generate_gk({.num_items = 40, .num_constraints = 5}, 4);
  auto assignment = make_assignment(inst);
  assignment.params.target_value = 1.0;
  const auto report = run_assignment(inst, 0, 7, assignment);
  EXPECT_TRUE(report.reached_target);
}

TEST(SlaveLoop, ProcessesAssignmentsUntilInboxCloses) {
  const auto inst = mkp::generate_gk({.num_items = 30, .num_constraints = 4}, 5);
  Mailbox<Assignment> inbox;
  Mailbox<FromSlave> outbox;
  std::jthread slave(
      [&] { slave_loop(inst, 0, 11, SlaveChannels{&inbox, &outbox}); });

  inbox.send(make_assignment(inst, 0));
  inbox.send(make_assignment(inst, 1));
  const auto m0 = outbox.receive();
  const auto m1 = outbox.receive();
  ASSERT_TRUE(m0 && m1);
  const auto* r0 = std::get_if<Report>(&*m0);
  const auto* r1 = std::get_if<Report>(&*m1);
  ASSERT_TRUE(r0 && r1);
  EXPECT_EQ(r0->round, 0U);
  EXPECT_EQ(r1->round, 1U);
  inbox.close();
  slave.join();
  EXPECT_EQ(outbox.size(), 0U);
}

TEST(SlaveLoop, ClosedOutboxDropIsCountedNeverSilent) {
  // Regression: a report send onto a closed outbox was discarded with no
  // trace. The loop still discards it (orderly teardown races the last
  // report) but must count it in the returned stats.
  const auto inst = mkp::generate_gk({.num_items = 20, .num_constraints = 3}, 7);
  Mailbox<Assignment> inbox;
  Mailbox<FromSlave> outbox;
  outbox.close();  // the link is already gone before the first report
  inbox.send(make_assignment(inst, 0));
  inbox.close();
  const auto stats = slave_loop(inst, 0, 11, SlaveChannels{&inbox, &outbox});
  EXPECT_EQ(stats.dropped_messages, 1U);
}

TEST(SlaveLoop, ClosedInboxTerminates) {
  const auto inst = mkp::generate_gk({.num_items = 20, .num_constraints = 3}, 6);
  Mailbox<Assignment> inbox;
  Mailbox<FromSlave> outbox;
  std::jthread slave(
      [&] { slave_loop(inst, 0, 11, SlaveChannels{&inbox, &outbox}); });
  inbox.close();
  slave.join();
  SUCCEED();
}

}  // namespace
}  // namespace pts::parallel

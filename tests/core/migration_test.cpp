// Lock-release-driven adaptive home migration (the ISSUE 8 tentpole):
// dominant-writer adoption, ping-pong damping on the lock path, and the
// fetch engine's redirect-chase repair/backoff under stale home views.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/api.hpp"

namespace lots::core {
namespace {

Config cfg() {
  Config c;
  c.nprocs = 4;
  c.dmm_bytes = 4u << 20;
  c.lock_migration = true;
  c.migrate_streak = 2;
  return c;
}

TEST(Migration, DominantWriterAdoptsTheHome) {
  Runtime rt(cfg());
  rt.run([](int rank) {
    Pointer<int> obj;
    obj.alloc(64);
    const int32_t home0 = Runtime::self().home_of(obj.id());
    const int writer = (home0 + 1) % 4;
    lots::barrier();
    if (rank == writer) {
      for (int round = 0; round < 4; ++round) {
        lots::acquire(7);
        for (int i = 0; i < 64; ++i) obj[i] = round * 100 + i;
        lots::release(7);
      }
      // The handoff is a chain of one-way messages: poll, don't assume.
      for (int spin = 0; spin < 4000 && Runtime::self().home_of(obj.id()) != writer; ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      EXPECT_EQ(Runtime::self().home_of(obj.id()), writer);
      // The adoption may land after the 4th release, leaving no release
      // by the home to convert. Two more critical sections, released by
      // the home, must become notices: the first writes new values (an
      // unchanged word makes no diff, so no record to convert), the
      // second restores the round-3 values the readers check.
      for (const int round : {4, 3}) {
        lots::acquire(7);
        for (int i = 0; i < 64; ++i) obj[i] = round * 100 + i;
        lots::release(7);
      }
    }
    // Event-only: orders the readers after the writer without giving the
    // barrier planner a chance to move the home itself.
    lots::run_barrier();
    lots::acquire(7);
    for (int i = 0; i < 64; i += 13) EXPECT_EQ(obj[i], 300 + i);
    lots::release(7);
    lots::barrier();
  });
  NodeStats total;
  rt.aggregate_stats(total);
  // Exactly one lock-driven adoption: the streak fires once, and after
  // the writer IS the home the manager's m.src == home_view filter holds.
  EXPECT_EQ(total.lock_migrations.load(), 1u);
  EXPECT_GE(total.home_commit_notices.load(), 1u);
}

TEST(Migration, AlternatingWritersDoNotMigrate) {
  // Strict A-B-A-B release alternation on one lock: the single-writer
  // streak never reaches migrate_streak, so the lock path must not move
  // the home at all — this is the ping-pong shape the barrier planner
  // already damps, and the lock path must not reintroduce it.
  Runtime rt(cfg());
  rt.run([](int rank) {
    Pointer<int> obj;
    obj.alloc(64);
    const int32_t home0 = Runtime::self().home_of(obj.id());
    const int a = (home0 + 1) % 4, b = (home0 + 2) % 4;
    lots::barrier();
    for (int round = 0; round < 8; ++round) {
      const int writer = round % 2 == 0 ? a : b;
      if (rank == writer) {
        lots::acquire(9);
        for (int i = 0; i < 64; ++i) obj[i] = round * 100 + i;
        lots::release(9);
      }
      lots::run_barrier();  // event-only: keep the alternation strict
    }
    lots::acquire(9);
    for (int i = 0; i < 64; i += 13) EXPECT_EQ(obj[i], 700 + i);
    lots::release(9);
    lots::barrier();
  });
  NodeStats total;
  rt.aggregate_stats(total);
  EXPECT_EQ(total.lock_migrations.load(), 0u);
}

TEST(Migration, StaleNoticeDoesNotCedeAFreshlyAdoptedHome) {
  // Two consecutive adoptions on one lock: W1 adopts and home-commits
  // (leaving a notice hint=W1 in the chain), then W2 adopts. W2's next
  // acquire replays W1's notice while W2 believes it is the home — a
  // stale notice must NOT cede the home back to W1, or the two views
  // form a cycle (W1 -> W2 -> W1) with no node believing itself home
  // and every later fetch chases redirects forever.
  Runtime rt(cfg());
  rt.run([](int rank) {
    Pointer<int> obj;
    obj.alloc(64);
    const int32_t home0 = Runtime::self().home_of(obj.id());
    const int w1 = (home0 + 1) % 4, w2 = (home0 + 2) % 4;
    lots::barrier();
    if (rank == w1) {
      for (int round = 0; round < 2; ++round) {  // streak hits K=2: adoption
        lots::acquire(11);
        for (int i = 0; i < 64; ++i) obj[i] = round * 100 + i;
        lots::release(11);
      }
      for (int spin = 0; spin < 4000 && Runtime::self().home_of(obj.id()) != w1; ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ASSERT_EQ(Runtime::self().home_of(obj.id()), w1);
      // One critical section AS home: the release converts to a
      // home-commit notice (hint=w1) that stays in the chain.
      lots::acquire(11);
      for (int i = 0; i < 64; ++i) obj[i] = 500 + i;
      lots::release(11);
    }
    lots::run_barrier();  // event-only: order w2 after w1
    if (rank == w2) {
      for (int round = 0; round < 2; ++round) {  // second adoption: w1 -> w2
        lots::acquire(11);
        for (int i = 0; i < 64; ++i) obj[i] = 2000 + round * 100 + i;
        lots::release(11);
      }
      for (int spin = 0; spin < 4000 && Runtime::self().home_of(obj.id()) != w2; ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ASSERT_EQ(Runtime::self().home_of(obj.id()), w2);
      // The regression point: this acquire decodes w1's old notice with
      // home == self. Ceding here would orphan the object.
      lots::acquire(11);
      for (int i = 0; i < 64; ++i) obj[i] = 9000 + i;
      lots::release(11);
      EXPECT_EQ(Runtime::self().home_of(obj.id()), w2);
    }
    lots::run_barrier();
    // Every rank must still be able to reach the data (with the bug the
    // chase cycles w1 <-> w2 and dies in the redirect retry cap).
    lots::acquire(11);
    for (int i = 0; i < 64; i += 7) EXPECT_EQ(obj[i], 9000 + i);
    lots::release(11);
    lots::barrier();
  });
  NodeStats total;
  rt.aggregate_stats(total);
  EXPECT_EQ(total.lock_migrations.load(), 2u);
}

TEST(Migration, FetchChasesAndRepairsStaleHomeView) {
  // One stale hop: the requester's home view points at a bystander, the
  // bystander redirects to the true home. The fetch must land the data,
  // repair the requester's view, and never hit the retry path.
  Runtime rt(cfg());
  rt.run([](int rank) {
    Pointer<int> obj;
    obj.alloc(64);
    const int32_t home0 = Runtime::self().home_of(obj.id());
    const int bystander = (home0 + 1) % 4, requester = (home0 + 2) % 4;
    if (rank == home0) {
      for (int i = 0; i < 64; ++i) obj[i] = 3 * i;
    }
    lots::barrier();  // publish; writer == home so the plan keeps it there
    if (rank == requester) {
      Runtime::self().set_home_for_test(obj.id(), bystander);
      for (int i = 0; i < 64; i += 7) EXPECT_EQ(obj[i], 3 * i);
      // The redirect answered by the true home repaired our view.
      EXPECT_EQ(Runtime::self().home_of(obj.id()), home0);
    }
    lots::barrier();
  });
  NodeStats total;
  rt.aggregate_stats(total);
  EXPECT_EQ(total.fetch_redirect_retries.load(), 0u);
}

TEST(Migration, RedirectCycleBacksOffUntilRepaired) {
  // A mid-handoff window where every view in the cycle is stale: the
  // requester chases bystander -> bystander2 -> bystander ... and must
  // back off and retry (satellite 1) instead of dying at a hop cap,
  // then succeed once a view finally points at the true home.
  Runtime rt(cfg());
  rt.run([](int rank) {
    Pointer<int> obj;
    obj.alloc(64);
    const int32_t home0 = Runtime::self().home_of(obj.id());
    const int x = (home0 + 1) % 4, y = (home0 + 2) % 4, requester = (home0 + 3) % 4;
    if (rank == home0) {
      for (int i = 0; i < 64; ++i) obj[i] = 5 * i;
    }
    lots::barrier();
    // Build the cycle: requester -> x, x -> y, y -> x.
    if (rank == x) Runtime::self().set_home_for_test(obj.id(), y);
    if (rank == y) Runtime::self().set_home_for_test(obj.id(), x);
    if (rank == requester) Runtime::self().set_home_for_test(obj.id(), x);
    lots::run_barrier();  // everyone's stale view is in place
    if (rank == y) {
      // Let the requester spin through a few backoff rounds, then end
      // the "handoff": y's view now names the true home.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      Runtime::self().set_home_for_test(obj.id(), home0);
    }
    if (rank == requester) {
      for (int i = 0; i < 64; i += 7) EXPECT_EQ(obj[i], 5 * i);
      EXPECT_EQ(Runtime::self().home_of(obj.id()), home0);
    }
    lots::run_barrier();  // y must not re-stale anything mid-fetch
    lots::barrier();
  });
  NodeStats total;
  rt.aggregate_stats(total);
  EXPECT_GE(total.fetch_redirect_retries.load(), 1u);
}

}  // namespace
}  // namespace lots::core

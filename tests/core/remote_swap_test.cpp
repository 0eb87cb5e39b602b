// Paper §5 future work, implemented: swapping to REMOTE disks. When the
// local disk budget is exhausted, clean non-home objects spill to a
// peer's store and come back transparently on access.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/api.hpp"

namespace lots::core {
namespace {

Config remote_cfg() {
  Config c;
  c.nprocs = 2;
  c.dmm_bytes = 1u << 20;            // small window: swapping engages fast
  c.disk_capacity_bytes = 512 << 10; // tiny local budget: spills remotely
  c.remote_swap = true;
  return c;
}

TEST(RemoteSwap, SpillsAndRehydratesTransparently) {
  Runtime rt(remote_cfg());
  rt.run([](int rank) {
    // Rank 1 writes many rows (homes migrate to rank 1 at the barrier),
    // then rank 0 reads them all: rank 0's cached copies overflow both
    // its DMM and its local disk budget and must park on rank 1's disk.
    constexpr int kRows = 24;
    constexpr int kInts = 32 * 1024;  // 128 KB rows, 3 MB total
    std::vector<Pointer<int>> rows(kRows);
    for (auto& r : rows) r.alloc(kInts);
    if (rank == 1) {
      for (int k = 0; k < kRows; ++k) {
        auto& row = rows[static_cast<size_t>(k)];
        for (int i = 0; i < kInts; i += 32) row[static_cast<size_t>(i)] = k * 100000 + i;
        lots::barrier();
      }
    } else {
      for (int k = 0; k < kRows; ++k) lots::barrier();
    }
    // Rank 0 walks everything twice; the second walk re-fetches parked
    // images (remote get path).
    if (rank == 0) {
      for (int round = 0; round < 2; ++round) {
        for (int k = 0; k < kRows; ++k) {
          auto& row = rows[static_cast<size_t>(k)];
          for (int i = 0; i < kInts; i += 2048) {
            ASSERT_EQ(row[static_cast<size_t>(i)], k * 100000 + i) << "round " << round;
          }
        }
      }
      auto& n = Runtime::self();
      EXPECT_GT(n.stats().remote_swap_puts.load(), 0u) << "local budget never overflowed";
      EXPECT_LE(n.disk().stored_bytes(), 512u << 10) << "local budget exceeded";
    }
    lots::barrier();
  });
}

TEST(RemoteSwap, DisabledBudgetAborts) {
  // Assign the flag directly: GTEST_FLAG_SET only exists from gtest 1.12.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Config c = remote_cfg();
  c.remote_swap = false;  // budget without spill target: hard error
  // The whole cluster must live inside the death statement: the child
  // process needs its own service threads.
  EXPECT_DEATH(
      {
        Runtime rt(c);
        rt.run([](int rank) {
          constexpr int kRows = 24;
          std::vector<Pointer<int>> rows(kRows);
          for (auto& r : rows) r.alloc(32 * 1024);
          if (rank == 1) {
            for (int k = 0; k < kRows; ++k) {
              rows[static_cast<size_t>(k)][0] = k;
              lots::barrier();
            }
          } else {
            for (int k = 0; k < kRows; ++k) lots::barrier();
          }
          if (rank == 0) {
            long sum = 0;
            for (int round = 0; round < 2; ++round) {
              for (int k = 0; k < kRows; ++k) sum += rows[static_cast<size_t>(k)][0];
            }
            (void)sum;
          }
          lots::barrier();
        });
      },
      "disk budget exhausted");
}

/// Tight config where a single clean 128 KB object's image (its data
/// alone) exceeds the local disk budget, so its first eviction spills
/// remotely.
Config spill_cfg() {
  Config c;
  c.nprocs = 2;
  c.dmm_bytes = 512u << 10;
  c.disk_capacity_bytes = 100u << 10;
  c.remote_swap = true;
  return c;
}

/// Drives object `o` (home: node 1) through write -> release-flush ->
/// eviction on node 0, which parks its image on the buddy's disk. All
/// objects are equal-sized (128 KB) so the eviction best-fit tie-break
/// deterministically picks the oldest — o.
template <typename PtrT, typename Fillers>
void spill_object_remotely(PtrT& o, Fillers& fillers) {
  lots::acquire(0);
  for (int i = 0; i < 32 * 1024; i += 8) o[static_cast<size_t>(i)] = i * 3 + 1;
  lots::release(0);  // flush: o is now clean + untwinned but modified-this-epoch
  // Three fillers fill the remaining DMM; the fourth evicts o (LRU).
  // o's image (over 128 KB) exceeds the 100 KB budget: it spills remotely.
  for (auto& f : fillers) {
    for (int i = 0; i < 32 * 1024; i += 1024) f[static_cast<size_t>(i)] = i;
  }
  EXPECT_GT(Runtime::self().stats().remote_swap_puts.load(), 0u)
      << "scenario failed to engage the remote spill path";
}

TEST(RemoteSwap, HomeMigrationAdoptsRemotelyParkedImage) {
  // Regression: node 0 becomes the single-writer home of an object whose
  // only copy sits on the swap buddy's disk. The barrier must pull the
  // image back before serving fetches — otherwise node 1 reads zeros.
  Runtime rt(spill_cfg());
  rt.run([](int rank) {
    Pointer<int> o;
    o.alloc(32 * 1024);  // id 1 -> initial home = node 1
    std::vector<Pointer<int>> fillers(4);
    for (auto& f : fillers) f.alloc(32 * 1024);
    lots::barrier();
    if (rank == 0) spill_object_remotely(o, fillers);
    lots::barrier();  // o: single writer node 0 -> home migrates to node 0
    Node& n = Runtime::self();
    EXPECT_EQ(n.home_of(o.id()), 0);
    if (rank == 1) {
      for (int i = 0; i < 32 * 1024; i += 8) {
        ASSERT_EQ(o[static_cast<size_t>(i)], i * 3 + 1) << "home served a hollow copy";
      }
    }
    lots::barrier();
  });
  NodeStats total;
  rt.aggregate_stats(total);
  EXPECT_GT(total.remote_swap_gets.load(), 0u) << "the new home never adopted the image";
}

TEST(RemoteSwap, FreeObjectDropsRemotelyParkedImage) {
  // Regression: freeing an object whose image is parked on the buddy
  // must send the kSwapDrop — otherwise the buddy's disk leaks forever.
  Runtime rt(spill_cfg());
  rt.run([&rt](int rank) {
    Pointer<int> o;
    o.alloc(32 * 1024);
    std::vector<Pointer<int>> fillers(4);
    for (auto& f : fillers) f.alloc(32 * 1024);
    lots::barrier();
    if (rank == 0) spill_object_remotely(o, fillers);
    lots::run_barrier();  // rendezvous without home migration
    o.free();             // collective; node 0's copy is parked on node 1
    if (rank == 0) {
      // The drop is fire-and-forget: poll the buddy's store briefly.
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (rt.node(1).disk().stored_bytes() > 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      EXPECT_EQ(rt.node(1).disk().stored_bytes(), 0u) << "parked image leaked on the buddy";
    }
    lots::barrier();
  });
}

TEST(RemoteSwap, HomeObjectsNeverLeaveTheirNode) {
  // Homes must answer fetches from local state; the spill rule excludes
  // them, so a tiny budget forces home copies to stay local-disk.
  Config c = remote_cfg();
  c.disk_capacity_bytes = 8u << 20;  // roomy: no spill at all
  Runtime rt(c);
  rt.run([](int rank) {
    Pointer<int> a;
    a.alloc(1024);
    if (rank == 0) a[0] = 7;
    lots::barrier();
    if (rank == 1) ASSERT_EQ(a[0], 7);
    lots::barrier();
  });
  NodeStats total;
  rt.aggregate_stats(total);
  EXPECT_EQ(total.remote_swap_puts.load(), 0u);
}

}  // namespace
}  // namespace lots::core

// The headline feature (paper §1, §4.3): a shared object space larger
// than the mapping window, backed by local disk, with correct data under
// multi-node coherence. These are scaled-down versions of the paper's
// Table 1 scenario (the ratio object_space / DMM is what matters).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "core/api.hpp"

namespace lots::core {
namespace {

TEST(LargeSpace, ObjectSpaceLargerThanDmmSingleNode) {
  Config c;
  c.nprocs = 1;
  c.dmm_bytes = 1u << 20;  // 1 MB window
  Runtime rt(c);
  rt.run([](int) {
    // 8 MB of shared objects through a 1 MB window: 8x over-commit.
    constexpr int kRows = 64;
    constexpr int kInts = 32 * 1024;  // 128 KB per row
    std::vector<Pointer<int>> rows(kRows);
    for (auto& r : rows) r.alloc(kInts);
    for (int k = 0; k < kRows; ++k) {
      for (int i = 0; i < kInts; i += 64) rows[static_cast<size_t>(k)][static_cast<size_t>(i)] = k * 1'000'000 + i;
      lots::barrier();
    }
    Node& n = Runtime::self();
    EXPECT_GT(n.stats().swap_outs.load(), 0u) << "over-commit must engage the disk";
    EXPECT_GT(n.disk().stored_bytes(), (1u << 20)) << "more object bytes on disk than DMM holds";
    for (int k = 0; k < kRows; ++k) {
      for (int i = 0; i < kInts; i += 64) {
        ASSERT_EQ(rows[static_cast<size_t>(k)][static_cast<size_t>(i)], k * 1'000'000 + i);
      }
    }
  });
}

TEST(LargeSpace, Table1StyleDistributed2DArray) {
  // The paper's Table 1 program: a shared 2-D array with total size
  // exceeding the window; each node adds numbers held by each row.
  Config c;
  c.nprocs = 4;
  c.dmm_bytes = 1u << 20;
  Runtime rt(c);
  std::array<long, 4> sums{};
  rt.run([&](int rank) {
    constexpr int kRows = 32;
    constexpr int kInts = 24 * 1024;  // 96 KB per row, 3 MB total vs 1 MB DMM
    std::vector<Pointer<int>> rows(kRows);
    for (auto& r : rows) r.alloc(kInts);
    // Round-robin row ownership; owners fill their rows.
    for (int k = rank; k < kRows; k += 4) {
      for (int i = 0; i < kInts; i += 16) rows[static_cast<size_t>(k)][static_cast<size_t>(i)] = k + i;
    }
    lots::barrier();
    // Every node sums a strided sample of EVERY row (forces fetches of
    // remote rows and swaps of local ones).
    long sum = 0;
    for (int k = 0; k < kRows; ++k) {
      for (int i = 0; i < kInts; i += 1024) sum += rows[static_cast<size_t>(k)][static_cast<size_t>(i)];
    }
    sums[static_cast<size_t>(rank)] = sum;
    lots::barrier();
  });
  for (int r = 1; r < 4; ++r) EXPECT_EQ(sums[static_cast<size_t>(r)], sums[0]);
  long expect = 0;
  for (int k = 0; k < 32; ++k) {
    for (int i = 0; i < 24 * 1024; i += 1024) expect += k + i;
  }
  EXPECT_EQ(sums[0], expect);
}

TEST(LargeSpace, DiskModelChargesIoTime) {
  Config c;
  c.nprocs = 1;
  c.dmm_bytes = 1u << 20;
  c.disk.seek_us = 100;
  c.disk.throughput_MBps = 50;
  Runtime rt(c);
  rt.run([](int) {
    constexpr int kRows = 24;
    std::vector<Pointer<int>> rows(kRows);
    for (auto& r : rows) r.alloc(32 * 1024);
    for (int k = 0; k < kRows; ++k) {
      rows[static_cast<size_t>(k)][0] = k;
      lots::barrier();
    }
    for (int k = 0; k < kRows; ++k) ASSERT_EQ(rows[static_cast<size_t>(k)][0], k);
    EXPECT_GT(Runtime::self().stats().disk_wait_us.load(), 0u);
  });
}

TEST(LargeSpace, SwappedObjectsKeepWordTimestamps) {
  // Swap images persist the control-area stamps: after a swap cycle, a
  // remote fetch must still be answerable as a per-word diff.
  Config c;
  c.nprocs = 2;
  c.dmm_bytes = 2u << 20;
  Runtime rt(c);
  rt.run([](int rank) {
    Pointer<int> a;
    a.alloc(64 * 1024);  // 256 KB
    lots::barrier();
    if (rank == 0) {
      for (int i = 0; i < 64 * 1024; ++i) a[i] = i;
    }
    lots::barrier();
    if (rank == 1) {
      volatile int warm = a[5];  // full fetch
      ASSERT_EQ(warm, 5);
    }
    lots::barrier();
    if (rank == 0) a[100] = -7;
    lots::barrier();
    if (rank == 0) {
      Runtime::self().force_swap_out(a.id());  // home data round-trips disk
    }
    lots::run_barrier();
    if (rank == 1) {
      ASSERT_EQ(a[100], -7);  // served from rank 0's disk image, as a diff
      ASSERT_EQ(a[5], 5);
    }
    lots::barrier();
  });
}

TEST(LargeSpace, SwapPathMovesEachRowAboutOnce) {
  // Written rows swept through a window a quarter of their size, two
  // sweeps per barrier interval, as ooc_sweep does. An eviction writes
  // the data, the stamps and a twin that differs from the data; a fault
  // reads the same back; the barrier's flush of a swapped-out row writes
  // back only the image header and its (one-run) stamps.
  Config c;
  c.nprocs = 1;
  c.dmm_bytes = 1u << 20;
  Runtime rt(c);
  constexpr int kRows = 32;
  constexpr int kInts = 16 * 1024;  // 64 KB rows: 2 MB through a 1 MB window
  constexpr uint64_t kRow = kInts * 4;
  constexpr uint64_t kMove = 2 * kRow + 4096;
  rt.run([&](int) {
    std::vector<Pointer<int>> rows(kRows);
    for (auto& r : rows) r.alloc(kInts);
    Node& node = Runtime::self();
    NodeStats& st = node.stats();
    uint64_t evictions = 0, faults = 0;
    for (int interval = 0; interval < 3; ++interval) {
      for (int sweep = 0; sweep < 2; ++sweep) {
        for (int k = 0; k < kRows; ++k) {
          const uint64_t out0 = st.swap_bytes_out.load(), in0 = st.swap_bytes_in.load();
          const uint64_t ev0 = st.evictions.load(), si0 = st.swap_ins.load();
          auto& row = rows[static_cast<size_t>(k)];
          for (int i = 0; i < kInts; ++i) row[static_cast<size_t>(i)] += k + i;
          const uint64_t ev = st.evictions.load() - ev0, si = st.swap_ins.load() - si0;
          evictions += ev;
          faults += si;
          EXPECT_LE(st.swap_bytes_out.load() - out0, ev * kMove) << "row " << k;
          EXPECT_LE(st.swap_bytes_in.load() - in0, si * kMove) << "row " << k;
        }
      }
      uint64_t swapped = 0;
      for (auto& r : rows) swapped += !node.is_mapped(r.id());
      const uint64_t out0 = st.swap_bytes_out.load();
      lots::barrier();
      EXPECT_GT(swapped, 0u);
      EXPECT_LE(st.swap_bytes_out.load() - out0, swapped * 4096) << "interval " << interval;
    }
    EXPECT_GT(evictions, 0u);
    EXPECT_GT(faults, 0u);
    for (int k = 0; k < kRows; ++k) {
      for (int i = 0; i < kInts; i += 61) {
        ASSERT_EQ(rows[static_cast<size_t>(k)][static_cast<size_t>(i)], 6 * (k + i));
      }
    }
  });
}

// --- barrier footprint: what a barrier retains between flush and plan ---

TEST(LargeSpace, HomeWritesSwappedOutMidIntervalRetainNoPayload) {
  // Every row is written by its home and the rows overflow the window,
  // so most are swapped out twinned mid-interval and flushed from their
  // disk images. A home's write is committed in its copy: the barrier
  // must keep no diff payload for it — only the stamps.
  Config c;
  c.nprocs = 2;
  c.dmm_bytes = 1u << 20;
  Runtime rt(c);
  constexpr int kRows = 64;
  constexpr int kInts = 16 * 1024;  // 64 KB rows: 2 MB homed per rank vs a 1 MB window
  rt.run([&](int rank) {
    std::vector<Pointer<int>> rows(kRows);
    for (auto& r : rows) r.alloc(kInts);
    for (int k = 0; k < kRows; ++k) {
      auto& row = rows[static_cast<size_t>(k)];
      if (Runtime::self().home_of(row.id()) != rank) continue;
      for (int i = 0; i < kInts; ++i) row[static_cast<size_t>(i)] = k * kInts + i;
    }
    lots::barrier();
    NodeStats& st = Runtime::self().stats();
    EXPECT_GT(st.swap_outs.load(), 0u) << "rows must be swapped out mid-interval";
    EXPECT_GT(st.diffs_created.load(), 0u);
    EXPECT_EQ(st.diff_words_retained_peak.load(), 0u) << "home writes kept a payload";
    EXPECT_EQ(st.diff_words_sent.load(), 0u);
    EXPECT_EQ(st.barrier_fallback_diffs.load(), 0u);
    // The stamps alone publish the writes: every rank reads every row.
    for (int k = 0; k < kRows; ++k) {
      for (int i = 0; i < kInts; i += 97) {
        ASSERT_EQ(rows[static_cast<size_t>(k)][static_cast<size_t>(i)], k * kInts + i);
      }
    }
    lots::barrier();
  });
}

TEST(LargeSpace, NonHomeMultiWriterShipsTheMergedDiff) {
  // Two non-home writers of one object: each keeps its payload and
  // ships exactly its merged diff (the union of its lock intervals'
  // words) to the unchanged home.
  Config c;
  c.nprocs = 3;
  c.dmm_bytes = 1u << 20;
  Runtime rt(c);
  constexpr int kInts = 1024;
  rt.run([&](int rank) {
    Pointer<int> a;
    a.alloc(kInts);
    ASSERT_EQ(Runtime::self().home_of(a.id()), 1);  // id 1 -> rank 1
    if (rank == 0) {
      // Two overlapping lock intervals, coalesced into one record.
      lots::acquire(7);
      for (int i = 0; i < 300; ++i) a[static_cast<size_t>(i)] = -i - 1;
      lots::release(7);
      lots::acquire(7);
      for (int i = 200; i < 512; ++i) a[static_cast<size_t>(i)] = i;
      lots::release(7);
    } else if (rank == 2) {
      for (int i = 512; i < kInts; ++i) a[static_cast<size_t>(i)] = 2 * i;
    }
    NodeStats& st = Runtime::self().stats();
    const uint64_t sent_before = st.diff_words_sent.load();
    lots::barrier();
    const uint64_t shipped = st.diff_words_sent.load() - sent_before;
    if (rank == 1) {
      EXPECT_EQ(shipped, 0u);
      EXPECT_EQ(st.diff_words_retained_peak.load(), 0u);
    } else {
      EXPECT_EQ(shipped, 512u) << "rank " << rank;
      EXPECT_EQ(st.diff_words_retained_peak.load(), 512u) << "rank " << rank;
    }
    EXPECT_EQ(Runtime::self().home_of(a.id()), 1);
    for (int i = 0; i < 200; ++i) ASSERT_EQ(a[static_cast<size_t>(i)], -i - 1);
    for (int i = 200; i < 512; ++i) ASSERT_EQ(a[static_cast<size_t>(i)], i);
    for (int i = 512; i < kInts; ++i) ASSERT_EQ(a[static_cast<size_t>(i)], 2 * i);
    lots::barrier();
  });
}

struct StaleHomeRun {
  std::vector<uint64_t> digests;  ///< per rank, over the object after the barrier
  uint64_t fallbacks = 0;         ///< barrier_fallback_diffs, summed over ranks
  int32_t home = -1;              ///< rank 0's home view after the barrier
};

/// Two writers of one object homed at rank 1. With `stale`, rank 0 is
/// told it is the home too, so both claim it; the plan picks rank 0, and
/// the real home — which kept no payload and whose copy sits on disk —
/// must rebuild its diff from the copy's stamps.
StaleHomeRun run_two_home_writers(bool stale) {
  Config c;
  c.nprocs = 2;
  c.dmm_bytes = 1u << 20;
  Runtime rt(c);
  constexpr int kInts = 16 * 1024;
  StaleHomeRun out;
  out.digests.assign(2, 0);
  rt.run([&](int rank) {
    Pointer<int> a;
    a.alloc(kInts);
    lots::barrier();
    if (stale && rank == 0) Runtime::self().set_home_for_test(a.id(), 0);
    const int lo = rank == 1 ? 0 : kInts / 2;
    for (int i = lo; i < lo + kInts / 2; i += 3) a[static_cast<size_t>(i)] = 7 * i + rank;
    if (rank == 1) Runtime::self().force_swap_out(a.id());  // flush + fallback read disk
    lots::barrier();
    uint64_t h = 0xCBF29CE484222325ull;
    for (int i = 0; i < kInts; ++i) {
      h = (h ^ static_cast<uint32_t>(a[static_cast<size_t>(i)])) * 0x100000001B3ull;
    }
    out.digests[static_cast<size_t>(rank)] = h;
    if (rank == 0) out.home = Runtime::self().home_of(a.id());
    lots::barrier();
  });
  for (int r = 0; r < 2; ++r) out.fallbacks += rt.node(r).stats().barrier_fallback_diffs.load();
  return out;
}

TEST(LargeSpace, StaleHomePlanRebuildsTheHomeWritersDiffFromItsCopy) {
  const StaleHomeRun ref = run_two_home_writers(/*stale=*/false);
  const StaleHomeRun forced = run_two_home_writers(/*stale=*/true);
  EXPECT_EQ(ref.fallbacks, 0u);
  EXPECT_EQ(ref.home, 1);
  EXPECT_EQ(forced.fallbacks, 1u) << "the real home must rebuild its diff on demand";
  EXPECT_EQ(forced.home, 0) << "both ranks claimed home: the lowest claim arbitrates";
  EXPECT_EQ(ref.digests[0], ref.digests[1]);
  EXPECT_EQ(forced.digests[0], ref.digests[0]);
  EXPECT_EQ(forced.digests[1], ref.digests[0]);
}

/// Word `wi` of a data or twin section.
uint32_t word_at(const std::vector<uint8_t>& section, int wi) {
  uint32_t v;
  std::memcpy(&v, section.data() + wi * 4u, 4);
  return v;
}

/// The image of object `id` as the disk store holds it, decoded by the
/// image type; `twin` reports whether it carried a twin section.
storage::ImageBuffer stored_image(Node& node, ObjectId id, size_t bytes, bool* twin) {
  std::vector<uint8_t> blob(node.disk().size_of(id).value_or(0));
  EXPECT_TRUE(node.disk().read_object(id, blob));
  storage::ImageBuffer image(bytes, /*twinned=*/true);
  *twin = storage::DiskImage::from_blob(blob, image.sections());
  return image;
}

TEST(LargeSpace, DeliveryIntoASwappedOutTwinnedCopyMirrorsItsTwin) {
  // A write-invalidate release pushes its diff to the home (kDiffBatch).
  // When the home's copy is twinned and swapped out mid-interval, the
  // delivery patches the disk image; it must patch the image's twin too,
  // or the home's next flush takes the pushed words for its own writes
  // and re-stamps them with its own epoch.
  Config c;
  c.nprocs = 2;
  c.dmm_bytes = 1u << 20;
  c.protocol = ProtocolMode::kWriteInvalidateOnly;
  Runtime rt(c);
  constexpr int kInts = 1024;
  constexpr size_t kBytes = kInts * 4;
  std::atomic<bool> swapped{false}, pushed{false};
  rt.run([&](int rank) {
    Pointer<int> a;
    a.alloc(kInts);
    lots::barrier();
    Node& node = Runtime::self();
    const bool home = node.home_of(a.id()) == rank;
    uint32_t pushed_ts = 0;
    if (home) {
      // Run the home's epoch ahead of the pusher's, so a re-stamp by the
      // home's flush outranks the pusher's own barrier copy of the words.
      for (int k = 0; k < 4; ++k) {
        lots::acquire(9);
        lots::release(9);
      }
      for (int i = 0; i < 100; ++i) a[static_cast<size_t>(i)] = -i - 1;
      node.force_swap_out(a.id());  // twinned image: data, stamps, twin
      swapped = true;
      while (!pushed) std::this_thread::yield();
      bool twin = false;
      const storage::ImageBuffer image = stored_image(node, a.id(), kBytes, &twin);
      ASSERT_TRUE(twin);
      pushed_ts = image.stamps[500];
      int unmirrored = 0;
      for (int i = 500; i < 600; ++i) {
        ASSERT_EQ(word_at(image.data, i), static_cast<uint32_t>(3 * i));
        unmirrored += word_at(image.twin, i) != static_cast<uint32_t>(3 * i);
      }
      EXPECT_EQ(unmirrored, 0) << "pushed words missing from the image's twin";
    } else {
      while (!swapped) std::this_thread::yield();
      lots::acquire(7);
      for (int i = 500; i < 600; ++i) a[static_cast<size_t>(i)] = 3 * i;
      lots::release(7);  // returns once the home acked the applied push
      pushed = true;
    }
    lots::barrier();
    if (home) {
      // The barrier flushed the image in place: the pushed words keep
      // the pusher's stamp.
      ASSERT_FALSE(node.is_mapped(a.id()));
      bool twin = false;
      const storage::ImageBuffer image = stored_image(node, a.id(), kBytes, &twin);
      int restamped = 0;
      for (int i = 500; i < 600; ++i) restamped += image.stamps[static_cast<size_t>(i)] != pushed_ts;
      EXPECT_EQ(restamped, 0) << "the home's flush re-stamped pushed words as its own";
    }
    for (int i = 0; i < 100; ++i) ASSERT_EQ(a[static_cast<size_t>(i)], -i - 1);
    for (int i = 500; i < 600; ++i) ASSERT_EQ(a[static_cast<size_t>(i)], 3 * i);
    lots::barrier();
  });
}

}  // namespace
}  // namespace lots::core

// The object image type: run-encoded or raw stamps, an optional twin,
// and the store's direct scatter/gather I/O of it. Every decode is
// checked against a reference decoder of the flat layout the image
// replaced — [data][stamps][twin if twinned], raw stamps — so the two
// layouts are proven to carry the same sections.
#include "storage/disk_image.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>

#include "common/rng.hpp"
#include "common/tempdir.hpp"
#include "storage/disk_store.hpp"

namespace lots::storage {
namespace {

/// One copy's sections, filled from a stamp pattern and random words.
struct Copy {
  ImageBuffer buf;
  Copy(size_t words, bool twinned, const std::function<uint32_t(size_t)>& stamp, uint64_t seed)
      : buf(words * 4, twinned) {
    Rng rng(seed);
    for (auto& b : buf.data) b = static_cast<uint8_t>(rng.next_u32());
    for (auto& b : buf.twin) b = static_cast<uint8_t>(rng.next_u32());
    for (size_t i = 0; i < words; ++i) buf.stamps[i] = stamp(i);
  }
};

/// The flat layout: [data][raw stamps][twin if twinned].
std::vector<uint8_t> reference_encode(ImageBuffer& b) {
  const size_t bytes = b.data.size();
  std::vector<uint8_t> flat((b.twin.empty() ? 2 : 3) * bytes);
  std::memcpy(flat.data(), b.data.data(), bytes);
  std::memcpy(flat.data() + bytes, b.stamps.data(), bytes);
  if (!b.twin.empty()) std::memcpy(flat.data() + 2 * bytes, b.twin.data(), bytes);
  return flat;
}

/// Reference decoder of the flat layout.
ImageBuffer reference_decode(const std::vector<uint8_t>& flat, size_t bytes, bool twinned) {
  ImageBuffer out(bytes, twinned);
  std::memcpy(out.data.data(), flat.data(), bytes);
  std::memcpy(out.stamps.data(), flat.data() + bytes, bytes);
  if (twinned) std::memcpy(out.twin.data(), flat.data() + 2 * bytes, bytes);
  return out;
}

size_t count_runs(const std::vector<uint32_t>& ts) {
  size_t runs = 0;
  for (size_t i = 0; i < ts.size(); ++i) runs += i == 0 || ts[i] != ts[i - 1];
  return runs;
}

void expect_same(const ImageBuffer& got, const ImageBuffer& want, const std::string& what) {
  EXPECT_EQ(got.data, want.data) << what;
  EXPECT_EQ(got.stamps, want.stamps) << what;
  EXPECT_EQ(got.twin, want.twin) << what;
}

struct Pattern {
  std::string name;
  std::function<uint32_t(size_t)> stamp;
};

/// Stamps whose runs number exactly `runs` over `words` words (equal
/// runs, the last one taking the remainder).
Pattern runs_of(size_t runs, size_t words) {
  const size_t len = words / runs;
  return {"runs" + std::to_string(runs) + "/" + std::to_string(words),
          [=](size_t i) { return static_cast<uint32_t>(std::min(i / len, runs - 1) + 1); }};
}

std::vector<Pattern> patterns(size_t words) {
  std::vector<Pattern> out{
      {"uniform", [](size_t) { return 7u; }},
      {"zero", [](size_t) { return 0u; }},
      {"alternating", [](size_t i) { return static_cast<uint32_t>(i % 2 ? 9 : 4); }},
      {"stride64", [](size_t i) { return static_cast<uint32_t>(i % 64 == 0 ? 12 : 3); }},
      {"random", [](size_t i) { return static_cast<uint32_t>((i * 0x9E3779B1u) >> 7); }},
  };
  // The crossover: runs win only while 8 B a pair is strictly below
  // 4 B a word, i.e. 2 * runs < words.
  if (words >= 4) {
    for (size_t runs : {words / 2 - 1, words / 2, words / 2 + 1}) {
      out.push_back(runs_of(runs, words));
    }
  }
  return out;
}

TEST(DiskImage, RoundTripMatchesTheFlatLayoutAcrossStampShapes) {
  uint64_t seed = 1;
  for (size_t words : {1u, 2u, 3u, 64u, 1000u, 4096u}) {
    for (const Pattern& p : patterns(words)) {
      for (bool twinned : {false, true}) {
        const std::string what = p.name + " words=" + std::to_string(words) +
                                 (twinned ? " twinned" : " untwinned");
        Copy c(words, twinned, p.stamp, seed++);
        const DiskImage image(c.buf.sections());
        const DiskImage::Header& h = image.header();
        const size_t runs = count_runs(c.buf.stamps);
        const bool want_runs = 2 * runs < words;
        EXPECT_EQ((h.flags & DiskImage::kRuns) != 0, want_runs) << what;
        EXPECT_EQ(h.stamp_bytes, want_runs ? 8 * runs : 4 * words) << what;
        EXPECT_EQ((h.flags & DiskImage::kTwin) != 0, twinned) << what;
        EXPECT_EQ(image.size(),
                  DiskImage::kHeaderBytes + 4 * words + h.stamp_bytes + (twinned ? 4 * words : 0))
            << what;

        const std::vector<uint8_t> blob = image.to_blob();
        ImageBuffer got(4 * words, twinned);
        EXPECT_EQ(DiskImage::from_blob(blob, got.sections()), twinned) << what;
        expect_same(got, reference_decode(reference_encode(c.buf), 4 * words, twinned), what);
      }
    }
  }
}

TEST(DiskImage, Table1StrideRowsTakeAFractionOfRawStamps) {
  // A 256 KB row written at every 64th word: two runs per 64 stamps.
  constexpr size_t kWords = 64 * 1024;
  Copy c(kWords, false, [](size_t i) { return static_cast<uint32_t>(i % 64 == 0 ? 5 : 0); }, 3);
  const DiskImage image(c.buf.sections());
  EXPECT_LE(image.header().stamp_bytes * 100, kWords * 4 * 7) << "over 7% of raw";
  Copy full(kWords, false, [](size_t) { return 5u; }, 4);
  EXPECT_EQ(DiskImage(full.buf.sections()).header().stamp_bytes, 8u) << "one run";
}

TEST(DiskImage, MalformedBlobsAreFatal) {
  Copy c(256, true, [](size_t i) { return static_cast<uint32_t>(i / 100); }, 5);
  std::vector<uint8_t> blob = DiskImage(c.buf.sections()).to_blob();
  ImageBuffer out(1024, true);
  std::vector<uint8_t> cut(blob.begin(), blob.end() - 1);
  EXPECT_DEATH(DiskImage::from_blob(cut, out.sections()), "length mismatch");
  ImageBuffer wrong_size(2048, true);
  EXPECT_DEATH(DiskImage::from_blob(blob, wrong_size.sections()), "expected 2048");
  blob[0] ^= 0xFF;  // magic
  EXPECT_DEATH(DiskImage::from_blob(blob, out.sections()), "bad image header");
}

class DiskImageStoreTest : public ::testing::Test {
 protected:
  TempDir dir_;
};

TEST_F(DiskImageStoreTest, ScatterGatherRoundTripAndCommittedReads) {
  NodeStats stats;
  DiskStore store(dir_.path(), 0, DiskModel{}, &stats);
  uint64_t seed = 11;
  uint64_t id = 0;
  for (size_t words : {1u, 5u, 777u, 4096u}) {
    for (const Pattern& p : patterns(words)) {
      for (bool twinned : {false, true}) {
        const std::string what = p.name + " words=" + std::to_string(words);
        Copy c(words, twinned, p.stamp, seed++);
        const size_t bytes = 4 * words;
        ++id;
        const uint64_t out_before = stats.swap_bytes_out.load();
        store.write_image(id, DiskImage(c.buf.sections()));
        EXPECT_EQ(stats.swap_bytes_out.load() - out_before, DiskImage(c.buf.sections()).size())
            << what;
        EXPECT_EQ(store.size_of(id), DiskImage(c.buf.sections()).size()) << what;

        ImageBuffer got(bytes, twinned);
        ASSERT_TRUE(store.read_image(id, got.sections())) << what;
        expect_same(got, reference_decode(reference_encode(c.buf), bytes, twinned), what);

        // The committed words: the twin when there is one, else the data.
        ImageBuffer committed(bytes);
        ASSERT_TRUE(store.read_image(id, committed.sections(), /*committed=*/true)) << what;
        EXPECT_EQ(committed.data, twinned ? c.buf.twin : c.buf.data) << what;
        EXPECT_EQ(committed.stamps, c.buf.stamps) << what;
      }
    }
  }
  ImageBuffer none(4);
  EXPECT_FALSE(store.read_image(9999, none.sections()));
  // A mismatched twin expectation is refused, not misread.
  ImageBuffer flipped(4 * 4096, false);
  EXPECT_DEATH(store.read_image(id, flipped.sections()), "twin section mismatch");
}

TEST_F(DiskImageStoreTest, RewriteStampsKeepsDataDropsTwinAndWritesOnlyStamps) {
  NodeStats stats;
  DiskStore store(dir_.path(), 0, DiskModel{}, &stats);
  constexpr size_t kWords = 4096;
  // Twinned image with stride stamps, as a copy swapped out mid-interval.
  Copy c(kWords, true, [](size_t i) { return static_cast<uint32_t>(i % 64 == 0 ? 3 : 1); }, 21);
  store.write_image(1, DiskImage(c.buf.sections()));
  const uint64_t file = store.file_bytes();

  // The flush stamps every word: one run, header and stamps rewritten.
  for (auto& t : c.buf.stamps) t = 4;
  ImageSections flushed = c.buf.sections();
  flushed.twin = nullptr;
  const uint64_t out_before = stats.swap_bytes_out.load();
  store.rewrite_stamps(1, DiskImage(flushed));
  EXPECT_EQ(stats.swap_bytes_out.load() - out_before, DiskImage::kHeaderBytes + 8);
  EXPECT_EQ(store.file_bytes(), file) << "the extent was rewritten in place";

  ImageBuffer got(kWords * 4);
  ASSERT_TRUE(store.read_image(1, got.sections()));
  EXPECT_EQ(got.data, c.buf.data);
  EXPECT_EQ(got.stamps, c.buf.stamps);

  // Stamps that outgrow the extent force a whole rewrite elsewhere.
  ImageBuffer small(8 * 4);
  store.write_image(2, DiskImage(small.sections()));  // all-zero: one run, tiny extent
  for (size_t i = 0; i < 8; ++i) small.stamps[i] = static_cast<uint32_t>(i);
  store.rewrite_stamps(2, DiskImage(small.sections()));
  ImageBuffer back(8 * 4);
  ASSERT_TRUE(store.read_image(2, back.sections()));
  EXPECT_EQ(back.stamps, small.stamps);
  EXPECT_EQ(back.data, small.data);
}

TEST_F(DiskImageStoreTest, ExtentIsReusedWhileTheImageFits) {
  DiskStore store(dir_.path(), 0);
  Copy twinned(1024, true, [](size_t) { return 1u; }, 31);
  store.write_image(1, DiskImage(twinned.buf.sections()));
  const uint64_t file = store.file_bytes();
  const uint64_t stored = store.stored_bytes();
  Copy plain(1024, false, [](size_t) { return 2u; }, 32);
  store.write_image(1, DiskImage(plain.buf.sections()));  // smaller: same extent
  EXPECT_EQ(store.file_bytes(), file);
  EXPECT_EQ(store.stored_bytes(), stored);
  EXPECT_EQ(store.stored_bytes_after(1, 10), stored);
  EXPECT_EQ(store.stored_bytes_after(1, stored + 100), stored + 100);
  EXPECT_EQ(store.stored_bytes_after(2, 100), stored + 100);
  ImageBuffer got(4096);
  ASSERT_TRUE(store.read_image(1, got.sections()));
  EXPECT_EQ(got.data, plain.buf.data);
  EXPECT_EQ(got.stamps, plain.buf.stamps);
}

}  // namespace
}  // namespace lots::storage

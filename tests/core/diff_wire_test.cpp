// Round-trip, size and fuzz coverage for the diff wire codec (flat or
// run-length, whichever is smaller): every diff must decode back to the
// same logical diff, and applying the decoded diff must produce
// byte-identical memory — including adversarial run boundaries, empty
// diffs, single words and full objects. The size table pins the exact
// bytes each shape costs on the wire.
#include "core/diff.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"

namespace lots::core {
namespace {

void expect_word_diff_round_trip(const std::vector<uint32_t>& idx,
                                 const std::vector<uint32_t>& val,
                                 const std::vector<uint32_t>& ts, const char* label) {
  std::vector<uint8_t> buf;
  net::Writer w(buf);
  const size_t saved = encode_word_diff(w, idx, val, ts);
  EXPECT_EQ(buf.size() + saved, 5 + 12 * idx.size()) << label << ": saved is not vs flat";
  net::Reader r(buf);
  std::vector<uint32_t> i2, v2, t2;
  decode_word_diff(r, i2, v2, t2);
  EXPECT_TRUE(r.done()) << label << ": trailing bytes";
  EXPECT_EQ(i2, idx) << label;
  EXPECT_EQ(v2, val) << label;
  EXPECT_EQ(t2, ts) << label;
}

void expect_record_round_trip(const DiffRecord& rec, const char* label) {
  std::vector<uint8_t> buf;
  net::Writer w(buf);
  encode_record(w, rec);
  net::Reader r(buf);
  const DiffRecord out = decode_record(r);
  EXPECT_TRUE(r.done()) << label << ": trailing bytes";
  EXPECT_EQ(out.object, rec.object) << label;
  EXPECT_EQ(out.epoch, rec.epoch) << label;
  EXPECT_EQ(out.word_idx, rec.word_idx) << label;
  EXPECT_EQ(out.word_val, rec.word_val) << label;
  // The stamp VECTOR may differ in representation (a decoded run record
  // materializes per-word stamps); the per-word effective stamp must not.
  ASSERT_EQ(out.words(), rec.words()) << label;
  for (size_t i = 0; i < rec.words(); ++i) {
    EXPECT_EQ(out.ts_of(i), rec.ts_of(i)) << label << " word " << i;
  }
}

TEST(DiffWire, WordDiffRunsShrinkContiguousShapes) {
  // One 64-word run with a shared stamp: 13 + 4*64 B vs 5 + 12*64 B.
  std::vector<uint32_t> idx(64), val(64), ts(64, 7);
  for (uint32_t i = 0; i < 64; ++i) {
    idx[i] = 100 + i;
    val[i] = i * 3;
  }
  std::vector<uint8_t> rle;
  net::Writer wr(rle);
  const size_t saved = encode_word_diff(wr, idx, val, ts);
  const size_t flat = 5 + 12 * idx.size();
  EXPECT_LT(rle.size(), flat);
  EXPECT_EQ(saved, flat - rle.size());
  EXPECT_LE(rle.size(), idx.size() * 4 + 18);  // ~4 B/word + headers
  expect_word_diff_round_trip(idx, val, ts, "dense shared-stamp");
}

TEST(DiffWire, WordDiffMixedStampsFallBackPerWordInsideRuns) {
  // A run whose stamps differ must carry per-word stamps, and a run with
  // one epoch must not.
  std::vector<uint32_t> idx{5, 6, 7, 8, 20, 21, 22, 23};
  std::vector<uint32_t> val{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<uint32_t> ts{9, 9, 9, 9, 3, 4, 3, 4};  // run 2 is mixed
  expect_word_diff_round_trip(idx, val, ts, "mixed stamps");
}

TEST(DiffWire, WordDiffAdversarialShapes) {
  expect_word_diff_round_trip({}, {}, {}, "empty");
  expect_word_diff_round_trip({0}, {42}, {1}, "single word at zero");
  expect_word_diff_round_trip({4097}, {42}, {9}, "single word high");
  // Alternating singletons: worst case for run encoding (must fall back).
  std::vector<uint32_t> idx, val, ts;
  for (uint32_t i = 0; i < 32; ++i) {
    idx.push_back(i * 2);
    val.push_back(i);
    ts.push_back(5 + (i % 3));
  }
  expect_word_diff_round_trip(idx, val, ts, "alternating singletons");
  // Runs touching at a boundary minus one (1,2,3 then 5,6,7).
  expect_word_diff_round_trip({1, 2, 3, 5, 6, 7}, {1, 2, 3, 4, 5, 6}, {2, 2, 2, 2, 2, 2},
                              "adjacent-minus-one runs");
  // Unsorted indices: the encoder must notice and fall back to flat.
  std::vector<uint8_t> buf;
  net::Writer w(buf);
  const size_t saved = encode_word_diff(w, std::vector<uint32_t>{9, 3, 4},
                                       std::vector<uint32_t>{1, 2, 3},
                                       std::vector<uint32_t>{1, 1, 1});
  EXPECT_EQ(saved, 0u);
  net::Reader r(buf);
  std::vector<uint32_t> i2, v2, t2;
  decode_word_diff(r, i2, v2, t2);
  EXPECT_EQ(i2, (std::vector<uint32_t>{9, 3, 4}));
}

TEST(DiffWire, RecordRunsRoundTripAllForms) {
  // Uniform epoch, two runs.
  expect_record_round_trip(DiffRecord{7, 12, {10, 11, 12, 40, 41, 42}, {1, 2, 3, 4, 5, 6}},
                           "uniform two runs");
  // Per-word stamps, one uniform run + one mixed run.
  DiffRecord per_word{9, 30, {0, 1, 2, 3, 50, 51}, {9, 8, 7, 6, 5, 4}};
  per_word.word_ts = {30, 30, 30, 30, 12, 14};
  expect_record_round_trip(per_word, "per-word stamps");
  // Empty and single-word records.
  expect_record_round_trip(DiffRecord{1, 1, {}, {}}, "empty record");
  expect_record_round_trip(DiffRecord{1, 1, {3}, {4}}, "single word record");
  // Full-object contiguous record: one run at ~4 B/word.
  DiffRecord full{3, 8, {}, {}};
  for (uint32_t i = 0; i < 256; ++i) {
    full.word_idx.push_back(i);
    full.word_val.push_back(i ^ 0xABCD);
  }
  expect_record_round_trip(full, "full object");
}

TEST(DiffWire, RecordRunsBeatFlatOnMultiRunShapes) {
  // Two dense runs with a gap: the flat form costs 8 B/word, runs get
  // ~4 B/word.
  DiffRecord rec{5, 9, {}, {}};
  for (uint32_t i = 0; i < 64; ++i) {
    rec.word_idx.push_back(i);
    rec.word_val.push_back(i);
  }
  for (uint32_t i = 128; i < 192; ++i) {
    rec.word_idx.push_back(i);
    rec.word_val.push_back(i);
  }
  std::vector<uint8_t> rle;
  net::Writer wr(rle);
  const size_t saved = encode_record(wr, rec);
  const size_t flat = 8 + 5 + 8 * rec.words();
  EXPECT_LT(rle.size(), flat * 3 / 4);
  EXPECT_EQ(saved, flat - rle.size());
}

/// One shape of the size table: the words, their stamps (empty: the
/// record epoch stamps them all) and the exact encoded sizes.
struct SizeCase {
  const char* label;
  std::vector<uint32_t> idx;
  std::vector<uint32_t> ts;
  size_t record_bytes;  ///< encode_record, (object, epoch) header included
  size_t word_bytes;    ///< encode_word_diff; 0 for words without stamps
};

/// `count` consecutive indices from `start`, appended to `idx`.
void add_run(std::vector<uint32_t>& idx, uint32_t start, uint32_t count) {
  for (uint32_t i = 0; i < count; ++i) idx.push_back(start + i);
}

TEST(DiffWire, EncodedSizeTable) {
  // Records:    flat = 8 + 5 + 8n (+4n with per-word stamps)
  //             runs = 8 + 5 + sum(9 + 4c [+4 shared | +4c per-word])
  // Word diffs: flat = 5 + 12n
  //             runs = 5 + sum(9 + 4c + (4 shared | 4c per-word))
  // The encoder ships the smaller; the saving is reported against flat.
  std::vector<SizeCase> cases;
  cases.push_back({"empty", {}, {}, 13, 5});
  cases.push_back({"one word", {42}, {}, 21, 0});
  cases.push_back({"one stamped word", {42}, {6}, 25, 17});
  cases.push_back({"sparse scatter", {0, 5, 9, 20}, {}, 45, 0});
  cases.push_back({"stamped sparse scatter", {0, 5, 9, 20}, {3, 4, 5, 6}, 61, 53});
  SizeCase epoch_run{"one run, record epoch", {}, {}, 8 + 5 + 9 + 4 * 16, 0};
  add_run(epoch_run.idx, 100, 16);
  cases.push_back(epoch_run);
  SizeCase shared_run{"one run, shared stamp", {}, {}, 8 + 5 + 9 + 4 * 16 + 4,
                      5 + 9 + 4 * 16 + 4};
  add_run(shared_run.idx, 100, 16);
  shared_run.ts.assign(16, 6);
  cases.push_back(shared_run);
  SizeCase per_word{"three runs, per-word stamps", {}, {}, 8 + 5 + 3 * (9 + 4 * 8 + 4 * 8),
                    5 + 3 * (9 + 4 * 8 + 4 * 8)};
  add_run(per_word.idx, 0, 8);
  add_run(per_word.idx, 20, 8);
  add_run(per_word.idx, 40, 8);
  for (uint32_t i = 0; i < 24; ++i) per_word.ts.push_back(3 + i % 2);
  cases.push_back(per_word);

  for (const SizeCase& c : cases) {
    const size_t n = c.idx.size();
    std::vector<uint32_t> val(n);
    for (size_t i = 0; i < n; ++i) val[i] = static_cast<uint32_t>(7 * i + 1);
    const DiffRecord rec{3, 9, c.idx, val, c.ts};
    std::vector<uint8_t> buf;
    net::Writer w(buf);
    const size_t saved = encode_record(w, rec);
    EXPECT_EQ(buf.size(), c.record_bytes) << c.label;
    EXPECT_EQ(buf.size() + saved, 8 + 5 + (c.ts.empty() ? 8 : 12) * n) << c.label;
    expect_record_round_trip(rec, c.label);
    if (c.word_bytes == 0) continue;  // a word diff always carries stamps
    std::vector<uint8_t> wbuf;
    net::Writer ww(wbuf);
    encode_word_diff(ww, c.idx, val, c.ts);
    EXPECT_EQ(wbuf.size(), c.word_bytes) << c.label;
    expect_word_diff_round_trip(c.idx, val, c.ts, c.label);
  }
}

TEST(DiffWire, FuzzEncodeDecodeApplyIdentical) {
  // Seeded sweep over random diffs: whatever the encoder emits, decoding
  // and applying must produce the same bytes and stamps as applying the
  // original.
  Rng rng(20260726);
  for (int iter = 0; iter < 300; ++iter) {
    const size_t words = 1 + rng.below(300);
    // Random subset of words, ascending, with clustered runs.
    std::vector<uint32_t> idx, val, ts;
    const double density = 0.05 + rng.unit() * 0.9;
    const bool uniform_ts = rng.below(3) == 0;
    const uint32_t base_epoch = 1 + static_cast<uint32_t>(rng.below(50));
    for (uint32_t wi = 0; wi < words; ++wi) {
      if (rng.unit() < density) {
        idx.push_back(wi);
        val.push_back(rng.next_u32());
        ts.push_back(uniform_ts ? base_epoch
                                : base_epoch + static_cast<uint32_t>(rng.below(4)));
      }
    }

    // --- word-diff codec: apply must match the un-encoded original ---
    std::vector<uint8_t> want_data(words * 4, 0);
    std::vector<uint32_t> want_ts(words, 0);
    // Pre-populate some words with newer stamps so the newer-than rule
    // is exercised through the codec too.
    for (size_t k = 0; k < words; k += 7) {
      want_ts[k] = base_epoch + 2;
      const uint32_t v = 0xD00D + static_cast<uint32_t>(k);
      std::memcpy(want_data.data() + k * 4, &v, 4);
    }
    std::vector<uint8_t> got_data = want_data;
    std::vector<uint32_t> got_ts = want_ts;
    apply_word_diff(idx, val, ts, want_data.data(), want_ts.data());
    {
      std::vector<uint8_t> buf;
      net::Writer w(buf);
      encode_word_diff(w, idx, val, ts);
      net::Reader r(buf);
      std::vector<uint32_t> i2, v2, t2;
      decode_word_diff(r, i2, v2, t2);
      apply_word_diff(i2, v2, t2, got_data.data(), got_ts.data());
      ASSERT_EQ(got_data, want_data) << "iter " << iter;
      ASSERT_EQ(got_ts, want_ts) << "iter " << iter;
    }

    // --- record codec, with and without per-word stamps ---
    DiffRecord rec{static_cast<ObjectId>(1 + iter), base_epoch + 4, idx, val};
    if (!uniform_ts) rec.word_ts = ts;
    std::vector<uint8_t> buf;
    net::Writer w(buf);
    encode_record(w, rec);
    net::Reader r(buf);
    const DiffRecord out = decode_record(r);
    std::vector<uint8_t> a(words * 4, 0), b(words * 4, 0);
    std::vector<uint32_t> ats(words, 0), bts(words, 0);
    apply_record(rec, a.data(), ats.data());
    apply_record(out, b.data(), bts.data());
    ASSERT_EQ(a, b) << "iter " << iter;
    ASSERT_EQ(ats, bts) << "iter " << iter;
  }
}

TEST(DiffWire, VectorizedTwinDiffMatchesScalarReference) {
  // compute_twin_diff descends blockwise; its output must equal the
  // definitional word-by-word scan for every shape, including odd word
  // counts and changes at block boundaries.
  Rng rng(424242);
  for (int iter = 0; iter < 200; ++iter) {
    const size_t words = 1 + rng.below(200);
    std::vector<uint8_t> twin(words * 4), data;
    for (auto& b : twin) b = static_cast<uint8_t>(rng.below(256));
    data = twin;
    const size_t flips = rng.below(words + 1);
    for (size_t f = 0; f < flips; ++f) {
      data[rng.below(words * 4)] ^= static_cast<uint8_t>(1 + rng.below(255));
    }
    const DiffRecord rec = compute_twin_diff(1, 5, data, twin);
    std::vector<uint32_t> want_idx, want_val;
    for (size_t wi = 0; wi < words; ++wi) {
      uint32_t dv, tv;
      std::memcpy(&dv, data.data() + wi * 4, 4);
      std::memcpy(&tv, twin.data() + wi * 4, 4);
      if (dv != tv) {
        want_idx.push_back(static_cast<uint32_t>(wi));
        want_val.push_back(dv);
      }
    }
    ASSERT_EQ(rec.word_idx, want_idx) << "iter " << iter << " words=" << words;
    ASSERT_EQ(rec.word_val, want_val) << "iter " << iter;
  }
}

TEST(DiffWire, DiffSinceBlockScanMatchesScalarReference) {
  Rng rng(777);
  for (int iter = 0; iter < 200; ++iter) {
    const size_t words = 1 + rng.below(200);
    std::vector<uint8_t> data(words * 4);
    std::vector<uint32_t> ts(words);
    for (auto& b : data) b = static_cast<uint8_t>(rng.below(256));
    for (auto& t : ts) t = static_cast<uint32_t>(rng.below(10));
    const uint32_t since = static_cast<uint32_t>(rng.below(10));
    std::vector<uint32_t> idx, val, ots;
    diff_since(data, ts.data(), since, idx, val, ots);
    std::vector<uint32_t> want_idx;
    for (size_t wi = 0; wi < words; ++wi) {
      if (ts[wi] > since) want_idx.push_back(static_cast<uint32_t>(wi));
    }
    ASSERT_EQ(idx, want_idx) << "iter " << iter;
    ASSERT_EQ(idx.size(), val.size());
    ASSERT_EQ(idx.size(), ots.size());
    for (size_t k = 0; k < idx.size(); ++k) {
      uint32_t dv;
      std::memcpy(&dv, data.data() + static_cast<size_t>(idx[k]) * 4, 4);
      ASSERT_EQ(val[k], dv);
      ASSERT_EQ(ots[k], ts[idx[k]]);
    }
  }
}

}  // namespace
}  // namespace lots::core

// The one layout of a swapped-out object copy.
//
// A copy in the DMM window has up to three sections at the same offset
// of the three Fig. 3 segments: its data words, one uint32 stamp per
// data word (the control area), and — while twinned — the twin. Its
// image, on the local disk or parked on a swap buddy, is
//
//   [header 16 B][data: bytes][stamps][twin: bytes, only when present]
//
// The stamp section is either the raw uint32 array or (count, stamp)
// runs of equal stamps, whichever is smaller: after a barrier, a row
// written in full carries one run. The twin section exists exactly when
// the copy holds local writes not yet flushed (the mapper drops a twin
// equal to its data before it writes the image). Data stays at a fixed
// offset, so a flush can rewrite the header and stamps in place.
#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace lots::storage {

/// Where the sections of one copy live (DMM regions or scratch).
/// `twin` is null when the copy has no twin.
struct ImageSections {
  uint8_t* data = nullptr;
  uint32_t* stamps = nullptr;
  uint8_t* twin = nullptr;
  size_t bytes = 0;  ///< data bytes, a multiple of 4
};

/// An image's sections in owned memory: for code that reads or builds a
/// swapped-out copy away from the DMM (flush, delivery, fetch serving).
struct ImageBuffer {
  std::vector<uint8_t> data;
  std::vector<uint32_t> stamps;
  std::vector<uint8_t> twin;  ///< empty: no twin

  /// Zeroed data and stamps for an object of `bytes`, with a twin slot
  /// when `twinned`.
  explicit ImageBuffer(size_t bytes, bool twinned = false)
      : data(bytes, 0), stamps(bytes / 4, 0), twin(twinned ? bytes : 0, 0) {}
  [[nodiscard]] ImageSections sections() {
    return {data.data(), stamps.data(), twin.empty() ? nullptr : twin.data(), data.size()};
  }
};

class DiskImage {
 public:
  struct Header {
    uint32_t magic = kMagic;
    uint32_t bytes = 0;        ///< data (and twin) section length
    uint32_t stamp_bytes = 0;  ///< stamp section length
    uint32_t flags = 0;        ///< kRuns | kTwin
  };
  static constexpr uint32_t kMagic = 0x494F544C;  // "LTOI"
  static constexpr uint32_t kRuns = 1;            ///< stamps are (count, stamp) runs
  static constexpr uint32_t kTwin = 2;            ///< a twin section follows the stamps
  static constexpr size_t kHeaderBytes = sizeof(Header);

  /// Encodes the header and stamp section of `s`; the data and twin are
  /// referenced in place, never copied.
  explicit DiskImage(const ImageSections& s);

  [[nodiscard]] const Header& header() const { return hdr_; }
  [[nodiscard]] size_t size() const { return image_bytes(hdr_); }
  /// Fills `out` with the gather list [header][data][stamps][twin?];
  /// returns how many entries it used (3 or 4).
  size_t gather(iovec out[4]) const;
  /// The header and the stamp section alone, for an in-place rewrite
  /// over unchanged data: out[0] goes at offset 0, out[1] at
  /// stamps_offset().
  void stamp_parts(iovec out[2]) const;

  /// Byte offset of the stamp section (it follows the data).
  [[nodiscard]] static size_t stamps_offset(const Header& h) { return kHeaderBytes + h.bytes; }
  [[nodiscard]] static size_t image_bytes(const Header& h) {
    return stamps_offset(h) + h.stamp_bytes + ((h.flags & kTwin) ? h.bytes : 0);
  }
  /// Fails (LOTS_CHECK) unless `h` is a well-formed header for an image
  /// of `bytes` data bytes.
  static void check(const Header& h, size_t bytes);
  /// Expands a stamp section into `ts` (one uint32 per data word).
  static void decode_stamps(const Header& h, std::span<const uint8_t> section, uint32_t* ts);

  /// The image as one contiguous blob (a parked remote image).
  [[nodiscard]] std::vector<uint8_t> to_blob() const;
  /// Decodes a blob into `out`, whose bytes must match. The twin goes to
  /// out.twin when both exist. Returns whether the image had a twin.
  static bool from_blob(std::span<const uint8_t> blob, const ImageSections& out);

 private:
  [[nodiscard]] iovec stamps_iov() const;

  Header hdr_;
  ImageSections s_;
  std::vector<uint32_t> runs_;  ///< (count, stamp) pairs when kRuns
};

}  // namespace lots::storage

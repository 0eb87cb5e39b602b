#include "storage/disk_image.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/error.hpp"

namespace lots::storage {
namespace {

iovec iov(const void* p, size_t n) { return {const_cast<void*>(p), n}; }

}  // namespace

DiskImage::DiskImage(const ImageSections& s) : s_(s) {
  LOTS_CHECK(s.bytes % 4 == 0, "DiskImage: data is not word-aligned");
  hdr_.bytes = static_cast<uint32_t>(s.bytes);
  if (s.twin) hdr_.flags |= kTwin;
  // Runs only when strictly smaller than the raw array (8 B a pair
  // against 4 B a word): give up as soon as the pairs cannot win.
  const size_t words = s.bytes / 4;
  bool runs = words > 0;
  for (size_t i = 0; i < words;) {
    if (2 * (runs_.size() / 2 + 1) >= words) {
      runs = false;
      break;
    }
    size_t j = i + 1;
    while (j < words && s.stamps[j] == s.stamps[i]) ++j;
    runs_.push_back(static_cast<uint32_t>(j - i));
    runs_.push_back(s.stamps[i]);
    i = j;
  }
  if (runs) {
    hdr_.flags |= kRuns;
    hdr_.stamp_bytes = static_cast<uint32_t>(runs_.size() * 4);
  } else {
    runs_.clear();
    hdr_.stamp_bytes = static_cast<uint32_t>(s.bytes);
  }
}

iovec DiskImage::stamps_iov() const {
  return (hdr_.flags & kRuns) ? iov(runs_.data(), hdr_.stamp_bytes)
                              : iov(s_.stamps, hdr_.stamp_bytes);
}

size_t DiskImage::gather(iovec out[4]) const {
  out[0] = iov(&hdr_, kHeaderBytes);
  out[1] = iov(s_.data, s_.bytes);
  out[2] = stamps_iov();
  if (!(hdr_.flags & kTwin)) return 3;
  out[3] = iov(s_.twin, s_.bytes);
  return 4;
}

void DiskImage::stamp_parts(iovec out[2]) const {
  out[0] = iov(&hdr_, kHeaderBytes);
  out[1] = stamps_iov();
}

void DiskImage::check(const Header& h, size_t bytes) {
  LOTS_CHECK(h.magic == kMagic, "DiskImage: bad image header");
  LOTS_CHECK(h.bytes == bytes,
             "DiskImage: image of " + std::to_string(h.bytes) + " data bytes, expected " +
                 std::to_string(bytes));
  const size_t words = h.bytes / 4;
  LOTS_CHECK((h.flags & kRuns) ? h.stamp_bytes % 8 == 0 && h.stamp_bytes < h.bytes
                               : h.stamp_bytes == words * 4,
             "DiskImage: bad stamp section length");
}

void DiskImage::decode_stamps(const Header& h, std::span<const uint8_t> section, uint32_t* ts) {
  const size_t words = h.bytes / 4;
  if (!(h.flags & kRuns)) {
    std::memcpy(ts, section.data(), words * 4);
    return;
  }
  size_t at = 0;
  for (size_t off = 0; off + 8 <= section.size(); off += 8) {
    uint32_t pair[2];
    std::memcpy(pair, section.data() + off, 8);
    LOTS_CHECK(pair[0] <= words - at, "DiskImage: stamp runs overrun the object");
    std::fill_n(ts + at, pair[0], pair[1]);
    at += pair[0];
  }
  LOTS_CHECK(at == words, "DiskImage: stamp runs do not cover the object");
}

std::vector<uint8_t> DiskImage::to_blob() const {
  std::vector<uint8_t> blob(size());
  iovec parts[4];
  const size_t n = gather(parts);
  size_t at = 0;
  for (size_t i = 0; i < n; ++i) {
    std::memcpy(blob.data() + at, parts[i].iov_base, parts[i].iov_len);
    at += parts[i].iov_len;
  }
  return blob;
}

bool DiskImage::from_blob(std::span<const uint8_t> blob, const ImageSections& out) {
  Header h;
  LOTS_CHECK(blob.size() >= kHeaderBytes, "DiskImage: truncated image");
  std::memcpy(&h, blob.data(), kHeaderBytes);
  check(h, out.bytes);
  LOTS_CHECK(blob.size() == image_bytes(h), "DiskImage: image length mismatch");
  std::memcpy(out.data, blob.data() + kHeaderBytes, h.bytes);
  decode_stamps(h, blob.subspan(stamps_offset(h), h.stamp_bytes), out.stamps);
  const bool twin = (h.flags & kTwin) != 0;
  if (twin && out.twin) {
    std::memcpy(out.twin, blob.data() + stamps_offset(h) + h.stamp_bytes, h.bytes);
  }
  return twin;
}

}  // namespace lots::storage

// Per-node disk backing store for swapped-out shared objects.
//
// The headline feature of LOTS (paper §1, §3.3, §4.3) is that object
// data lives on the local disk and only enters the process space while
// being accessed; the shared object space is bounded by *disk free
// space*, not by the process space (117.77 GB in the paper's test).
//
// Each node owns one store file. Object images (storage/disk_image.hpp
// owns their layout) are placed in extents managed by a first-fit free
// list with coalescing. An object keeps its extent while it is mapped
// in: the next swap-out rewrites it in place whenever the image fits,
// so a swap cycle neither frees nor reallocates space. Images move with
// one pwritev / two preadv calls straight between the DMM regions and
// the extent — no staging copy. The store's mutex covers the extent
// table and each I/O call. An optional DiskModel imposes the modeled
// I/O time of the Table 1 platform rows on the calling thread.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "storage/disk_image.hpp"

namespace lots::storage {

/// Location of one object image inside the store file. An extent may
/// be larger than the image it holds (`used`): a smaller rewrite keeps it.
struct Extent {
  uint64_t offset = 0;
  uint64_t length = 0;
  uint64_t used = 0;
};

class DiskStore {
 public:
  /// Opens (creating if needed) `dir/node<rank>.store`.
  DiskStore(const std::string& dir, int rank, DiskModel model = {}, NodeStats* stats = nullptr);
  ~DiskStore();
  DiskStore(const DiskStore&) = delete;
  DiskStore& operator=(const DiskStore&) = delete;

  /// Writes `image` as object `id`'s in one pwritev, reusing the
  /// object's extent when the image fits.
  void write_image(uint64_t id, const DiskImage& image);

  /// Reads the image of `id` straight into `s` (two preadv calls). The
  /// image must have a twin exactly when `s.twin` is set. With
  /// `committed`, `s.data` receives the committed words instead — the
  /// twin when the image has one, else the data — and `s.twin` must be
  /// null. Returns false if the object has no image.
  bool read_image(uint64_t id, const ImageSections& s, bool committed = false);

  /// Rewrites just the header and stamp section of `id`'s image in
  /// place: a flush leaves the data unchanged and drops the twin.
  /// `image` is the whole flushed copy, without a twin; when its stamp
  /// section outgrows the extent, all of it is written elsewhere.
  void rewrite_stamps(uint64_t id, const DiskImage& image);

  /// Opaque blobs (images parked by a swap peer): written whole, read
  /// whole into `out`, whose size must match size_of(id).
  void write_object(uint64_t id, std::span<const uint8_t> data);
  bool read_object(uint64_t id, std::span<uint8_t> out);

  /// Releases the extent of `id` (no-op if absent).
  void free_object(uint64_t id);

  [[nodiscard]] bool contains(uint64_t id) const;
  /// Size of `id`'s current image, if present.
  [[nodiscard]] std::optional<uint64_t> size_of(uint64_t id) const;
  [[nodiscard]] uint64_t stored_bytes() const;  ///< sum of live extents
  /// What stored_bytes() would be after writing a `length`-byte image
  /// of `id` (a disk budget check: the object's own extent is reused).
  [[nodiscard]] uint64_t stored_bytes_after(uint64_t id, uint64_t length) const;
  [[nodiscard]] uint64_t file_bytes() const;    ///< current file size
  [[nodiscard]] size_t object_count() const;

  /// Free space of the filesystem holding the store (the paper's bound
  /// on the shared object space; used by the Table 1 capacity probe).
  [[nodiscard]] uint64_t filesystem_free_bytes() const;

  /// Total modeled I/O microseconds charged so far (Table 1 accounting).
  [[nodiscard]] uint64_t modeled_io_us() const { return modeled_io_us_; }

 private:
  /// The extent of `id`, grown (reallocated) when `length` bytes do not
  /// fit. Caller holds mu_.
  Extent& place(uint64_t id, uint64_t length);
  /// write_image's body. Caller holds mu_.
  void write_whole(uint64_t id, const DiskImage& image);
  Extent allocate(uint64_t length);
  void release(Extent e);
  /// Moves every byte of `v` at file offset `off` (pwritev / preadv,
  /// resumed after short transfers).
  void transfer(iovec* v, int n, uint64_t off, bool is_write);
  void count_out(uint64_t bytes);
  void count_in(uint64_t bytes);
  void charge(uint64_t bytes);

  std::string path_;
  int fd_ = -1;
  DiskModel model_;
  NodeStats* stats_;

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Extent> objects_;
  /// Free extents ordered by offset so adjacent frees coalesce.
  std::map<uint64_t, uint64_t> free_by_offset_;  // offset -> length
  uint64_t file_end_ = 0;
  uint64_t live_bytes_ = 0;
  uint64_t modeled_io_us_ = 0;
};

}  // namespace lots::storage

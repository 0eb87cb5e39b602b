#include "storage/disk_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/statvfs.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>

#include "common/clock.hpp"
#include "common/error.hpp"

namespace lots::storage {

DiskStore::DiskStore(const std::string& dir, int rank, DiskModel model, NodeStats* stats)
    : model_(model), stats_(stats) {
  std::filesystem::create_directories(dir);
  path_ = dir + "/node" + std::to_string(rank) + ".store";
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0600);
  if (fd_ < 0) throw SystemError("DiskStore: cannot open " + path_);
}

DiskStore::~DiskStore() {
  if (fd_ >= 0) {
    ::close(fd_);
    ::unlink(path_.c_str());
  }
}

void DiskStore::charge(uint64_t bytes) {
  const double us = model_.cost_us(bytes);
  modeled_io_us_ += static_cast<uint64_t>(us);
  if (stats_) stats_->disk_wait_us.fetch_add(static_cast<uint64_t>(us), std::memory_order_relaxed);
  if (model_.time_scale > 0) precise_delay_us(us * model_.time_scale);
}

void DiskStore::count_out(uint64_t bytes) {
  charge(bytes);
  if (stats_) {
    stats_->swap_outs.fetch_add(1, std::memory_order_relaxed);
    stats_->swap_bytes_out.fetch_add(bytes, std::memory_order_relaxed);
  }
}

void DiskStore::count_in(uint64_t bytes) {
  charge(bytes);
  if (stats_) {
    stats_->swap_ins.fetch_add(1, std::memory_order_relaxed);
    stats_->swap_bytes_in.fetch_add(bytes, std::memory_order_relaxed);
  }
}

void DiskStore::transfer(iovec* v, int n, uint64_t off, bool is_write) {
  while (n > 0) {
    const ssize_t done = is_write ? ::pwritev(fd_, v, n, static_cast<off_t>(off))
                                  : ::preadv(fd_, v, n, static_cast<off_t>(off));
    if (done <= 0) {
      throw SystemError(std::string("DiskStore: ") + (is_write ? "pwritev" : "preadv") +
                        " failed on " + path_);
    }
    off += static_cast<uint64_t>(done);
    // Skip what moved: whole entries, then the front of a partial one.
    for (size_t left = static_cast<size_t>(done); left > 0;) {
      if (left >= v->iov_len) {
        left -= v->iov_len;
        ++v;
        --n;
      } else {
        v->iov_base = static_cast<uint8_t*>(v->iov_base) + left;
        v->iov_len -= left;
        left = 0;
      }
    }
    while (n > 0 && v->iov_len == 0) {
      ++v;
      --n;
    }
  }
}

Extent DiskStore::allocate(uint64_t length) {
  // First fit over the free list.
  for (auto it = free_by_offset_.begin(); it != free_by_offset_.end(); ++it) {
    if (it->second >= length) {
      Extent e{it->first, length};
      const uint64_t rest = it->second - length;
      const uint64_t rest_off = it->first + length;
      free_by_offset_.erase(it);
      if (rest > 0) free_by_offset_[rest_off] = rest;
      return e;
    }
  }
  Extent e{file_end_, length};
  file_end_ += length;
  return e;
}

void DiskStore::release(Extent e) {
  if (e.length == 0) return;
  auto [it, inserted] = free_by_offset_.emplace(e.offset, e.length);
  LOTS_CHECK(inserted, "DiskStore: double free of extent");
  // Coalesce with successor.
  auto next = std::next(it);
  if (next != free_by_offset_.end() && it->first + it->second == next->first) {
    it->second += next->second;
    free_by_offset_.erase(next);
  }
  // Coalesce with predecessor.
  if (it != free_by_offset_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second == it->first) {
      prev->second += it->second;
      free_by_offset_.erase(it);
      it = prev;
    }
  }
  // Trim the file tail when the last extent is free.
  if (it->first + it->second == file_end_) {
    file_end_ = it->first;
    free_by_offset_.erase(it);
    if (::ftruncate(fd_, static_cast<off_t>(file_end_)) != 0) {
      // Non-fatal: the space is still tracked as free in-memory.
    }
  }
}

Extent& DiskStore::place(uint64_t id, uint64_t length) {
  auto it = objects_.find(id);
  if (it != objects_.end() && it->second.length >= length) {
    it->second.used = length;  // in-place rewrite
    return it->second;
  }
  if (it != objects_.end()) {
    live_bytes_ -= it->second.length;
    release(it->second);
    objects_.erase(it);
  }
  Extent& e = objects_[id];
  e = allocate(length);
  e.used = length;
  live_bytes_ += e.length;
  return e;
}

void DiskStore::write_image(uint64_t id, const DiskImage& image) {
  std::lock_guard lk(mu_);
  write_whole(id, image);
}

void DiskStore::write_whole(uint64_t id, const DiskImage& image) {
  iovec v[4];
  const int n = static_cast<int>(image.gather(v));
  const Extent& e = place(id, image.size());
  transfer(v, n, e.offset, /*is_write=*/true);
  count_out(image.size());
}

bool DiskStore::read_image(uint64_t id, const ImageSections& s, bool committed) {
  LOTS_CHECK(!committed || s.twin == nullptr, "read_image: a committed read fills data only");
  std::lock_guard lk(mu_);
  auto it = objects_.find(id);
  if (it == objects_.end()) return false;
  const uint64_t base = it->second.offset;
  DiskImage::Header h;
  // First call: the header, plus the data section unless the committed
  // words are the twin's.
  iovec first[2] = {{&h, DiskImage::kHeaderBytes}, {s.data, s.bytes}};
  transfer(first, committed ? 1 : 2, base, /*is_write=*/false);
  DiskImage::check(h, s.bytes);
  const bool twin = (h.flags & DiskImage::kTwin) != 0;
  LOTS_CHECK(committed || twin == (s.twin != nullptr), "read_image: twin section mismatch");
  // Second call: whatever else is wanted, in file order. Raw stamps go
  // straight into place, runs via a small buffer.
  std::vector<uint8_t> runs;
  iovec rest[3];
  int n = 0;
  uint64_t at = base + DiskImage::stamps_offset(h);
  if (committed && !twin) {
    rest[n++] = {s.data, s.bytes};
    at = base + DiskImage::kHeaderBytes;
  }
  if (h.flags & DiskImage::kRuns) {
    runs.resize(h.stamp_bytes);
    rest[n++] = {runs.data(), runs.size()};
  } else {
    rest[n++] = {s.stamps, h.stamp_bytes};
  }
  if (twin) rest[n++] = {committed ? s.data : s.twin, s.bytes};
  transfer(rest, n, at, /*is_write=*/false);
  if (!runs.empty()) DiskImage::decode_stamps(h, runs, s.stamps);
  count_in(DiskImage::kHeaderBytes + h.stamp_bytes + s.bytes + (twin && !committed ? s.bytes : 0));
  return true;
}

void DiskStore::rewrite_stamps(uint64_t id, const DiskImage& image) {
  LOTS_CHECK(!(image.header().flags & DiskImage::kTwin), "rewrite_stamps: image has a twin");
  std::lock_guard lk(mu_);
  auto it = objects_.find(id);
  LOTS_CHECK(it != objects_.end(), "rewrite_stamps: no image");
  if (it->second.length < image.size()) {
    write_whole(id, image);
    return;
  }
  it->second.used = image.size();
  iovec v[2];
  image.stamp_parts(v);
  const uint64_t base = it->second.offset;
  transfer(&v[0], 1, base, /*is_write=*/true);
  transfer(&v[1], 1, base + DiskImage::stamps_offset(image.header()), /*is_write=*/true);
  count_out(DiskImage::kHeaderBytes + image.header().stamp_bytes);
}

void DiskStore::write_object(uint64_t id, std::span<const uint8_t> data) {
  std::lock_guard lk(mu_);
  const Extent& e = place(id, data.size());
  iovec v{const_cast<uint8_t*>(data.data()), data.size()};
  transfer(&v, 1, e.offset, /*is_write=*/true);
  count_out(data.size());
}

bool DiskStore::read_object(uint64_t id, std::span<uint8_t> out) {
  std::lock_guard lk(mu_);
  auto it = objects_.find(id);
  if (it == objects_.end()) return false;
  LOTS_CHECK_EQ(it->second.used, out.size(), "DiskStore: read size mismatch");
  iovec v{out.data(), out.size()};
  transfer(&v, 1, it->second.offset, /*is_write=*/false);
  count_in(out.size());
  return true;
}

void DiskStore::free_object(uint64_t id) {
  std::lock_guard lk(mu_);
  auto it = objects_.find(id);
  if (it == objects_.end()) return;
  live_bytes_ -= it->second.length;
  release(it->second);
  objects_.erase(it);
}

bool DiskStore::contains(uint64_t id) const {
  std::lock_guard lk(mu_);
  return objects_.count(id) != 0;
}

std::optional<uint64_t> DiskStore::size_of(uint64_t id) const {
  std::lock_guard lk(mu_);
  auto it = objects_.find(id);
  if (it == objects_.end()) return std::nullopt;
  return it->second.used;
}

uint64_t DiskStore::stored_bytes() const {
  std::lock_guard lk(mu_);
  return live_bytes_;
}

uint64_t DiskStore::stored_bytes_after(uint64_t id, uint64_t length) const {
  std::lock_guard lk(mu_);
  auto it = objects_.find(id);
  const uint64_t own = it == objects_.end() ? 0 : it->second.length;
  return live_bytes_ - own + std::max(own, length);
}

uint64_t DiskStore::file_bytes() const {
  std::lock_guard lk(mu_);
  return file_end_;
}

size_t DiskStore::object_count() const {
  std::lock_guard lk(mu_);
  return objects_.size();
}

uint64_t DiskStore::filesystem_free_bytes() const {
  struct statvfs vfs{};
  if (::statvfs(path_.c_str(), &vfs) != 0) return 0;
  return static_cast<uint64_t>(vfs.f_bavail) * vfs.f_frsize;
}

}  // namespace lots::storage

#pragma once
// Chunked on-disk tensor format for the out-of-core streaming drivers.
//
// Layout (little-endian, like the flat self-describing format):
//
//   u64 magic        kMagic + 2 ("TKRTENC")
//   u32 dtype        1 = float, 2 = double
//   u32 order        number of modes N (1 <= N <= kMaxOrder)
//   u64 dims[N]      dims[N-1] is patched in place by append
//   u64 slab_slices  trailing-mode slices per full slab
//   u64 num_slabs    ceil(dims[N-1] / slab_slices); patched by append
//   payload          slabs back to back, slab s = trailing slices
//                    [s*slab_slices, min((s+1)*slab_slices, dims[N-1]))
//
// Under the mode-0-fastest layout a range of trailing-mode slices is a
// contiguous range of the linearized buffer, so each slab's payload is a
// straight memcpy of the corresponding tensor range and a slab, read back
// into a Tensor, is itself a valid tensor of dims (I_0..I_{N-2}, extent).
// That is the whole point of splitting along the last mode: every other
// mode's unfolding of a slab is a column subset of the full unfolding, so
// per-slab LQ factors merge exactly (DESIGN.md Sec 11).
//
// append keeps the slab grid uniform: new trailing slices may only be
// appended while the current trailing extent is a multiple of slab_slices
// (i.e. the last slab is full); only dims[N-1] and num_slabs are patched,
// at fixed offsets, so an append is payload write + two 8-byte pokes.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "io/tensor_io.hpp"
#include "tensor/tensor.hpp"

namespace tucker::io {

namespace detail {

inline constexpr std::uint64_t kChunkedMagic = kMagic + 2;

/// Fixed header offsets (bytes) used by the append patch path.
inline std::size_t chunked_dim_last_offset(std::uint32_t order) {
  return 8 + 4 + 4 + (static_cast<std::size_t>(order) - 1) * 8;
}
inline std::size_t chunked_num_slabs_offset(std::uint32_t order) {
  return 8 + 4 + 4 + static_cast<std::size_t>(order) * 8 + 8;
}

}  // namespace detail

/// Sequential writer: header first, then one write_slab per slab in order.
/// Used by the spill passes of stream_sthosvd and by write_chunked_tensor.
template <class T>
class ChunkedTensorWriter {
 public:
  ChunkedTensorWriter(const std::string& path, tensor::Dims dims,
                      index_t slab_slices)
      : dims_(std::move(dims)), slab_slices_(slab_slices) {
    TUCKER_CHECK(!dims_.empty() && dims_.size() <= detail::kMaxOrder,
                 "chunked io: implausible order");
    TUCKER_CHECK(slab_slices_ > 0, "chunked io: slab_slices must be positive");
    f_.reset(detail::open_or_die(path, "wb"));
    const std::uint64_t magic = detail::kChunkedMagic;
    const std::uint32_t dtype = detail::dtype_code<T>();
    const auto order = static_cast<std::uint32_t>(dims_.size());
    detail::write_raw(f_.get(), &magic, 1);
    detail::write_raw(f_.get(), &dtype, 1);
    detail::write_raw(f_.get(), &order, 1);
    for (index_t d : dims_) {
      const auto d64 = static_cast<std::uint64_t>(d);
      detail::write_raw(f_.get(), &d64, 1);
    }
    const auto ss = static_cast<std::uint64_t>(slab_slices_);
    const auto ns = static_cast<std::uint64_t>(num_slabs());
    detail::write_raw(f_.get(), &ss, 1);
    detail::write_raw(f_.get(), &ns, 1);
  }

  index_t num_slabs() const {
    const index_t last = dims_.back();
    return last == 0 ? 0 : (last - 1) / slab_slices_ + 1;
  }

  /// Appends the next slab's payload. The slab must carry the expected
  /// dims: all leading modes equal, trailing extent equal to the slab's
  /// slice count (slab_slices, except possibly fewer for the last one).
  void write_slab(const tensor::Tensor<T>& slab) {
    TUCKER_CHECK(slab.order() == dims_.size(),
                 "chunked io: slab order mismatch");
    for (std::size_t k = 0; k + 1 < dims_.size(); ++k)
      TUCKER_CHECK(slab.dim(k) == dims_[k],
                   "chunked io: slab leading dims mismatch");
    const index_t begin = written_slices_;
    const index_t expect =
        std::min(slab_slices_, dims_.back() - begin);
    TUCKER_CHECK(slab.dim(dims_.size() - 1) == expect,
                 "chunked io: slab trailing extent mismatch");
    detail::write_raw(f_.get(), slab.data(),
                      static_cast<std::size_t>(slab.size()));
    written_slices_ += expect;
  }

  /// Flushes and closes; every promised slab must have been written.
  void close() {
    TUCKER_CHECK(written_slices_ == dims_.back(),
                 "chunked io: closed before all slabs were written");
    f_.reset();
  }

 private:
  detail::FileHandle f_;
  tensor::Dims dims_;
  index_t slab_slices_ = 0;
  index_t written_slices_ = 0;
};

/// One-shot convenience: writes a resident tensor as a chunked file with
/// `slab_slices` trailing slices per slab.
template <class T>
void write_chunked_tensor(const std::string& path, const tensor::Tensor<T>& x,
                          index_t slab_slices) {
  ChunkedTensorWriter<T> w(path, x.dims(), slab_slices);
  const index_t last = x.dims().back();
  const index_t slice_elems =
      last == 0 ? 0 : x.size() / last;  // elements per trailing slice
  tensor::Tensor<T> slab;
  tensor::Dims sdims = x.dims();
  for (index_t begin = 0; begin < last; begin += slab_slices) {
    const index_t ext = std::min(slab_slices, last - begin);
    sdims.back() = ext;
    slab.reshape(sdims);
    std::memcpy(slab.data(), x.data() + begin * slice_elems,
                static_cast<std::size_t>(ext * slice_elems) * sizeof(T));
    w.write_slab(slab);
  }
  w.close();
}

/// Random-access slab reader. Not thread-safe (one FILE*, seek-then-read);
/// the slab pipeline owns one reader per pass and drives it from a single
/// I/O thread.
template <class T>
class ChunkedTensorReader {
 public:
  ChunkedTensorReader() = default;

  /// Checked open: validates magic / dtype / header consistency and the
  /// payload size against the header before any slab is read.
  static IoResult<ChunkedTensorReader> try_open(const std::string& path) {
    IoResult<ChunkedTensorReader> out;
    detail::FileHandle f(std::fopen(path.c_str(), "rb"));
    if (!f) {
      out.status = IoStatus::kOpenFailed;
      out.detail = "cannot open " + path;
      return out;
    }
    std::uint64_t magic = 0;
    std::uint32_t dtype = 0, order = 0;
    if (!detail::try_read(f.get(), &magic, 1) ||
        magic != detail::kChunkedMagic) {
      out.status = IoStatus::kBadMagic;
      out.detail = "not a chunked tucker tensor file";
      return out;
    }
    if (!detail::try_read(f.get(), &dtype, 1) ||
        dtype != detail::dtype_code<T>()) {
      out.status = IoStatus::kBadPrecision;
      out.detail = "stored precision code " + std::to_string(dtype) +
                   " does not match the requested element type";
      return out;
    }
    if (!detail::try_read(f.get(), &order, 1) || order == 0 ||
        order > detail::kMaxOrder) {
      out.status = IoStatus::kBadHeader;
      out.detail = "implausible tensor order " + std::to_string(order);
      return out;
    }
    ChunkedTensorReader r;
    r.dims_.resize(order);
    for (std::uint32_t k = 0; k < order; ++k) {
      std::uint64_t d = 0;
      if (!detail::try_read(f.get(), &d, 1)) {
        out.status = IoStatus::kShortFile;
        out.detail = "file ends inside the dims header";
        return out;
      }
      r.dims_[k] = static_cast<index_t>(d);
    }
    const index_t count = tensor::checked_num_elements(r.dims_, sizeof(T));
    if (count < 0) {
      out.status = IoStatus::kBadHeader;
      out.detail = "header dims are negative or their byte size overflows";
      return out;
    }
    std::uint64_t ss = 0, ns = 0;
    if (!detail::try_read(f.get(), &ss, 1) ||
        !detail::try_read(f.get(), &ns, 1) || static_cast<index_t>(ss) <= 0) {
      out.status = IoStatus::kBadHeader;
      out.detail = "missing, zero or negative slab_slices";
      return out;
    }
    r.slab_slices_ = static_cast<index_t>(ss);
    const index_t last = r.dims_.back();
    const index_t expect_slabs =
        last == 0 ? 0 : (last - 1) / r.slab_slices_ + 1;
    if (static_cast<index_t>(ns) != expect_slabs) {
      out.status = IoStatus::kBadHeader;
      out.detail = "num_slabs " + std::to_string(ns) +
                   " inconsistent with dims/slab_slices (expected " +
                   std::to_string(expect_slabs) + ")";
      return out;
    }
    if (!detail::payload_size_ok(
            f.get(), count * static_cast<std::int64_t>(sizeof(T)), out))
      return out;
    r.payload_off_ = static_cast<std::size_t>(std::ftell(f.get()));
    r.f_ = std::move(f);
    out.value = std::move(r);
    return out;
  }

  /// Abort-on-error open (the classic io contract).
  explicit ChunkedTensorReader(const std::string& path) {
    auto r = try_open(path);
    TUCKER_CHECK(r.ok(), "io: corrupt chunked tensor file");
    *this = std::move(r.value);
  }

  const tensor::Dims& dims() const { return dims_; }
  index_t slab_slices() const { return slab_slices_; }
  index_t num_slabs() const {
    const index_t last = dims_.back();
    return last == 0 ? 0 : (last - 1) / slab_slices_ + 1;
  }
  index_t slab_begin(index_t s) const { return s * slab_slices_; }
  index_t slab_extent(index_t s) const {
    return std::min(slab_slices_, dims_.back() - slab_begin(s));
  }

  /// Reads slab s into `out` (reshaped to the slab's dims; grow-only, so a
  /// reused tensor allocates nothing after the first full slab).
  void read_slab(index_t s, tensor::Tensor<T>& out) {
    TUCKER_CHECK(f_ != nullptr, "chunked io: reader not open");
    TUCKER_CHECK(s >= 0 && s < num_slabs(), "chunked io: slab out of range");
    tensor::Dims sdims = dims_;
    sdims.back() = slab_extent(s);
    out.reshape(sdims);
    const index_t slice_elems =
        tensor::num_elements(dims_) / std::max<index_t>(dims_.back(), 1);
    const auto off =
        payload_off_ + static_cast<std::size_t>(slab_begin(s) * slice_elems) *
                           sizeof(T);
    TUCKER_CHECK(std::fseek(f_.get(), static_cast<long>(off), SEEK_SET) == 0,
                 "chunked io: seek failed");
    detail::read_raw(f_.get(), out.data(),
                     static_cast<std::size_t>(out.size()));
  }

 private:
  detail::FileHandle f_;
  tensor::Dims dims_;
  index_t slab_slices_ = 0;
  std::size_t payload_off_ = 0;
};

/// Appends new trailing-mode slices to an existing chunked file: payload
/// goes to the end, then dims[N-1] and num_slabs are patched in place.
/// Rejected unless the file's current trailing extent is a multiple of its
/// slab_slices (the grid must stay uniform). `block` carries the same
/// leading dims and any positive trailing extent.
template <class T>
void append_chunked_slices(const std::string& path,
                           const tensor::Tensor<T>& block) {
  ChunkedTensorReader<T> probe(path);  // validates the header
  const tensor::Dims dims = probe.dims();
  const index_t slab_slices = probe.slab_slices();
  TUCKER_CHECK(block.order() == dims.size(),
               "chunked io: append order mismatch");
  for (std::size_t k = 0; k + 1 < dims.size(); ++k)
    TUCKER_CHECK(block.dim(k) == dims[k],
                 "chunked io: append leading dims mismatch");
  TUCKER_CHECK(block.dim(dims.size() - 1) > 0,
               "chunked io: nothing to append");
  TUCKER_CHECK(dims.back() % slab_slices == 0,
               "chunked io: append requires a full final slab");

  std::FILE* f = detail::open_or_die(path, "rb+");
  std::fseek(f, 0, SEEK_END);
  detail::write_raw(f, block.data(), static_cast<std::size_t>(block.size()));
  const auto order = static_cast<std::uint32_t>(dims.size());
  const auto new_last =
      static_cast<std::uint64_t>(dims.back() + block.dim(dims.size() - 1));
  const std::uint64_t new_slabs =
      (new_last + static_cast<std::uint64_t>(slab_slices) - 1) /
      static_cast<std::uint64_t>(slab_slices);
  std::fseek(f, static_cast<long>(detail::chunked_dim_last_offset(order)),
             SEEK_SET);
  detail::write_raw(f, &new_last, 1);
  std::fseek(f, static_cast<long>(detail::chunked_num_slabs_offset(order)),
             SEEK_SET);
  detail::write_raw(f, &new_slabs, 1);
  std::fclose(f);
}

}  // namespace tucker::io

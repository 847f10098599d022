#pragma once
// Raw binary tensor I/O, TuckerMPI style.
//
// TuckerMPI consumes simulation dumps as headerless raw binary arrays in
// the tensor's linearized order, with the dimensions supplied out of band;
// this module provides the same for the sequential Tensor plus a simple
// self-describing container (magic + dtype + dims header) so decompositions
// can be saved and reloaded without a side channel. Distributed tensors
// read/write through rank 0 (adequate at the scales this repo targets; a
// parallel-filesystem path would drop in behind the same API).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/tucker_tensor.hpp"
#include "tensor/tensor.hpp"

namespace tucker::io {

using blas::index_t;
using tensor::Dims;
using tensor::Tensor;

namespace detail {

inline std::FILE* open_or_die(const std::string& path, const char* mode) {
  std::FILE* f = std::fopen(path.c_str(), mode);
  TUCKER_CHECK(f != nullptr, "io: cannot open file");
  return f;
}

template <class T>
void write_raw(std::FILE* f, const T* data, std::size_t count) {
  const std::size_t written = std::fwrite(data, sizeof(T), count, f);
  TUCKER_CHECK(written == count, "io: short write");
}

template <class T>
void read_raw(std::FILE* f, T* data, std::size_t count) {
  const std::size_t got = std::fread(data, sizeof(T), count, f);
  TUCKER_CHECK(got == count, "io: short read");
}

inline constexpr std::uint64_t kMagic = 0x544b5254454e53ull;  // "TKRTENS"

/// Sanity cap on the header's order field: a corrupt header claiming 10^9
/// modes must not drive a 8 GB dims read.
inline constexpr std::uint32_t kMaxOrder = 64;

template <class T>
constexpr std::uint32_t dtype_code() {
  return sizeof(T) == 4 ? 1u : 2u;
}

/// fread that reports a short read instead of aborting (the checked
/// readers turn it into a typed error).
template <class T>
bool try_read(std::FILE* f, T* data, std::size_t count) {
  return std::fread(data, sizeof(T), count, f) == count;
}

/// Bytes between the current position and EOF, or -1 if the stream is not
/// seekable. This is the size check that turns a truncated file into a
/// typed error instead of a garbage read.
inline std::int64_t bytes_remaining(std::FILE* f) {
  const long cur = std::ftell(f);
  if (cur < 0 || std::fseek(f, 0, SEEK_END) != 0) return -1;
  const long end = std::ftell(f);
  if (std::fseek(f, cur, SEEK_SET) != 0 || end < cur) return -1;
  return static_cast<std::int64_t>(end - cur);
}

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FileHandle = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace detail

// ------------------------------------------------------- typed error API

/// What went wrong while reading a self-describing file. The checked
/// readers (`try_read_*`) return this instead of aborting, so callers that
/// ingest untrusted dumps (servers, long streaming jobs) can reject a bad
/// file and keep running; the classic `read_*` entry points wrap them and
/// keep their abort-on-error contract.
enum class IoStatus {
  kOk,
  kOpenFailed,    ///< fopen failed (missing file, permissions)
  kBadMagic,      ///< leading magic does not identify the format
  kBadPrecision,  ///< stored dtype differs from the requested T
  kBadHeader,     ///< header fields are internally inconsistent / absurd
  kShortFile,     ///< file smaller than the header-promised payload
};

inline const char* io_status_name(IoStatus s) {
  switch (s) {
    case IoStatus::kOk:
      return "ok";
    case IoStatus::kOpenFailed:
      return "open-failed";
    case IoStatus::kBadMagic:
      return "bad-magic";
    case IoStatus::kBadPrecision:
      return "bad-precision";
    case IoStatus::kBadHeader:
      return "bad-header";
    case IoStatus::kShortFile:
      return "short-file";
  }
  return "?";  // unreachable; silences -Wreturn-type
}

/// Status + diagnosis + payload of a checked read. `value` is meaningful
/// only when ok().
template <class V>
struct IoResult {
  IoStatus status = IoStatus::kOk;
  std::string detail;  ///< human-readable diagnosis (expected/found sizes)
  V value{};
  bool ok() const { return status == IoStatus::kOk; }
};

namespace detail {

/// Compares the bytes after the header with the `want` payload bytes the
/// header promises, before any payload is read. A short file is kShortFile;
/// bytes beyond the promise mean the header understates the file (a
/// corrupted dim, order or slab count) and are kBadHeader. Non-seekable
/// streams skip the check and rely on the short-read checks.
template <class V>
bool payload_size_ok(std::FILE* f, std::int64_t want, IoResult<V>& out) {
  const std::int64_t have = bytes_remaining(f);
  if (have < 0 || have == want) return true;
  out.status = have < want ? IoStatus::kShortFile : IoStatus::kBadHeader;
  out.detail = "header promises " + std::to_string(want) +
               " payload bytes but the file holds " + std::to_string(have);
  return false;
}

}  // namespace detail

/// Checked reader for the self-describing tensor format: validates magic,
/// dtype and header sanity, then compares the file's actual payload size
/// against what the header dims promise *before* reading any data.
template <class T>
IoResult<Tensor<T>> try_read_tensor(const std::string& path) {
  IoResult<Tensor<T>> out;
  detail::FileHandle f(std::fopen(path.c_str(), "rb"));
  if (!f) {
    out.status = IoStatus::kOpenFailed;
    out.detail = "cannot open " + path;
    return out;
  }
  std::uint64_t magic = 0;
  std::uint32_t dtype = 0, order = 0;
  if (!detail::try_read(f.get(), &magic, 1) || magic != detail::kMagic) {
    out.status = IoStatus::kBadMagic;
    out.detail = "not a tucker tensor file: bad or missing magic";
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
  Dims dims(order);
  for (std::uint32_t k = 0; k < order; ++k) {
    std::uint64_t d = 0;
    if (!detail::try_read(f.get(), &d, 1)) {
      out.status = IoStatus::kShortFile;
      out.detail = "file ends inside the dims header";
      return out;
    }
    dims[k] = static_cast<index_t>(d);
  }
  const index_t count = tensor::checked_num_elements(dims, sizeof(T));
  if (count < 0) {
    out.status = IoStatus::kBadHeader;
    out.detail = "header dims are negative or their byte size overflows";
    return out;
  }
  if (!detail::payload_size_ok(
          f.get(), count * static_cast<std::int64_t>(sizeof(T)), out))
    return out;
  Tensor<T> t(dims);
  if (!detail::try_read(f.get(), t.data(),
                        static_cast<std::size_t>(t.size()))) {
    out.status = IoStatus::kShortFile;
    out.detail = "short read inside the payload";
    return out;
  }
  out.value = std::move(t);
  return out;
}

// ------------------------------------------------------------ raw format

/// Writes the tensor's values as headerless raw binary (TuckerMPI's input
/// format); dimensions must be communicated out of band.
template <class T>
void write_raw_tensor(const std::string& path, const Tensor<T>& t) {
  std::FILE* f = detail::open_or_die(path, "wb");
  detail::write_raw(f, t.data(), static_cast<std::size_t>(t.size()));
  std::fclose(f);
}

/// Reads a headerless raw binary file into a tensor of the given dims.
template <class T>
Tensor<T> read_raw_tensor(const std::string& path, const Dims& dims) {
  Tensor<T> t(dims);
  std::FILE* f = detail::open_or_die(path, "rb");
  detail::read_raw(f, t.data(), static_cast<std::size_t>(t.size()));
  std::fclose(f);
  return t;
}

// ----------------------------------------------- self-describing format

/// Writes magic, dtype, order, dims, then the values.
template <class T>
void write_tensor(const std::string& path, const Tensor<T>& t) {
  std::FILE* f = detail::open_or_die(path, "wb");
  const std::uint64_t magic = detail::kMagic;
  const std::uint32_t dtype = detail::dtype_code<T>();
  const auto order = static_cast<std::uint32_t>(t.order());
  detail::write_raw(f, &magic, 1);
  detail::write_raw(f, &dtype, 1);
  detail::write_raw(f, &order, 1);
  for (index_t d : t.dims()) {
    const auto d64 = static_cast<std::uint64_t>(d);
    detail::write_raw(f, &d64, 1);
  }
  detail::write_raw(f, t.data(), static_cast<std::size_t>(t.size()));
  std::fclose(f);
}

/// Reads a self-describing tensor file (dtype must match T). Abort-on-error
/// wrapper over try_read_tensor; callers that must survive bad input use
/// the checked reader directly.
template <class T>
Tensor<T> read_tensor(const std::string& path) {
  auto r = try_read_tensor<T>(path);
  TUCKER_CHECK(r.status != IoStatus::kOpenFailed, "io: cannot open file");
  TUCKER_CHECK(r.status != IoStatus::kBadMagic,
               "io: not a tucker tensor file");
  TUCKER_CHECK(r.status != IoStatus::kBadPrecision,
               "io: stored precision does not match the requested type");
  TUCKER_CHECK(r.ok(), "io: corrupt tensor file (truncated or bad header)");
  return std::move(r.value);
}

// ----------------------------------------------------- Tucker container

/// Saves core + factor matrices into one file.
template <class T>
void write_tucker(const std::string& path,
                  const core::TuckerTensor<T>& tk) {
  std::FILE* f = detail::open_or_die(path, "wb");
  const std::uint64_t magic = detail::kMagic + 1;
  const std::uint32_t dtype = detail::dtype_code<T>();
  const auto order = static_cast<std::uint32_t>(tk.factors.size());
  detail::write_raw(f, &magic, 1);
  detail::write_raw(f, &dtype, 1);
  detail::write_raw(f, &order, 1);
  for (std::uint32_t n = 0; n < order; ++n) {
    const auto rows = static_cast<std::uint64_t>(tk.factors[n].rows());
    const auto cols = static_cast<std::uint64_t>(tk.factors[n].cols());
    detail::write_raw(f, &rows, 1);
    detail::write_raw(f, &cols, 1);
  }
  for (std::uint32_t n = 0; n < order; ++n)
    detail::write_raw(f, tk.factors[n].data(),
                      static_cast<std::size_t>(tk.factors[n].rows() *
                                               tk.factors[n].cols()));
  detail::write_raw(f, tk.core.data(), static_cast<std::size_t>(tk.core.size()));
  std::fclose(f);
}

/// Checked reader for the Tucker container: validates magic, dtype and
/// header sanity, then compares the payload size against what the factor
/// shapes promise before reading any data (the twin of try_read_tensor).
template <class T>
IoResult<core::TuckerTensor<T>> try_read_tucker(const std::string& path) {
  IoResult<core::TuckerTensor<T>> out;
  detail::FileHandle f(std::fopen(path.c_str(), "rb"));
  if (!f) {
    out.status = IoStatus::kOpenFailed;
    out.detail = "cannot open " + path;
    return out;
  }
  std::uint64_t magic = 0;
  std::uint32_t dtype = 0, order = 0;
  if (!detail::try_read(f.get(), &magic, 1) || magic != detail::kMagic + 1) {
    out.status = IoStatus::kBadMagic;
    out.detail = "not a tucker container: bad or missing magic";
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
    out.detail = "implausible tucker container order " + std::to_string(order);
    return out;
  }
  std::vector<Dims> shapes(order);
  Dims core_dims(order);
  for (std::uint32_t n = 0; n < order; ++n) {
    std::uint64_t rc[2] = {0, 0};
    if (!detail::try_read(f.get(), rc, 2)) {
      out.status = IoStatus::kShortFile;
      out.detail = "file ends inside the factor shapes header";
      return out;
    }
    shapes[n] = {static_cast<index_t>(rc[0]), static_cast<index_t>(rc[1])};
    core_dims[n] = shapes[n][1];
  }
  // Payload bytes: the core plus every factor, each checked for negative
  // or overflowing dims, and the running sum checked too.
  std::int64_t want = 0;
  for (std::uint32_t n = 0; n <= order; ++n) {
    const index_t count = tensor::checked_num_elements(
        n < order ? shapes[n] : core_dims, sizeof(T));
    const index_t bytes = count * static_cast<index_t>(sizeof(T));
    if (count < 0 || bytes > std::numeric_limits<std::int64_t>::max() - want) {
      out.status = IoStatus::kBadHeader;
      out.detail = "tucker container header dims overflow";
      return out;
    }
    want += bytes;
  }
  if (!detail::payload_size_ok(f.get(), want, out)) return out;
  core::TuckerTensor<T> tk;
  tk.factors.reserve(order);
  for (std::uint32_t n = 0; n < order; ++n) {
    blas::Matrix<T> u(shapes[n][0], shapes[n][1]);
    if (!detail::try_read(f.get(), u.data(),
                          static_cast<std::size_t>(u.rows() * u.cols()))) {
      out.status = IoStatus::kShortFile;
      out.detail = "short read inside factor " + std::to_string(n);
      return out;
    }
    tk.factors.push_back(std::move(u));
  }
  tk.core = Tensor<T>(core_dims);
  if (!detail::try_read(f.get(), tk.core.data(),
                        static_cast<std::size_t>(tk.core.size()))) {
    out.status = IoStatus::kShortFile;
    out.detail = "short read inside the core";
    return out;
  }
  out.value = std::move(tk);
  return out;
}

/// Loads a decomposition saved by write_tucker. Abort-on-error wrapper over
/// try_read_tucker; callers that must survive bad input use the checked
/// reader directly.
template <class T>
core::TuckerTensor<T> read_tucker(const std::string& path) {
  auto r = try_read_tucker<T>(path);
  TUCKER_CHECK(r.status != IoStatus::kOpenFailed, "io: cannot open file");
  TUCKER_CHECK(r.status != IoStatus::kBadMagic, "io: not a tucker container");
  TUCKER_CHECK(r.status != IoStatus::kBadPrecision,
               "io: stored precision does not match the requested type");
  TUCKER_CHECK(r.ok(),
               "io: corrupt tucker container (truncated, or header dims "
               "overflow)");
  return std::move(r.value);
}

}  // namespace tucker::io

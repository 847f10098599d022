// Header mutation of the three self-describing file formats (dense tensor,
// Tucker container, chunked tensor). Every header is attacked four ways:
// truncated at every byte, each byte inverted, seeded random byte
// overwrites, and extreme values in every dimension / slab field. Each
// mutated file must come back from the checked reader as a typed non-kOk
// IoStatus; none may abort the process.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/tucker_tensor.hpp"
#include "data/synthetic_tensor.hpp"
#include "io/chunked_tensor_io.hpp"
#include "io/tensor_io.hpp"

namespace tucker {
namespace {

using blas::index_t;

struct Format {
  const char* name;
  std::function<void(const std::string&)> write;
  std::function<io::IoStatus(const std::string&)> read;
  std::size_t header_bytes;
  /// Byte offsets of the header's 64-bit size fields (dims, factor shapes,
  /// slab_slices, num_slabs).
  std::vector<long> size_fields;
};

std::string tmp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<Format> formats() {
  // Dense: magic, dtype, order, then one u64 per dim.
  auto dense = std::make_shared<tensor::Tensor<double>>(
      data::random_tensor<double>({5, 4, 3}, 61));
  // Tucker: magic, dtype, order, then (rows, cols) per factor.
  auto tk = std::make_shared<core::TuckerTensor<double>>();
  tk->core = data::random_tensor<double>({2, 3, 2}, 62);
  Rng rng(63);
  for (auto [rows, cols] : {std::pair<index_t, index_t>{5, 2}, {4, 3}, {3, 2}}) {
    blas::Matrix<double> u(rows, cols);
    for (index_t i = 0; i < rows * cols; ++i) u.data()[i] = rng.normal<double>();
    tk->factors.push_back(std::move(u));
  }
  // Chunked: magic, dtype, order, dims, slab_slices, num_slabs. One slice
  // per slab, so any change to slab_slices contradicts num_slabs.
  auto chunked = std::make_shared<tensor::Tensor<double>>(
      data::random_tensor<double>({5, 4, 6}, 64));
  return {
      {"dense",
       [dense](const std::string& p) { io::write_tensor(p, *dense); },
       [](const std::string& p) { return io::try_read_tensor<double>(p).status; },
       16 + 3 * 8,
       {16, 24, 32}},
      {"tucker",
       [tk](const std::string& p) { io::write_tucker(p, *tk); },
       [](const std::string& p) { return io::try_read_tucker<double>(p).status; },
       16 + 6 * 8,
       {16, 24, 32, 40, 48, 56}},
      {"chunked",
       [chunked](const std::string& p) {
         io::write_chunked_tensor(p, *chunked, 1);
       },
       [](const std::string& p) {
         return io::ChunkedTensorReader<double>::try_open(p).status;
       },
       16 + 3 * 8 + 16,
       {16, 24, 32, 40, 48}},
  };
}

void patch(const std::string& path, long offset, const void* bytes,
           std::size_t n) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, offset, SEEK_SET);
  std::fwrite(bytes, 1, n, f);
  std::fclose(f);
}

unsigned char byte_at(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, offset, SEEK_SET);
  const int c = std::fgetc(f);
  std::fclose(f);
  return static_cast<unsigned char>(c);
}

std::uint64_t word_at(const std::string& path, long offset) {
  std::uint64_t w = 0;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, offset, SEEK_SET);
  EXPECT_EQ(std::fread(&w, sizeof w, 1, f), 1u);
  std::fclose(f);
  return w;
}

class HeaderMutationTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  Format fmt() const { return formats()[GetParam()]; }
};

TEST_P(HeaderMutationTest, IntactFileReadsOk) {
  const auto f = fmt();
  const auto path = tmp_path(std::string("mut_ok_") + f.name);
  f.write(path);
  EXPECT_EQ(f.read(path), io::IoStatus::kOk);
  std::remove(path.c_str());
}

TEST_P(HeaderMutationTest, TruncationAtEveryHeaderByte) {
  const auto f = fmt();
  const auto path = tmp_path(std::string("mut_cut_") + f.name);
  for (std::size_t len = 0; len <= f.header_bytes; ++len) {
    f.write(path);
    std::filesystem::resize_file(path, len);
    EXPECT_NE(f.read(path), io::IoStatus::kOk) << f.name << " cut at " << len;
  }
  std::remove(path.c_str());
}

TEST_P(HeaderMutationTest, EveryHeaderByteInverted) {
  const auto f = fmt();
  const auto path = tmp_path(std::string("mut_flip_") + f.name);
  for (std::size_t i = 0; i < f.header_bytes; ++i) {
    f.write(path);
    const auto off = static_cast<long>(i);
    const unsigned char b = byte_at(path, off) ^ 0xffu;
    patch(path, off, &b, 1);
    EXPECT_NE(f.read(path), io::IoStatus::kOk) << f.name << " byte " << i;
  }
  std::remove(path.c_str());
}

TEST_P(HeaderMutationTest, SeededRandomByteOverwrites) {
  const auto f = fmt();
  const auto path = tmp_path(std::string("mut_rand_") + f.name);
  Rng rng(0x4d7574 + GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    f.write(path);
    const auto off = static_cast<long>(rng.index(f.header_bytes));
    const unsigned char old = byte_at(path, off);
    const auto b = static_cast<unsigned char>(old ^ (1 + rng.index(255)));
    patch(path, off, &b, 1);
    EXPECT_NE(f.read(path), io::IoStatus::kOk)
        << f.name << " byte " << off << " " << int(old) << " -> " << int(b);
  }
  std::remove(path.c_str());
}

TEST_P(HeaderMutationTest, ExtremeSizeFields) {
  const auto f = fmt();
  const auto path = tmp_path(std::string("mut_dims_") + f.name);
  const std::uint64_t extremes[] = {
      0,
      1,
      std::uint64_t{1} << 31,
      std::uint64_t{1} << 32,
      std::uint64_t{1} << 62,
      std::uint64_t(std::numeric_limits<std::int64_t>::max()),
      std::uint64_t{1} << 63,
      std::numeric_limits<std::uint64_t>::max(),
  };
  for (long off : f.size_fields) {
    for (std::uint64_t v : extremes) {
      f.write(path);
      if (word_at(path, off) == v) continue;
      patch(path, off, &v, sizeof v);
      EXPECT_NE(f.read(path), io::IoStatus::kOk)
          << f.name << " field @" << off << " = " << v;
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, HeaderMutationTest, ::testing::Values(0, 1, 2),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(formats()[info.param].name);
    });

TEST(TuckerReaderTest, ReadTuckerWrapsTheCheckedReader) {
  core::TuckerTensor<float> tk;
  tk.core = data::random_tensor<float>({2, 2}, 65);
  tk.factors.emplace_back(3, 2);
  tk.factors.emplace_back(4, 2);
  const auto path = tmp_path("wrap.tkd");
  io::write_tucker(path, tk);
  auto r = io::try_read_tucker<float>(path);
  ASSERT_TRUE(r.ok()) << r.detail;
  EXPECT_EQ(r.value.core.dims(), tk.core.dims());
  EXPECT_EQ(io::read_tucker<float>(path).factors.size(), 2u);
  EXPECT_EQ(io::try_read_tucker<double>(path).status,
            io::IoStatus::kBadPrecision);
  std::remove(path.c_str());
  EXPECT_EQ(io::try_read_tucker<float>(path).status,
            io::IoStatus::kOpenFailed);
}

}  // namespace
}  // namespace tucker

// Tests for binary tensor and Tucker-container I/O.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>

#include "core/sthosvd.hpp"
#include "data/synthetic_tensor.hpp"
#include "io/dist_io.hpp"
#include "io/tensor_io.hpp"
#include "simmpi/runtime.hpp"

namespace tucker {
namespace {

using blas::index_t;
using tensor::Dims;
using tensor::Tensor;

std::string tmp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(TensorIoTest, RawRoundTrip) {
  auto x = data::random_tensor<double>({5, 4, 3}, 1);
  const auto path = tmp_path("raw.bin");
  io::write_raw_tensor(path, x);
  auto y = io::read_raw_tensor<double>(path, {5, 4, 3});
  for (index_t i = 0; i < x.size(); ++i)
    EXPECT_EQ(x.data()[i], y.data()[i]);
  std::remove(path.c_str());
}

TEST(TensorIoTest, RawReinterpretDims) {
  // Raw format is headerless: the same file can be read under any dims
  // with the same element count (TuckerMPI semantics).
  auto x = data::random_tensor<float>({6, 4}, 2);
  const auto path = tmp_path("raw2.bin");
  io::write_raw_tensor(path, x);
  auto y = io::read_raw_tensor<float>(path, {4, 6});
  EXPECT_EQ(y.size(), x.size());
  EXPECT_EQ(y.data()[5], x.data()[5]);
  std::remove(path.c_str());
}

TEST(TensorIoTest, SelfDescribingRoundTrip) {
  auto x = data::random_tensor<float>({3, 7, 2, 4}, 3);
  const auto path = tmp_path("self.tkt");
  io::write_tensor(path, x);
  auto y = io::read_tensor<float>(path);
  EXPECT_EQ(y.dims(), x.dims());
  for (index_t i = 0; i < x.size(); ++i)
    EXPECT_EQ(x.data()[i], y.data()[i]);
  std::remove(path.c_str());
}

TEST(TensorIoDeathTest, WrongPrecisionRejected) {
  auto x = data::random_tensor<double>({2, 2}, 4);
  const auto path = tmp_path("dtype.tkt");
  io::write_tensor(path, x);
  EXPECT_DEATH((void)io::read_tensor<float>(path), "precision");
  std::remove(path.c_str());
}

TEST(TensorIoDeathTest, GarbageFileRejected) {
  const auto path = tmp_path("garbage.tkt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const char junk[32] = "not a tensor";
  std::fwrite(junk, 1, sizeof junk, f);
  std::fclose(f);
  EXPECT_DEATH((void)io::read_tensor<double>(path), "tucker tensor file");
  std::remove(path.c_str());
}

TEST(TensorIoTest, TryReadReportsShortFileWithByteCounts) {
  auto x = data::random_tensor<double>({6, 5, 4}, 17);
  const auto path = tmp_path("short.tkt");
  io::write_tensor(path, x);

  // Intact file: the checked reader agrees with the classic one.
  auto ok = io::try_read_tensor<double>(path);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value.dims(), x.dims());

  // Truncate the payload: typed kShortFile, with the expected/actual byte
  // counts in the diagnosis instead of a garbage tensor.
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 100);
  auto r = io::try_read_tensor<double>(path);
  EXPECT_EQ(r.status, io::IoStatus::kShortFile);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.detail.find("bytes"), std::string::npos);
  EXPECT_STREQ(io::io_status_name(r.status), "short-file");

  // Cut into the dims header: still a typed error, not an abort.
  std::filesystem::resize_file(path, 20);
  auto r2 = io::try_read_tensor<double>(path);
  EXPECT_EQ(r2.status, io::IoStatus::kShortFile);
  std::remove(path.c_str());

  auto missing = io::try_read_tensor<double>(path);
  EXPECT_EQ(missing.status, io::IoStatus::kOpenFailed);
}

/// Overwrites header words from byte `offset` on (the self-describing
/// formats put their dims after the 8-byte magic, 4-byte dtype and 4-byte
/// order, i.e. at offset 16).
void patch_header(const std::string& path, long offset,
                  const std::vector<std::uint64_t>& words) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, offset, SEEK_SET);
  std::fwrite(words.data(), sizeof(std::uint64_t), words.size(), f);
  std::fclose(f);
}

TEST(TensorIoTest, CheckedNumElementsKnownAnswers) {
  EXPECT_EQ(tensor::checked_num_elements({2, 3, 4}), 24);
  EXPECT_EQ(tensor::checked_num_elements({}), 1);
  EXPECT_EQ(tensor::checked_num_elements({0, index_t{1} << 62}), 0);
  EXPECT_EQ(tensor::checked_num_elements({3, -1}), -1);
  EXPECT_EQ(tensor::checked_num_elements({index_t{1} << 32,
                                          index_t{1} << 32}),
            -1);
  // The byte size must fit too: 2^59 doubles do, 2^60 do not.
  EXPECT_EQ(tensor::checked_num_elements({index_t{1} << 59}, 8),
            index_t{1} << 59);
  EXPECT_EQ(tensor::checked_num_elements({index_t{1} << 60}, 8), -1);
}

TEST(TensorIoTest, TryReadRejectsOverflowingAndNegativeDims) {
  auto x = data::random_tensor<double>({4, 3}, 19);
  const auto path = tmp_path("dims.tkt");
  const std::vector<std::vector<std::uint64_t>> headers = {
      {1ull << 32, 1ull << 32},  // 2^64 elements: the product overflows
      {1ull << 31, 1ull << 30},  // 2^61 elements: the byte size overflows
      {(1ull << 63) + 4, 3},     // negative once read as a signed dim
  };
  for (const auto& dims : headers) {
    io::write_tensor(path, x);
    patch_header(path, 16, dims);
    auto r = io::try_read_tensor<double>(path);
    EXPECT_EQ(r.status, io::IoStatus::kBadHeader) << dims[0];
    EXPECT_EQ(r.value.size(), 0);
  }
  std::remove(path.c_str());
}

TEST(TuckerIoDeathTest, OverflowingContainerHeaderRejected) {
  auto x = data::random_tensor<double>({6, 5, 4}, 20);
  auto res = core::sthosvd(x, core::TruncationSpec::fixed_ranks({2, 2, 2}),
                           core::SvdMethod::kQr);
  const auto path = tmp_path("overflow.tkd");
  io::write_tucker(path, res.tucker);
  patch_header(path, 16, {1ull << 62, 1ull << 62});  // factor 0: rows, cols
  EXPECT_DEATH((void)io::read_tucker<double>(path), "header dims overflow");
  std::remove(path.c_str());
}

TEST(TensorIoDeathTest, TruncatedFileRejected) {
  auto x = data::random_tensor<double>({6, 5, 4}, 18);
  const auto path = tmp_path("short_abort.tkt");
  io::write_tensor(path, x);
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 64);
  EXPECT_DEATH((void)io::read_tensor<double>(path), "corrupt tensor file");
  std::remove(path.c_str());
}

TEST(TuckerIoTest, DecompositionRoundTrip) {
  auto x = data::tensor_with_spectra(
      {10, 9, 8}, {data::DecayProfile::geometric(1, 1e-4),
                   data::DecayProfile::geometric(1, 1e-4),
                   data::DecayProfile::geometric(1, 1e-4)},
      5);
  auto res = core::sthosvd(x, core::TruncationSpec::tolerance(1e-3),
                           core::SvdMethod::kQr);
  const auto path = tmp_path("decomp.tkd");
  io::write_tucker(path, res.tucker);
  auto loaded = io::read_tucker<double>(path);
  EXPECT_EQ(loaded.core.dims(), res.tucker.core.dims());
  ASSERT_EQ(loaded.factors.size(), 3u);
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_EQ(loaded.factors[n].rows(), res.tucker.factors[n].rows());
    EXPECT_EQ(loaded.factors[n].cols(), res.tucker.factors[n].cols());
  }
  // Reconstruction from the loaded container matches the original's error.
  EXPECT_NEAR(core::relative_error(x, loaded),
              core::relative_error(x, res.tucker), 1e-15);
  std::remove(path.c_str());
}

TEST(DistIoTest, ScatterFromRootMatchesFill) {
  auto full = data::random_tensor<double>({6, 5, 4}, 7);
  mpi::Runtime::run(4, [&](mpi::Comm& world) {
    dist::DistTensor<double> a(world, dist::ProcessorGrid({2, 2, 1}),
                               full.dims());
    a.fill_from(full);
    dist::DistTensor<double> b(world, dist::ProcessorGrid({2, 2, 1}),
                               full.dims());
    // Only rank 0 supplies data for the scatter.
    b.scatter_from_root(world.rank() == 0 ? full : Tensor<double>{});
    for (index_t i = 0; i < a.local().size(); ++i)
      EXPECT_EQ(a.local().data()[i], b.local().data()[i]);
  });
}

TEST(DistIoTest, RawFileRoundTripThroughDistribution) {
  auto full = data::random_tensor<float>({6, 4, 4}, 8);
  const auto path = tmp_path("dist_raw.bin");
  io::write_raw_tensor(path, full);
  mpi::Runtime::run(4, [&](mpi::Comm& world) {
    dist::DistTensor<float> dt(world, dist::ProcessorGrid({2, 1, 2}),
                               full.dims());
    io::read_raw_dist_tensor(path, dt);
    const auto out = tmp_path("dist_raw_out.bin");
    io::write_raw_dist_tensor(out, dt);
    world.barrier();
    if (world.rank() == 0) {
      auto back = io::read_raw_tensor<float>(out, full.dims());
      for (index_t i = 0; i < full.size(); ++i)
        EXPECT_EQ(back.data()[i], full.data()[i]);
      std::remove(out.c_str());
    }
  });
  std::remove(path.c_str());
}

TEST(DistIoTest, SelfDescribingDistRoundTrip) {
  auto full = data::random_tensor<double>({5, 6, 3}, 9);
  const auto path = tmp_path("dist_self.tkt");
  io::write_tensor(path, full);
  mpi::Runtime::run(2, [&](mpi::Comm& world) {
    dist::DistTensor<double> dt(world, dist::ProcessorGrid({2, 1, 1}),
                                full.dims());
    io::read_dist_tensor(path, dt);
    EXPECT_NEAR(dt.norm_squared(), full.norm_squared(), 1e-9);
  });
  std::remove(path.c_str());
}

TEST(TuckerIoTest, CompressionSurvivesRoundTrip) {
  auto x = data::random_tensor<float>({8, 8, 8}, 6);
  auto res = core::sthosvd(x, core::TruncationSpec::fixed_ranks({3, 3, 3}),
                           core::SvdMethod::kGram);
  const auto path = tmp_path("decompf.tkd");
  io::write_tucker(path, res.tucker);
  auto loaded = io::read_tucker<float>(path);
  EXPECT_DOUBLE_EQ(loaded.compression_ratio(),
                   res.tucker.compression_ratio());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tucker

#pragma once
// Shared plumbing of the benchmark binary: command line, clocks, the
// report (end-to-end metrics, per-layer metrics, correctness tallies and
// the one-line JSON result), the run header, and the numeric helpers the
// workloads use to check their outputs against fp64 originals.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "tucker.hpp"

namespace perfbench {

using tucker::blas::index_t;
using tucker::tensor::Dims;
using tucker::tensor::Tensor;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Parsed command line. Every run passes --workload, --seed, --seconds
/// and --trace; --smoke shrinks every workload to a seconds-long run that
/// still exercises all of its correctness checks.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
};

/// Where runs write their files (trace JSON, the out-of-core workload's
/// chunked files and spill), relative to the checkout root they run from.
inline constexpr const char* kOutDir = ".bench_build/perfbench-out";

/// One workload's results: every end-to-end and per-layer metric it
/// measured and the tally of checked operations. The result line carries
/// the end-to-end subset every workload reports (kResultEndToEnd in
/// main.cpp).
class Report {
 public:
  void e2e(const std::string& name, double value, const std::string& unit) {
    e2e_[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layer_[name] = {value, unit};
  }
  /// Counts one operation; a failed one also notes why on stderr.
  void attempt(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }
  /// A gate whose failure invalidates the whole run (not an operation).
  void reject(const std::string& why) {
    correct_ = false;
    std::fprintf(stderr, "run rejected: %s\n", why.c_str());
  }

  struct Value {
    double value = 0;
    std::string unit;
  };
  const std::map<std::string, Value>& e2e() const { return e2e_; }
  const std::map<std::string, Value>& layers() const { return layer_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return correct_ && failed_ == 0; }

 private:
  std::map<std::string, Value> e2e_, layer_;
  std::uint64_t attempted_ = 0, failed_ = 0;
  bool correct_ = true;
};

/// Peak resident set of this process in MB (getrusage high-water mark).
double peak_rss_mb();

/// Prints the run header (host, build, pool width, effective knobs, seed)
/// as one "# header {...}" JSON line. Returns false -- and prints why --
/// when the binary is not an optimized Release build.
bool print_header(const Options& opt);

/// sqrt(sum (ref - approx)^2 / sum ref^2) with approx widened to double.
template <class T>
double relative_error(const Tensor<double>& ref, const Tensor<T>& approx) {
  TUCKER_CHECK(ref.dims() == approx.dims(), "relative_error: dims mismatch");
  double diff = 0, den = 0;
  for (index_t i = 0; i < ref.size(); ++i) {
    const double d = ref.data()[i] - static_cast<double>(approx.data()[i]);
    diff += d * d;
    den += ref.data()[i] * ref.data()[i];
  }
  return den > 0 ? std::sqrt(diff / den) : 0.0;
}

/// Relative error of a decomposition against the fp64 original, with the
/// reconstruction computed in the decomposition's working precision.
template <class T>
double tucker_error(const Tensor<double>& ref,
                    const tucker::core::TuckerTensor<T>& tk) {
  Tensor<T> xhat;
  tucker::core::reconstruct_into(tk, xhat);
  return relative_error(ref, xhat);
}

template <class T>
bool same_bytes(const T* a, const T* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(T)) == 0;
}

template <class T>
bool same_tensor(const Tensor<T>& a, const Tensor<T>& b) {
  return a.dims() == b.dims() &&
         same_bytes(a.data(), b.data(), static_cast<std::size_t>(a.size()));
}

template <class T>
bool same_matrix(const tucker::blas::Matrix<T>& a,
                 const tucker::blas::Matrix<T>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t j = 0; j < a.cols(); ++j)
      if (std::memcmp(&a(i, j), &b(i, j), sizeof(T)) != 0) return false;
  return true;
}

/// Byte equality of two decompositions (core and every factor).
template <class T>
bool same_tucker(const tucker::core::TuckerTensor<T>& a,
                 const tucker::core::TuckerTensor<T>& b) {
  if (!same_tensor(a.core, b.core) || a.factors.size() != b.factors.size())
    return false;
  for (std::size_t n = 0; n < a.factors.size(); ++n)
    if (!same_matrix(a.factors[n], b.factors[n])) return false;
  return true;
}

/// A compress variant of the paper's comparison: engine x precision.
struct Variant {
  const char* name;
  tucker::core::SvdMethod method;
  bool single;
};

inline const std::vector<Variant>& all_variants() {
  using tucker::core::SvdMethod;
  static const std::vector<Variant> v = {
      {"qr_single", SvdMethod::kQr, true},
      {"qr_double", SvdMethod::kQr, false},
      {"gram_single", SvdMethod::kGram, true},
      {"gram_double", SvdMethod::kGram, false},
      {"rand_single", SvdMethod::kRand, true},
  };
  return v;
}

inline const Variant& variant_named(const std::string& name) {
  for (const auto& v : all_variants())
    if (name == v.name) return v;
  TUCKER_CHECK(false, "unknown variant");
  return all_variants().front();
}

/// Elements of a tensor with these dims, in millions.
inline double melem(const Dims& d) {
  return static_cast<double>(tucker::tensor::num_elements(d)) / 1e6;
}

/// The paper's HCCI stand-in at the scale every compress workload uses
/// (100 x 100 x 8 x 100, 8.0 M elements) and its tolerance.
inline constexpr double kHcciScale = 0.8;
inline constexpr double kSmokeScale = 0.3;
inline constexpr double kEpsilon = 1e-4;

/// x with every mode shuffled and sign-flipped by a signed permutation
/// drawn from `seed`. A signed permutation of each mode is an exact
/// orthogonal transform (no rounding), so every unfolding keeps its
/// singular values while the data the kernels stream changes.
inline Tensor<double> signed_permutation(const Tensor<double>& x,
                                         std::uint64_t seed) {
  const Dims& d = x.dims();
  const std::size_t nm = d.size();
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  std::vector<std::vector<index_t>> perm(nm);
  std::vector<std::vector<double>> sign(nm);
  for (std::size_t n = 0; n < nm; ++n) {
    for (index_t i = 0; i < d[n]; ++i) perm[n].push_back(i);
    for (index_t i = d[n] - 1; i > 0; --i)  // Fisher-Yates, portable draws
      std::swap(perm[n][i], perm[n][rng() % static_cast<std::uint64_t>(i + 1)]);
    for (index_t i = 0; i < d[n]; ++i)
      sign[n].push_back(rng() & 1 ? -1.0 : 1.0);
  }
  Tensor<double> out(d);
  std::vector<index_t> stride(nm, 1), idx(nm, 0);
  for (std::size_t n = 1; n < nm; ++n) stride[n] = stride[n - 1] * d[n - 1];
  const index_t rows = d[0];
  for (index_t lin = 0; lin < out.size(); lin += rows) {
    // Source offset and sign of the trailing indices (i_1, ..., i_{N-1}).
    index_t off = 0;
    double sg = 1;
    for (std::size_t n = 1; n < nm; ++n) {
      off += perm[n][idx[n]] * stride[n];
      sg *= sign[n][idx[n]];
    }
    for (index_t i = 0; i < rows; ++i)
      out.data()[lin + i] = sg * sign[0][i] * x.data()[off + perm[0][i]];
    for (std::size_t n = 1; n < nm && ++idx[n] == d[n]; ++n) idx[n] = 0;
  }
  return out;
}

/// The compress workloads' input: the HCCI stand-in generated from a fixed
/// data seed, then signed-permuted by the run's seed. The selected ranks,
/// flop counts and compression therefore stay put (up to a rank at the
/// threshold edge moving by one under different rounding);
/// redrawing the spectra instead would move the tolerance-selected ranks
/// -- and with them the work -- by tens of percent from seed to seed.
inline Tensor<double> hcci_input(double scale, std::uint64_t seed,
                                 std::uint64_t data_seed = 627) {
  return signed_permutation(tucker::data::hcci_like(scale, data_seed), seed);
}

/// Prints a sample's count, median and range as a "# samples" line.
inline void print_samples(const std::string& what,
                          const std::vector<double>& s) {
  if (s.empty()) return;
  const auto [lo, hi] = std::minmax_element(s.begin(), s.end());
  std::printf("# samples %-24s n=%-4zu median=%.5g min=%.5g max=%.5g\n",
              what.c_str(), s.size(), median(s), *lo, *hi);
}

/// Median wall seconds of `reps` calls of fn() (set-up timing: the median
/// of several set-ups, so one slow page-fault storm does not decide it).
template <class F>
double median_seconds(int reps, F&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_between(t0, Clock::now()));
  }
  return median(t);
}

// Workload entry points (one translation unit each).
void run_hcci_compress(const Options& opt, Report& rep);
void run_dist_p4(const Options& opt, Report& rep);
void run_stream_append(const Options& opt, Report& rep);
void run_serve_zipf(const Options& opt, Report& rep);

/// In-cache gemm peak of this build at full pool width, GF/s: the roofline
/// reference every per-layer rate is read against.
double blas_peak_gflops(bool single);

}  // namespace perfbench

// Workload stream-append: out-of-core ST-HOSVD over a chunked file with a
// slab budget of 1/16 of the tensor, then the online path: build a
// StreamingTucker on the first ~3/4 of the time mode and fold the rest in
// block by block, each block appended to the file and to the model.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"
#include "metrics.hpp"

namespace perfbench {
namespace {

using namespace tucker;
using core::SvdMethod;

constexpr index_t kBlocks = 5;

/// Trailing slices [begin, begin + ext) of x as their own tensor.
template <class T>
Tensor<T> slices(const Tensor<T>& x, index_t begin, index_t ext) {
  Dims d = x.dims();
  const index_t slice = x.size() / d.back();
  d.back() = ext;
  Tensor<T> out(d);
  std::memcpy(out.data(), x.data() + begin * slice,
              static_cast<std::size_t>(ext * slice) * sizeof(T));
  return out;
}

struct Plan {
  index_t head = 0;   // slices in the initial build
  index_t block = 1;  // slices per appended block (and per head-file slab)
};

/// About kBlocks blocks over the last quarter of the time mode; the head
/// is a whole number of blocks so the chunked file stays appendable.
Plan plan_for(index_t t) {
  Plan p;
  p.block = std::max<index_t>(1, t / (4 * kBlocks));
  p.head = (t - kBlocks * p.block) / p.block * p.block;
  return p;
}

struct Round {
  double stream_s = 0, build_s = 0, io_s = 0, append_s = 0;
  std::vector<double> block_s, append_only_s;
};

}  // namespace

void run_stream_append(const Options& opt, Report& rep) {
  // The measured passes run the pool on half the cores, beside the
  // slab-prefetch thread: the slab-sized kernels stop scaling at 2 threads
  // (a pass takes ~0.60 s at 2 threads, 0.65-0.85 s at 1, 3 or 4 on the
  // 4-core reference host), and a wider pool contends with the prefetch
  // thread, which made its times swing by 30-40% from run to run. The
  // library's default width is measured once more at the end, unbounded.
  const int full_width = parallel::max_threads();
  parallel::set_max_threads(std::max(1, full_width / 2));
  std::printf("# pool width: %d threads (measured passes), %d (full-width "
              "pass)\n",
              parallel::max_threads(), full_width);
  const double scale = opt.smoke ? kSmokeScale : kHcciScale;
  const std::string dir =
      std::string(kOutDir) + "/stream-" + std::to_string(::getpid());
  std::filesystem::create_directories(dir + "/spill");
  const std::string full_path = dir + "/full.tkc";
  const std::string head_path = dir + "/head.tkc";

  Tensor<double> x64;
  Tensor<float> x32;
  const double setup = median_seconds(3, [&] {
    x64 = hcci_input(scale, opt.seed);
    x32 = data::round_tensor_to<float>(x64);
    io::write_chunked_tensor(full_path, x32, 4);
  });
  rep.e2e("setup_s", setup, "s");

  const index_t t = x32.dims().back();
  const Plan plan = plan_for(t);
  const Tensor<float> head = slices(x32, 0, plan.head);
  std::vector<Tensor<float>> blocks;
  for (index_t b = plan.head; b < t; b += plan.block)
    blocks.push_back(slices(x32, b, std::min(plan.block, t - b)));
  const auto spec = core::TruncationSpec::tolerance(kEpsilon);
  stream::StreamOptions so;
  so.chunk_bytes = std::max<std::size_t>(
      1, static_cast<std::size_t>(x32.size()) * sizeof(float) / 16);
  so.spill_dir = dir + "/spill";

  // One round: the out-of-core compress, then build + appends.
  auto run_round = [&](Round& r) {
    io::write_chunked_tensor(head_path, head, plan.block);  // untimed reset
    auto t0 = Clock::now();
    auto res = stream::stream_sthosvd_file<float>(full_path, spec,
                                                  SvdMethod::kQr, so);
    r.stream_s = seconds_between(t0, Clock::now());
    t0 = Clock::now();
    stream::FileSource<float> src(head_path);
    auto st = stream::StreamingTucker<float>::build(src, spec);
    r.build_s = seconds_between(t0, Clock::now());
    for (const auto& blk : blocks) {
      const auto b0 = Clock::now();
      io::append_chunked_slices(head_path, blk);
      const auto b1 = Clock::now();
      st.append(blk);
      const auto b2 = Clock::now();
      r.io_s += seconds_between(b0, b1);
      r.append_s += seconds_between(b1, b2);
      r.block_s.push_back(seconds_between(b0, b2));
      r.append_only_s.push_back(seconds_between(b1, b2));
    }
    return std::make_pair(std::move(res), st.tucker());
  };

  // Checked round: both results against the fp64 original; the append
  // path also against a from-scratch build over the whole stream.
  Round first;
  auto [ref_stream, ref_append] = run_round(first);
  const auto& ref_tk = ref_stream.decomposition.tucker;
  const double err_stream = tucker_error(x64, ref_tk);
  const double err_append = tucker_error(x64, ref_append);
  double err_rebuild;
  {
    stream::FileSource<float> all(full_path);
    err_rebuild = tucker_error(
        x64, stream::StreamingTucker<float>::build(all, spec).tucker());
  }
  char what[160];
  std::snprintf(what, sizeof what, "stream error %.3e > eps", err_stream);
  rep.attempt(err_stream <= kEpsilon, what);
  std::snprintf(what, sizeof what,
                "append error %.3e vs rebuild %.3e misses the rebuild bound",
                err_append, err_rebuild);
  rep.attempt(err_rebuild <= kEpsilon && err_append <= 2 * kEpsilon &&
                  err_append <= 3 * err_rebuild + 1e-12,
              what);
  rep.e2e("compression_ratio",
          geomean({ref_tk.compression_ratio(), ref_append.compression_ratio()}),
          "x");

  std::vector<Round> rounds;
  const auto t0 = Clock::now();
  double timed = 0;
  while (rounds.empty() || timed < opt.seconds) {
    Round r;
    auto [res, tk] = run_round(r);
    rep.attempt(same_tucker(res.decomposition.tucker, ref_tk),
                "stream job differs from checked job");
    rep.attempt(same_tucker(tk, ref_append),
                "append job differs from checked job");
    timed += r.stream_s + r.build_s + r.io_s + r.append_s;
    rounds.push_back(std::move(r));
    if (seconds_between(t0, Clock::now()) > 4 * opt.seconds) break;
  }

  std::vector<double> stream_s, build_s, io_s, app_total, blocks_s, app_only;
  for (const auto& r : rounds) {
    stream_s.push_back(r.stream_s);
    build_s.push_back(r.build_s);
    io_s.push_back(r.io_s);
    app_total.push_back(r.io_s + r.append_s);
    blocks_s.insert(blocks_s.end(), r.block_s.begin(), r.block_s.end());
    app_only.insert(app_only.end(), r.append_only_s.begin(),
                    r.append_only_s.end());
  }
  print_samples("stream_sthosvd_file", stream_s);
  print_samples("StreamingTucker::build", build_s);
  print_samples("append_chunked_slices", io_s);
  print_samples("append block", blocks_s);
  const double me = melem(x32.dims());
  double appended = 0;
  for (const auto& b : blocks) appended += melem(b.dims());
  rep.e2e("compress_melem_s.qr_single", me / median(stream_s), "Melem/s");
  rep.e2e("compress_melem_s", me / median(stream_s), "Melem/s");
  rep.e2e("append_melem_s", appended / median(app_total), "Melem/s");
  rep.e2e("op_p50_ms", median(blocks_s) * 1e3, "ms");

  // The out-of-core compress at the library's default pool width, where
  // the pool contends with the prefetch thread: printed, not bounded.
  parallel::set_max_threads(full_width);
  std::vector<double> full_s;
  for (int i = 0; i < 3; ++i) {
    const auto f0 = Clock::now();
    auto res = stream::stream_sthosvd_file<float>(full_path, spec,
                                                  SvdMethod::kQr, so);
    full_s.push_back(seconds_between(f0, Clock::now()));
    rep.attempt(same_tucker(res.decomposition.tucker, ref_tk),
                "full-width stream job differs from checked job");
  }
  parallel::set_max_threads(std::max(1, full_width / 2));
  print_samples("stream_sthosvd_file (full width)", full_s);
  rep.e2e("compress_melem_s.qr_single.full_width", me / median(full_s),
          "Melem/s");
  rep.layer("stream.full_width_ratio", median(full_s) / median(stream_s),
            "ratio");

  if (opt.trace) {
    // A read-only pass through the same slab pipeline the drivers use.
    std::vector<double> read_mbps;
    for (int i = 0; i < 3; ++i) {
      stream::FileSource<float> src(full_path);
      const auto r0 = Clock::now();
      double bytes = 0;
      stream::SlabPipeline<float> pipe(src);
      for (index_t s = 0; s < pipe.total(); ++s)
        bytes += static_cast<double>(pipe.next().size()) * sizeof(float);
      read_mbps.push_back(bytes / 1e6 / seconds_between(r0, Clock::now()));
    }
    std::vector<double> inmem;
    for (int i = 0; i < 3; ++i) {
      const auto r0 = Clock::now();
      (void)core::sthosvd(x32, spec, SvdMethod::kQr, core::SthosvdOptions{});
      inmem.push_back(seconds_between(r0, Clock::now()));
    }
    rep.layer("io.read_mbps", median(read_mbps), "MB/s");
    rep.layer("io.append_s", median(io_s), "s");
    rep.layer("stream.slabs_read", static_cast<double>(ref_stream.slabs_read),
              "count");
    rep.layer("stream.spill_mb",
              static_cast<double>(ref_stream.spill_bytes) / 1e6, "MB");
    rep.layer("stream.gathered_after", ref_stream.gathered_after, "mode");
    rep.layer("stream.arena_hwm_over_budget",
              static_cast<double>(ref_stream.arena_high_water) /
                  static_cast<double>(so.chunk_bytes),
              "ratio");
    rep.layer("stream.build_s", median(build_s), "s");
    rep.layer("stream.append_s.p50", median(app_only), "s");
    rep.layer("stream.inmem_ratio", median(stream_s) / median(inmem),
              "ratio");
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace perfbench

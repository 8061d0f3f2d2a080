// Campaign service: crash/resume byte-identity, checkpoint codec refusals,
// and the frame/aggregate determinism contracts of src/service/campaign.hpp.
//
// The acceptance bar: a campaign killed at ANY shard boundary and resumed
// any number of times — each resume in a fresh service instance (simulated
// process death) at a DIFFERENT thread count — must produce a frame stream
// and a final aggregate artifact byte-identical to one uninterrupted run.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/adversary.hpp"
#include "analysis/scenario.hpp"
#include "pl/params.hpp"
#include "pl/protocol.hpp"
#include "service/campaign.hpp"
#include "service/campaign_io.hpp"

namespace ppsim::service {
namespace {

using Cell = CampaignService<pl::PlProtocol>::Cell;

std::uint64_t budget(int n, int kappa_max) {
  const auto n_u = static_cast<std::uint64_t>(n);
  return 600ULL * n_u * n_u * static_cast<std::uint64_t>(kappa_max) +
         2'000'000;
}

/// Two burst cells on a small PL ring. `trials` > the cache-capped shard
/// width (64 rings at this n) so every cell splits into several shards —
/// the kill points of the resume tests land between real shards.
std::vector<Cell> make_cells(std::int64_t trials, std::uint64_t seed_base) {
  const auto p = pl::PlParams::make(8, 2);
  std::vector<Cell> cells;
  std::uint64_t tag_base = 21;
  for (int f : {1, 2}) {
    analysis::TrialPlan plan;
    plan.trials = trials;
    plan.max_steps = budget(p.n, p.kappa_max);
    plan.seed_base = seed_base;
    plan.tag = analysis::campaign_tag(tag_base++, p.n, f);
    cells.emplace_back(p, analysis::make_recovery_scenario<pl::PlProtocol>(
                              "burst", analysis::burst_schedule(f), plan));
  }
  return cells;
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, got);
  std::fclose(f);
  return out;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

std::string render_results(const std::vector<analysis::CampaignResult>& rs,
                           std::uint64_t digest) {
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* mem = open_memstream(&buf, &len);
  write_campaign_results_json(
      mem, std::span<const analysis::CampaignResult>(rs), digest);
  std::fclose(mem);
  std::string out(buf, len);
  std::free(buf);
  return out;
}

TEST(ShardBitmapTest, SetTestCountAll) {
  ShardBitmap b(70);  // spans two words
  EXPECT_EQ(b.size(), 70u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_FALSE(b.all());
  for (std::uint64_t i = 0; i < 70; i += 2) b.set(i);
  EXPECT_EQ(b.count(), 35u);
  EXPECT_TRUE(b.test(64));
  EXPECT_FALSE(b.test(65));
  for (std::uint64_t i = 1; i < 70; i += 2) b.set(i);
  EXPECT_TRUE(b.all());
  EXPECT_TRUE(ShardBitmap(0).all());  // empty cell: vacuously complete
}

TEST(CheckpointCodecTest, RoundtripPreservesProgress) {
  Checkpoint ckpt;
  ckpt.spec_digest = 0xDEADBEEFCAFEF00DULL;
  ckpt.frame_bytes = 12345;
  CellProgress cell;
  cell.trials = 150;
  cell.shard_trials = 64;
  cell.done = ShardBitmap(3);
  cell.results.resize(150);
  cell.done.set(0);
  cell.done.set(2);  // note: the last (short, 22-trial) shard
  for (std::size_t i = 0; i < 150; ++i) {
    cell.results[i].stabilized = true;
    cell.results[i].healed = (i % 3) != 0;
    cell.results[i].stabilize_steps = 1000 + i;
    cell.results[i].recovery_steps = 77 * i;
  }
  ckpt.cells.push_back(cell);

  const auto bytes = encode_checkpoint(ckpt);
  const auto lr =
      decode_checkpoint(bytes.data(), bytes.size(), ckpt.spec_digest);
  ASSERT_EQ(lr.status, LoadStatus::kLoaded) << lr.error;
  ASSERT_EQ(lr.checkpoint.cells.size(), 1u);
  const CellProgress& got = lr.checkpoint.cells[0];
  EXPECT_EQ(lr.checkpoint.frame_bytes, 12345u);
  EXPECT_EQ(got.trials, 150u);
  EXPECT_EQ(got.shard_trials, 64u);
  EXPECT_EQ(got.done.count(), 2u);
  // Records of done shards roundtrip exactly; shard 1's slots stay default.
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(got.results[i].stabilize_steps, 1000 + i);
    EXPECT_EQ(got.results[i].recovery_steps, 77 * i);
  }
  for (std::size_t i = 64; i < 128; ++i)
    EXPECT_FALSE(got.results[i].stabilized);
  for (std::size_t i = 128; i < 150; ++i) {
    EXPECT_TRUE(got.results[i].stabilized);
    EXPECT_EQ(got.results[i].healed, (i % 3) != 0);
  }
}

TEST(CheckpointCodecTest, EveryRefusalIsExplicit) {
  Checkpoint ckpt;
  ckpt.spec_digest = 42;
  CellProgress cell;
  cell.trials = 10;
  cell.shard_trials = 4;
  cell.done = ShardBitmap(3);
  cell.results.resize(10);
  ckpt.cells.push_back(cell);
  const auto bytes = encode_checkpoint(ckpt);

  // Digest of a different campaign: kSpecMismatch, not a silent restart.
  auto lr = decode_checkpoint(bytes.data(), bytes.size(), 43);
  EXPECT_EQ(lr.status, LoadStatus::kSpecMismatch);
  EXPECT_NE(lr.error.find("refusing"), std::string::npos);

  // Any flipped byte breaks the trailing checksum: kCorrupt.
  for (const std::size_t at : {std::size_t{0}, bytes.size() / 2,
                               bytes.size() - 1}) {
    auto bad = bytes;
    bad[at] ^= 0x01;
    lr = decode_checkpoint(bad.data(), bad.size(), 42);
    EXPECT_EQ(lr.status, LoadStatus::kCorrupt) << "flipped byte " << at;
  }

  // Truncation at every prefix length: kCorrupt, never a misread.
  for (std::size_t len = 0; len < bytes.size(); len += 7) {
    lr = decode_checkpoint(bytes.data(), len, 42);
    EXPECT_EQ(lr.status, LoadStatus::kCorrupt) << "prefix " << len;
  }
}

TEST(CampaignServiceTest, SpecDigestSeparatesCampaigns) {
  CampaignService<pl::PlProtocol> a(make_cells(150, 33));
  CampaignService<pl::PlProtocol> b(make_cells(150, 34));  // seed differs
  CampaignService<pl::PlProtocol> c(make_cells(140, 33));  // trials differ
  CampaignService<pl::PlProtocol> a2(make_cells(150, 33));
  EXPECT_EQ(a.digest(), a2.digest());
  EXPECT_NE(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());

  CampaignOptions extra;
  extra.extra_digest = 7;  // protocol knobs beyond n fold in here
  CampaignService<pl::PlProtocol> d(make_cells(150, 33), extra);
  EXPECT_NE(a.digest(), d.digest());
}

TEST(CampaignServiceTest, CompletesAndMatchesMeasureRecovery) {
  CampaignOptions opts;
  opts.threads = 2;
  CampaignService<pl::PlProtocol> svc(make_cells(150, 33), opts);
  EXPECT_EQ(svc.shards_total(), 6u);  // 2 cells x ceil(150 / 64)
  MemoryFrameSink frames;
  const RunReport rep = svc.run(frames);
  EXPECT_EQ(rep.status, RunStatus::kComplete);
  EXPECT_EQ(rep.shards_run, 6u);
  EXPECT_EQ(rep.frame_bytes, frames.str().size());
  // One NDJSON frame per shard.
  std::size_t lines = 0;
  for (char ch : frames.str()) lines += ch == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 6u);
  EXPECT_NE(frames.str().find("\"frame\":\"shard\""), std::string::npos);

  // The folded aggregates are exactly measure_recovery's for each cell:
  // the service's spec-only shard width and the pool fan-out's balanced
  // width are both output-invisible.
  const auto cells = make_cells(150, 33);
  const auto got = svc.results();
  ASSERT_EQ(got.size(), cells.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto& [params, spec] = cells[i];
    const auto reference =
        analysis::measure_recovery<pl::PlProtocol>(params, spec, 3);
    EXPECT_EQ(got[i].scenario, spec.name);
    EXPECT_EQ(got[i].n, params.n);
    EXPECT_EQ(got[i].faults, analysis::total_faults(spec.schedule));
    EXPECT_EQ(got[i].stats.raw, reference.raw);
    EXPECT_EQ(got[i].stats.trials, reference.trials);
    EXPECT_EQ(got[i].stats.stabilization_failures,
              reference.stabilization_failures);
    EXPECT_EQ(got[i].stats.recovery_failures, reference.recovery_failures);
  }
}

TEST(CampaignServiceTest, RunCampaignIsTheServiceInMemory) {
  // run_campaign is the service with an in-memory sink and no checkpoint:
  // every cell executed, in cell order, with the service's results at any
  // thread count.
  CampaignService<pl::PlProtocol> svc(make_cells(70, 36));
  MemoryFrameSink frames;
  ASSERT_EQ(svc.run(frames).status, RunStatus::kComplete);
  const std::string want = render_results(svc.results(), 0);
  for (int threads : {1, 3}) {
    const auto results =
        run_campaign<pl::PlProtocol>(make_cells(70, 36), threads);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].faults, 1);
    EXPECT_EQ(results[1].faults, 2);
    for (const auto& r : results) {
      EXPECT_EQ(r.scenario, "burst");
      EXPECT_EQ(r.n, 8);
      EXPECT_EQ(r.stats.trials, 70);
      EXPECT_EQ(r.stats.recovery_failures, 0);
    }
    EXPECT_EQ(render_results(results, 0), want) << "threads=" << threads;
  }
}

TEST(CampaignServiceTest, FramesAreThreadCountInvariant) {
  std::string baseline;
  for (int threads : {1, 2, 5}) {
    CampaignOptions opts;
    opts.threads = threads;
    opts.max_inflight_frames = threads == 5 ? 1 : 16;  // tightest window too
    CampaignService<pl::PlProtocol> svc(make_cells(150, 33), opts);
    MemoryFrameSink frames;
    ASSERT_EQ(svc.run(frames).status, RunStatus::kComplete);
    if (baseline.empty()) baseline = frames.str();
    EXPECT_EQ(frames.str(), baseline) << "threads=" << threads;
  }
}

TEST(CampaignServiceTest, KillResumeAnyCutPointIsByteIdentical) {
  // Uninterrupted reference run (no checkpointing at all).
  CampaignOptions ref_opts;
  ref_opts.threads = 2;
  CampaignService<pl::PlProtocol> ref(make_cells(150, 33), ref_opts);
  MemoryFrameSink ref_frames;
  ASSERT_EQ(ref.run(ref_frames).status, RunStatus::kComplete);
  const std::string ref_aggregate =
      render_results(ref.results(), ref.digest());

  const std::string dir = testing::TempDir();
  const std::string ckpt = dir + "ppsim_resume.ckpt";
  const std::string frames_path = dir + "ppsim_resume.ndjson";
  std::remove(ckpt.c_str());
  std::remove(frames_path.c_str());

  // Kill after every single shard, resuming each time in a FRESH service
  // instance (simulated process death) at a rotating thread count.
  const int threads[] = {3, 1, 4, 2, 5, 1, 2};
  int round = 0;
  for (;; ++round) {
    ASSERT_LT(round, 10) << "campaign failed to converge to completion";
    CampaignOptions opts;
    opts.checkpoint_path = ckpt;
    opts.checkpoint_every_shards = 1;
    opts.threads = threads[round % 7];
    opts.stop_after_shards = 1;
    CampaignService<pl::PlProtocol> svc(make_cells(150, 33), opts);
    FileFrameSink frames(frames_path);
    const RunReport rep = svc.run(frames);
    if (rep.status == RunStatus::kComplete) {
      EXPECT_EQ(render_results(svc.results(), svc.digest()), ref_aggregate);
      break;
    }
    EXPECT_EQ(rep.shards_run, 1u);
  }
  // 6 shards, one per round: round 5 runs the last shard and reports
  // kComplete (hitting the stop limit on the final shard still completes
  // the bitmap).
  EXPECT_EQ(round, 5);
  EXPECT_EQ(read_file(frames_path), ref_frames.str());

  // Resuming an already-complete campaign is a no-op with identical bytes.
  CampaignOptions opts;
  opts.checkpoint_path = ckpt;
  CampaignService<pl::PlProtocol> again(make_cells(150, 33), opts);
  FileFrameSink frames(frames_path);
  const RunReport rep = again.run(frames);
  EXPECT_EQ(rep.status, RunStatus::kComplete);
  EXPECT_EQ(rep.shards_run, 0u);
  EXPECT_EQ(read_file(frames_path), ref_frames.str());
  EXPECT_EQ(render_results(again.results(), again.digest()), ref_aggregate);
}

TEST(CampaignServiceTest, TornFrameTailIsRerunNotDuplicated) {
  // kill -9 between a frame write and the next checkpoint: the frame file
  // carries bytes past ckpt.frame_bytes (even a torn partial line). Resume
  // must truncate them and re-emit identically.
  CampaignOptions ref_opts;
  ref_opts.threads = 2;
  CampaignService<pl::PlProtocol> ref(make_cells(150, 33), ref_opts);
  MemoryFrameSink ref_frames;
  ASSERT_EQ(ref.run(ref_frames).status, RunStatus::kComplete);

  const std::string dir = testing::TempDir();
  const std::string ckpt = dir + "ppsim_torn.ckpt";
  const std::string frames_path = dir + "ppsim_torn.ndjson";
  std::remove(ckpt.c_str());
  std::remove(frames_path.c_str());

  {  // Run 2 shards, checkpoint after each.
    CampaignOptions opts;
    opts.checkpoint_path = ckpt;
    opts.checkpoint_every_shards = 1;
    opts.stop_after_shards = 2;
    CampaignService<pl::PlProtocol> svc(make_cells(150, 33), opts);
    FileFrameSink frames(frames_path);
    ASSERT_EQ(svc.run(frames).status, RunStatus::kPaused);
  }
  // Simulate the torn tail: garbage written after the last checkpoint.
  write_file(frames_path, read_file(frames_path) + "{\"frame\":\"sha");

  CampaignOptions opts;
  opts.checkpoint_path = ckpt;
  CampaignService<pl::PlProtocol> svc(make_cells(150, 33), opts);
  FileFrameSink frames(frames_path);
  ASSERT_EQ(svc.run(frames).status, RunStatus::kComplete);
  EXPECT_EQ(read_file(frames_path), ref_frames.str());
}

TEST(CampaignServiceTest, CorruptCheckpointIsRefusedNotRestarted) {
  const std::string dir = testing::TempDir();
  const std::string ckpt = dir + "ppsim_corrupt.ckpt";
  const std::string frames_path = dir + "ppsim_corrupt.ndjson";
  std::remove(ckpt.c_str());
  std::remove(frames_path.c_str());

  {
    CampaignOptions opts;
    opts.checkpoint_path = ckpt;
    opts.stop_after_shards = 2;
    CampaignService<pl::PlProtocol> svc(make_cells(150, 33), opts);
    FileFrameSink frames(frames_path);
    ASSERT_EQ(svc.run(frames).status, RunStatus::kPaused);
  }
  std::string bytes = read_file(ckpt);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x01;
  write_file(ckpt, bytes);

  CampaignOptions opts;
  opts.checkpoint_path = ckpt;
  CampaignService<pl::PlProtocol> svc(make_cells(150, 33), opts);
  FileFrameSink frames(frames_path);
  EXPECT_THROW(svc.run(frames), CheckpointError);
  EXPECT_EQ(svc.shards_done(), 0u);  // and no work was silently redone
}

TEST(CampaignServiceTest, ForeignCheckpointIsRefused) {
  const std::string dir = testing::TempDir();
  const std::string ckpt = dir + "ppsim_foreign.ckpt";
  const std::string frames_path = dir + "ppsim_foreign.ndjson";
  std::remove(ckpt.c_str());
  std::remove(frames_path.c_str());

  {  // Checkpoint belongs to the seed_base=33 campaign...
    CampaignOptions opts;
    opts.checkpoint_path = ckpt;
    opts.stop_after_shards = 1;
    CampaignService<pl::PlProtocol> svc(make_cells(150, 33), opts);
    FileFrameSink frames(frames_path);
    ASSERT_EQ(svc.run(frames).status, RunStatus::kPaused);
  }
  // ...so the seed_base=34 campaign must refuse it.
  CampaignOptions opts;
  opts.checkpoint_path = ckpt;
  CampaignService<pl::PlProtocol> svc(make_cells(150, 34), opts);
  FileFrameSink frames(frames_path);
  try {
    svc.run(frames);
    FAIL() << "foreign checkpoint accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("refusing"), std::string::npos);
  }
}

TEST(CampaignServiceTest, MissingFrameFileWithCheckpointIsRefused) {
  const std::string dir = testing::TempDir();
  const std::string ckpt = dir + "ppsim_noframes.ckpt";
  const std::string frames_path = dir + "ppsim_noframes.ndjson";
  std::remove(ckpt.c_str());
  std::remove(frames_path.c_str());

  {
    CampaignOptions opts;
    opts.checkpoint_path = ckpt;
    opts.stop_after_shards = 2;
    CampaignService<pl::PlProtocol> svc(make_cells(150, 33), opts);
    FileFrameSink frames(frames_path);
    ASSERT_EQ(svc.run(frames).status, RunStatus::kPaused);
  }
  // The frame file vanished but the checkpoint says frames were emitted:
  // the sink cannot be rewound to the checkpoint boundary — refuse.
  std::remove(frames_path.c_str());
  CampaignOptions opts;
  opts.checkpoint_path = ckpt;
  CampaignService<pl::PlProtocol> svc(make_cells(150, 33), opts);
  FileFrameSink frames(frames_path);
  EXPECT_THROW(svc.run(frames), CheckpointError);
}

TEST(CampaignServiceTest, ResultsBeforeCompletionThrow) {
  CampaignOptions opts;
  opts.stop_after_shards = 1;
  CampaignService<pl::PlProtocol> svc(make_cells(150, 33), opts);
  MemoryFrameSink frames;
  ASSERT_EQ(svc.run(frames).status, RunStatus::kPaused);
  EXPECT_THROW((void)svc.results(), CheckpointError);

  // In-process resume (same instance, no checkpoint file): each run() adds
  // one more shard (the stop limit is part of the instance's options) until
  // the stream completes.
  RunReport rep;
  for (int round = 0; round < 6 && rep.status != RunStatus::kComplete;
       ++round)
    rep = svc.run(frames);
  EXPECT_EQ(rep.status, RunStatus::kComplete);
  CampaignService<pl::PlProtocol> ref(make_cells(150, 33));
  MemoryFrameSink ref_frames;
  ASSERT_EQ(ref.run(ref_frames).status, RunStatus::kComplete);
  EXPECT_EQ(frames.str(), ref_frames.str());
}

TEST(CampaignServiceTest, BadSchedulerFaultsRefusedAtConstruction) {
  // A cell whose fault model cannot run throws before any shard starts,
  // not inside a worker: the sink never sees a frame.
  auto cells = make_cells(150, 35);
  cells[1].second.sched_faults.loss_p = 1.5;
  MemoryFrameSink frames;
  EXPECT_THROW(CampaignService<pl::PlProtocol>(cells, {}),
               std::invalid_argument);
  EXPECT_TRUE(frames.str().empty());
  // A bias table of the wrong length is refused the same way.
  cells[1].second.sched_faults.loss_p = 0.0;
  cells[1].second.sched_faults.arc_weights.assign(3, 1.0);
  EXPECT_THROW(CampaignService<pl::PlProtocol>(cells, {}),
               std::invalid_argument);
  cells[1].second.sched_faults.arc_weights.assign(8, 1.0);  // n arcs: fine
  EXPECT_NO_THROW(CampaignService<pl::PlProtocol>(cells, {}));
}

TEST(CampaignServiceTest, FaultCountsOutsideTheRingRefusedAtConstruction) {
  // A burst of more than n distinct agents (or of a negative count) cannot
  // happen as the frame and result "faults" fields would report it.
  auto cells = make_cells(70, 37);
  const int n = cells[1].first.n;
  for (const int faults : {n + 1, -1}) {
    cells[1].second.schedule = analysis::burst_schedule(faults);
    EXPECT_THROW(CampaignService<pl::PlProtocol>(cells, {}),
                 std::invalid_argument)
        << "faults=" << faults;
    EXPECT_THROW((void)run_campaign<pl::PlProtocol>(cells, 1),
                 std::invalid_argument)
        << "faults=" << faults;
  }
  cells[1].second.schedule = analysis::burst_schedule(n);  // every agent
  EXPECT_NO_THROW(CampaignService<pl::PlProtocol>(cells, {}));
}

}  // namespace
}  // namespace ppsim::service

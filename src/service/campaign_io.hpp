// Campaign-service persistence: the checkpoint codec, the shard bitmap and
// detail::retry_io, the one retry loop every service syscall runs through
// (src/service/campaign.hpp is the driver and the frame sinks on top).
//
// Design constraints, in order:
//
//  * Checkpoints are tiny. Every trial is a pure function of its global
//    index (derive_seed + the stream-tag registry), so a checkpoint never
//    snapshots simulator state — only WHICH shards finished and the
//    per-trial results of those shards: a completed-shard bitmap per cell
//    plus packed 17-byte RecoveryTrial records.
//
//  * A checkpoint is either valid or refused. The file carries a magic, a
//    format version, the campaign-spec digest and a trailing FNV-1a
//    checksum over everything before it. Loading verifies the checksum
//    (torn/corrupted file -> kCorrupt), then the digest (checkpoint from a
//    *different* campaign -> kSpecMismatch). Neither failure ever degrades
//    to "silently start over" — the caller must decide (the service throws;
//    tests/service/campaign_service_test.cpp pins both refusals).
//
//  * Saves are atomic. The checkpoint is written to `<path>.tmp` and
//    rename(2)d into place, so a kill -9 at any byte leaves either the
//    previous complete checkpoint or the new complete one, never a torn
//    file at the canonical path.
//
//  * Encoding is explicit little-endian bytes (not struct memcpy), so a
//    checkpoint written by any build of this code reads back identically.
#pragma once

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "analysis/scenario.hpp"
#include "core/failpoint.hpp"
#include "service/retry.hpp"

namespace ppsim::service {

/// Refusal to resume (corrupt/foreign checkpoint, inconsistent frame file)
/// and the abort-class outcome of a kThrow failpoint on any service I/O
/// path. Declared here (not campaign.hpp) because the codec's injected
/// non-transient failures throw it too.
struct CheckpointError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

namespace detail {

/// The one retry loop behind every guarded syscall of the service; the
/// rules are service/retry.hpp's. Each attempt evaluates `site`'s failpoint
/// once: kThrow throws CheckpointError, kErrno fails the attempt with the
/// injected errno, anything else runs `op(cap)` — the real call, moving at
/// most `cap` bytes (SIZE_MAX unless a kShortWrite outcome caps it), which
/// returns false with errno set when it fails. EINTR retries in place, up
/// to kEintrStormLimit in a row. A transient errno backs off under `retry`;
/// with no ladder (nullptr) it is returned instead, for callers that retry
/// the whole operation. Returns 0 once an attempt succeeds (which resets
/// `retry`), else the errno it gave up on.
template <typename Op>
[[nodiscard]] int retry_io(const char* site, RetryState* retry, Op&& op) {
  for (int spins = 0;;) {
    const core::FailOutcome fo = core::failpoint(site);
    if (fo.action == core::FailAction::kThrow)
      throw CheckpointError(std::string("failpoint: ") + site + " aborted");
    errno = 0;
    if (fo.action == core::FailAction::kErrno) {
      errno = fo.err;
    } else if (op(fo.action == core::FailAction::kShortWrite
                      ? static_cast<std::size_t>(
                            std::max<std::uint64_t>(fo.arg, 1))
                      : SIZE_MAX)) {
      if (retry != nullptr) retry->reset();
      return 0;
    }
    const int e = errno;
    if (e == EINTR && ++spins < kEintrStormLimit) continue;
    if (retry != nullptr && transient_errno(e) && retry->backoff()) {
      spins = 0;
      continue;
    }
    return e != 0 ? e : EIO;
  }
}

/// fwrite of `len` bytes through retry_io, resuming short writes at the
/// moved cursor. Returns the bytes written: `len`, or fewer with errno set
/// when the rules give up (fwrite's own convention).
[[nodiscard]] inline std::size_t fwrite_all(const char* site,
                                            RetryState* retry, std::FILE* f,
                                            const void* data,
                                            std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t done = 0;
  while (done < len) {
    std::size_t put = 0;
    if (const int e = retry_io(site, retry, [&](std::size_t cap) {
          put = std::fwrite(p + done, 1, std::min(len - done, cap), f);
          if (put == 0) std::clearerr(f);
          return put > 0;
        })) {
      errno = e;
      break;
    }
    done += put;
  }
  return done;
}

}  // namespace detail

// --- FNV-1a (64-bit): spec digests and the checkpoint checksum ------------

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Incremental FNV-1a hasher. Used for two independent jobs: the campaign
/// *spec digest* (folds names, ring sizes, trial plans, schedules — the
/// resume-compatibility contract) and the checkpoint *content checksum*
/// (folds the serialized bytes — the corruption detector).
class Digest {
 public:
  void bytes(const void* data, std::size_t len) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h_ ^= p[i];
      h_ *= kFnvPrime;
    }
  }
  void u64(std::uint64_t v) noexcept {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(b, 8);
  }
  void i64(std::int64_t v) noexcept { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) noexcept {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = kFnvOffset;
};

/// Digest rendered the way frames and logs carry it.
[[nodiscard]] inline std::string digest_hex(std::uint64_t d) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(d));
  return std::string(buf);
}

// --- Completed-shard bitmap -----------------------------------------------

/// Fixed-size bitmap over a cell's shard indices. One bit per shard, 64
/// shards per word — a million-trial cell at shard width 64 is ~2 KiB.
class ShardBitmap {
 public:
  ShardBitmap() = default;
  explicit ShardBitmap(std::uint64_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0) {}

  [[nodiscard]] bool test(std::uint64_t i) const noexcept {
    return (words_[i / 64] >> (i % 64)) & 1ULL;
  }
  void set(std::uint64_t i) noexcept { words_[i / 64] |= 1ULL << (i % 64); }
  [[nodiscard]] std::uint64_t size() const noexcept { return bits_; }
  [[nodiscard]] std::uint64_t count() const noexcept {
    std::uint64_t c = 0;
    for (std::uint64_t w : words_) {
      while (w != 0) {
        w &= w - 1;
        ++c;
      }
    }
    return c;
  }
  [[nodiscard]] bool all() const noexcept { return count() == bits_; }

  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept {
    return words_;
  }
  std::vector<std::uint64_t>& words() noexcept { return words_; }

 private:
  std::uint64_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

// --- Checkpoint document ---------------------------------------------------

/// On-disk format version. Bump on any layout change — an old-version file
/// is refused as kCorrupt-class (explicitly versioned), never misread.
/// v2: per-cell quarantined-shard bitmap + reason strings (graceful
/// degradation under persistent shard failure).
inline constexpr std::uint64_t kCheckpointFormat = 2;
/// "PPCKPT01" as little-endian bytes.
inline constexpr std::uint64_t kCheckpointMagic = 0x3130'5450'4B43'5050ULL;

/// Progress of one campaign cell: the shard decomposition, the bitmap of
/// completed shards, and a results slot per trial (meaningful exactly where
/// the owning shard's bit is set — only those records are serialized).
struct CellProgress {
  std::uint64_t trials = 0;
  std::uint64_t shard_trials = 1;  ///< rings per shard; thread-independent
  ShardBitmap done;                ///< one bit per shard: results valid
  /// One bit per shard: persistently failing shard, retried
  /// shard_max_attempts times and then recorded here instead of aborting
  /// the campaign (disjoint from `done` — a shard is done, quarantined, or
  /// pending). Quarantined shards emit no frame and block results().
  ShardBitmap quarantined;
  /// Reason per shard; meaningful exactly where `quarantined` is set (only
  /// those entries are serialized). Size = shards.
  std::vector<std::string> quarantine_reasons;
  std::vector<analysis::RecoveryTrial> results;  ///< size = trials

  [[nodiscard]] std::uint64_t shards() const noexcept { return done.size(); }
  [[nodiscard]] std::uint64_t settled() const noexcept {
    return done.count() + quarantined.count();
  }
  [[nodiscard]] std::uint64_t shard_first(std::uint64_t s) const noexcept {
    return s * shard_trials;
  }
  [[nodiscard]] std::uint64_t shard_count(std::uint64_t s) const noexcept {
    const std::uint64_t first = shard_first(s);
    return first >= trials ? 0
                           : std::min<std::uint64_t>(shard_trials,
                                                     trials - first);
  }
};

/// The whole checkpoint document, in memory.
struct Checkpoint {
  std::uint64_t spec_digest = 0;
  std::uint64_t frame_bytes = 0;  ///< frame-sink offset this checkpoint covers
  std::vector<CellProgress> cells;
};

enum class LoadStatus {
  kLoaded,        ///< checkpoint read and verified
  kAbsent,        ///< no file at the path, ENOENT (a fresh campaign)
  kCorrupt,       ///< bad magic/version/checksum/structure — refuse
  kSpecMismatch,  ///< valid file for a DIFFERENT campaign spec — refuse
  kIoError,       ///< open (not ENOENT) or fread failed — an I/O failure,
                  ///< NOT a corruption verdict; the caller may retry
};

struct LoadResult {
  LoadStatus status = LoadStatus::kAbsent;
  Checkpoint checkpoint;
  std::string error;  ///< human-readable reason for kCorrupt/kSpecMismatch
};

namespace detail {

/// Byte-buffer writer with explicit little-endian encoding.
struct ByteSink {
  std::vector<unsigned char> out;
  void u8(std::uint8_t v) { out.push_back(v); }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      out.push_back(static_cast<unsigned char>(v >> (8 * i)));
  }
  void str(const std::string& s) {
    u64(s.size());
    out.insert(out.end(), s.begin(), s.end());
  }
};

/// Bounds-checked little-endian reader; any overrun flips `ok` sticky-false.
struct ByteSource {
  const unsigned char* p = nullptr;
  std::size_t len = 0;
  std::size_t at = 0;
  bool ok = true;

  std::uint8_t u8() {
    if (at + 1 > len) {
      ok = false;
      return 0;
    }
    return p[at++];
  }
  std::uint64_t u64() {
    if (at + 8 > len) {
      ok = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(p[at + static_cast<std::size_t>(i)])
           << (8 * i);
    at += 8;
    return v;
  }
  std::string str() {
    const std::uint64_t n = u64();
    // Quarantine reasons are short human strings; an implausible length is
    // a corruption symptom, not a reason to allocate gigabytes.
    if (!ok || n > (1ULL << 16) || at + n > len) {
      ok = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(p + at),
                  static_cast<std::size_t>(n));
    at += static_cast<std::size_t>(n);
    return s;
  }
};

inline void encode_trial(ByteSink& s, const analysis::RecoveryTrial& t) {
  s.u8(static_cast<std::uint8_t>((t.stabilized ? 1 : 0) |
                                 (t.healed ? 2 : 0)));
  s.u64(t.stabilize_steps);
  s.u64(t.recovery_steps);
}

inline analysis::RecoveryTrial decode_trial(ByteSource& s) {
  analysis::RecoveryTrial t;
  const std::uint8_t flags = s.u8();
  t.stabilized = (flags & 1) != 0;
  t.healed = (flags & 2) != 0;
  t.stabilize_steps = s.u64();
  t.recovery_steps = s.u64();
  return t;
}

}  // namespace detail

/// Serialize a checkpoint to bytes: header, per-cell progress (bitmap +
/// completed-shard records only), trailing FNV-1a checksum.
[[nodiscard]] inline std::vector<unsigned char> encode_checkpoint(
    const Checkpoint& ckpt) {
  detail::ByteSink s;
  s.u64(kCheckpointMagic);
  s.u64(kCheckpointFormat);
  s.u64(ckpt.spec_digest);
  s.u64(ckpt.frame_bytes);
  s.u64(ckpt.cells.size());
  for (const CellProgress& cell : ckpt.cells) {
    s.u64(cell.trials);
    s.u64(cell.shard_trials);
    s.u64(cell.done.size());
    for (std::uint64_t w : cell.done.words()) s.u64(w);
    // Normalize an unsized quarantine bitmap (a CellProgress built before
    // any quarantine happened) to the shard count so the layout is fixed.
    const ShardBitmap empty_q(cell.quarantined.size() == cell.done.size()
                                  ? 0
                                  : cell.done.size());
    const ShardBitmap& q =
        cell.quarantined.size() == cell.done.size() ? cell.quarantined
                                                    : empty_q;
    for (std::uint64_t w : q.words()) s.u64(w);
    for (std::uint64_t sh = 0; sh < cell.shards(); ++sh)
      if (q.test(sh))
        s.str(sh < cell.quarantine_reasons.size()
                  ? cell.quarantine_reasons[static_cast<std::size_t>(sh)]
                  : std::string());
    for (std::uint64_t sh = 0; sh < cell.shards(); ++sh) {
      if (!cell.done.test(sh)) continue;
      const std::uint64_t first = cell.shard_first(sh);
      const std::uint64_t count = cell.shard_count(sh);
      for (std::uint64_t i = 0; i < count; ++i)
        detail::encode_trial(
            s, cell.results[static_cast<std::size_t>(first + i)]);
    }
  }
  Digest sum;
  sum.bytes(s.out.data(), s.out.size());
  s.u64(sum.value());
  return s.out;
}

/// Decode + verify. `expected_digest` is the running campaign's spec digest;
/// a checksum-valid checkpoint with a different digest is kSpecMismatch.
[[nodiscard]] inline LoadResult decode_checkpoint(
    const unsigned char* data, std::size_t len,
    std::uint64_t expected_digest) {
  LoadResult out;
  out.status = LoadStatus::kCorrupt;
  if (len < 6 * 8) {
    out.error = "file shorter than the fixed header";
    return out;
  }
  {  // Checksum first: everything else assumes intact bytes.
    Digest sum;
    sum.bytes(data, len - 8);
    detail::ByteSource tail{data + (len - 8), 8, 0, true};
    if (sum.value() != tail.u64()) {
      out.error = "content checksum mismatch (torn or corrupted file)";
      return out;
    }
  }
  detail::ByteSource s{data, len - 8, 0, true};
  if (s.u64() != kCheckpointMagic) {
    out.error = "bad magic (not a ppsim campaign checkpoint)";
    return out;
  }
  if (const std::uint64_t fmt = s.u64(); fmt != kCheckpointFormat) {
    out.error = "unsupported checkpoint format version " + std::to_string(fmt);
    return out;
  }
  Checkpoint ckpt;
  ckpt.spec_digest = s.u64();
  ckpt.frame_bytes = s.u64();
  const std::uint64_t n_cells = s.u64();
  if (!s.ok || n_cells > (1ULL << 32)) {
    out.error = "implausible cell count";
    return out;
  }
  for (std::uint64_t c = 0; c < n_cells && s.ok; ++c) {
    CellProgress cell;
    cell.trials = s.u64();
    cell.shard_trials = s.u64();
    const std::uint64_t shards = s.u64();
    if (!s.ok || cell.shard_trials == 0 ||
        shards != (cell.trials + cell.shard_trials - 1) / cell.shard_trials) {
      out.error = "inconsistent shard decomposition";
      return out;
    }
    cell.done = ShardBitmap(shards);
    for (std::uint64_t& w : cell.done.words()) w = s.u64();
    cell.quarantined = ShardBitmap(shards);
    for (std::uint64_t& w : cell.quarantined.words()) w = s.u64();
    cell.quarantine_reasons.resize(static_cast<std::size_t>(shards));
    for (std::uint64_t sh = 0; sh < shards && s.ok; ++sh) {
      if (cell.done.test(sh) && cell.quarantined.test(sh)) {
        out.error = "shard both completed and quarantined";
        return out;
      }
      if (cell.quarantined.test(sh))
        cell.quarantine_reasons[static_cast<std::size_t>(sh)] = s.str();
    }
    cell.results.resize(static_cast<std::size_t>(cell.trials));
    for (std::uint64_t sh = 0; sh < shards && s.ok; ++sh) {
      if (!cell.done.test(sh)) continue;
      const std::uint64_t first = cell.shard_first(sh);
      const std::uint64_t count = cell.shard_count(sh);
      for (std::uint64_t i = 0; i < count; ++i)
        cell.results[static_cast<std::size_t>(first + i)] =
            detail::decode_trial(s);
    }
    ckpt.cells.push_back(std::move(cell));
  }
  if (!s.ok || s.at != s.len) {
    out.error = "truncated or oversized payload";
    return out;
  }
  if (ckpt.spec_digest != expected_digest) {
    out.status = LoadStatus::kSpecMismatch;
    out.error = "checkpoint is for campaign " + digest_hex(ckpt.spec_digest) +
                ", this campaign is " + digest_hex(expected_digest) +
                " — refusing to resume (and refusing to silently restart)";
    return out;
  }
  out.status = LoadStatus::kLoaded;
  out.checkpoint = std::move(ckpt);
  return out;
}

namespace detail {

/// Directory component of `path` for the post-rename directory fsync
/// ("" and bare filenames live in ".").
[[nodiscard]] inline std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

}  // namespace detail

/// Durable atomic save: write `<path>.tmp`, fflush + fsync the file, rename
/// over `path`, then fsync the parent directory — so a *committed*
/// checkpoint survives power loss, not just process death (rename alone
/// orders the replacement but does not persist the directory entry).
/// Returns false (with the OS error on stderr) when any step fails; EINTR
/// is retried in place and never surfaces as a failure. Safe to retry
/// wholesale — every step is idempotent, and the caller owns the backoff.
/// A kThrow failpoint outcome at any site throws CheckpointError (the
/// non-transient injection class). Every exit but a commit closes and
/// removes the temp file.
[[nodiscard]] inline bool save_checkpoint(const std::string& path,
                                          const Checkpoint& ckpt) {
  const std::vector<unsigned char> bytes = encode_checkpoint(ckpt);
  const std::string tmp = path + ".tmp";
  std::FILE* f = nullptr;
  const auto drop_tmp = [&] {
    if (f != nullptr) std::fclose(f);
    f = nullptr;
    std::remove(tmp.c_str());
  };
  const auto fail = [&](int e, const std::string& what) {
    drop_tmp();
    errno = e;
    std::perror(("campaign checkpoint: " + what).c_str());
    return false;
  };
  try {
    if (const int e = detail::retry_io(
            core::failpoints::kCkptOpen, nullptr, [&](std::size_t) {
              f = std::fopen(tmp.c_str(), "wb");
              return f != nullptr;
            }))
      return fail(e, "fopen " + tmp);
    if (detail::fwrite_all(core::failpoints::kCkptWrite, nullptr, f,
                           bytes.data(), bytes.size()) != bytes.size())
      return fail(errno, "write " + tmp);
    // Durability barrier: libc buffer -> page cache (fflush), page cache
    // -> storage (fsync), BEFORE the rename makes the file the checkpoint.
    if (const int e = detail::retry_io(
            core::failpoints::kCkptFsync, nullptr, [&](std::size_t) {
              return std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
            }))
      return fail(e, "write " + tmp);
    std::fclose(f);
    f = nullptr;
    if (const int e = detail::retry_io(
            core::failpoints::kCkptRename, nullptr, [&](std::size_t) {
              return std::rename(tmp.c_str(), path.c_str()) == 0;
            }))
      return fail(e, "commit " + path);
  } catch (...) {
    drop_tmp();
    throw;
  }

  // The rename is only durable once the parent directory's entry is on
  // storage. A failure here fails the save; the retry re-runs the whole
  // (idempotent) sequence.
  const std::string dir = detail::parent_dir(path);
  if (const int e = detail::retry_io(
          core::failpoints::kCkptDirFsync, nullptr, [&](std::size_t) {
            const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
            if (dfd < 0) return false;
            const bool ok = ::fsync(dfd) == 0;
            const int saved = errno;
            ::close(dfd);
            errno = saved;
            return ok;
          })) {
    errno = e;
    std::perror(("campaign checkpoint: fsync dir of " + path).c_str());
    return false;
  }
  return true;
}

/// Load a checkpoint file. A missing file (ENOENT) is kAbsent — a fresh
/// campaign; any other open failure, and a mid-file read error (std::ferror
/// — NOT a short file, which the codec judges), is kIoError, so the caller
/// retries and then refuses instead of restarting over a file it merely
/// cannot reach. Every other failure mode is a refusal with a reason. EINTR
/// is retried in place.
[[nodiscard]] inline LoadResult load_checkpoint(
    const std::string& path, std::uint64_t expected_digest) {
  LoadResult out;
  const auto io_error = [&](const char* what, int e) {
    out.status = LoadStatus::kIoError;
    out.error = std::string(what) + " checkpoint file (errno " +
                std::to_string(e) + ": " + std::strerror(e) +
                ") — an I/O failure, not a corruption verdict";
    return out;
  };
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) return out;  // kAbsent
    return io_error("cannot open", errno);
  }
  std::vector<unsigned char> bytes;
  unsigned char buf[4096];
  try {
    for (std::size_t got = 1; got > 0;) {
      if (const int e = detail::retry_io(
              core::failpoints::kCkptRead, nullptr, [&](std::size_t cap) {
                got = std::fread(buf, 1, std::min(sizeof buf, cap), f);
                if (got > 0 || std::ferror(f) == 0) return true;  // or EOF
                std::clearerr(f);
                return false;
              })) {
        std::fclose(f);
        return io_error("read error on", e);
      }
      bytes.insert(bytes.end(), buf, buf + got);
    }
  } catch (...) {
    std::fclose(f);
    throw;
  }
  std::fclose(f);
  return decode_checkpoint(bytes.data(), bytes.size(), expected_digest);
}

}  // namespace ppsim::service

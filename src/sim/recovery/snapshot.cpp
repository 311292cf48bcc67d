#include "sim/recovery/snapshot.hpp"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "sim/recovery/state_io.hpp"

namespace mris::recovery {

namespace {

std::string encode_snapshot_header(const SnapshotMeta& meta,
                                   std::string_view payload) {
  StateWriter w;
  w.u32(kSnapshotMagic);
  w.u32(kSnapshotVersion);
  w.u64(meta.fingerprint);
  w.u64(meta.events_processed);
  w.u64(meta.journal_records);
  w.f64(meta.now);
  w.u64(payload.size());
  w.u32(crc32(payload));
  return w.take();
}

}  // namespace

SnapshotStore::SnapshotStore(const RecoveryOptions& options,
                             RecoveryStats* stats)
    : options_(options), stats_(stats) {}

bool SnapshotStore::write(const SnapshotMeta& meta, std::string_view payload) {
  if (dead_) return false;
  const std::string header = encode_snapshot_header(meta, payload);
  const std::size_t total = header.size() + payload.size();
  const std::string& path = options_.snapshot_path;
  const std::string tmp = path + ".tmp";
  const IoHooks* hooks = options_.hooks;

  // One attempt: the first failure takes the ladder rung at once, like the
  // journal's.
  const bool ok = [&] {
    if (hooks != nullptr && hooks->allow_open && !hooks->allow_open(path)) {
      return false;
    }
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) return false;
    bool good = true;
    if (hooks != nullptr && hooks->allow_write &&
        !hooks->allow_write(path, total)) {
      good = false;
    }
    if (good &&
        std::fwrite(header.data(), 1, header.size(), f) != header.size()) {
      good = false;
    }
    if (good && std::fwrite(payload.data(), 1, payload.size(), f) !=
                    payload.size()) {
      good = false;
    }
    if (good && std::fflush(f) != 0) good = false;
    if (good && hooks != nullptr && hooks->allow_sync && !hooks->allow_sync(path)) {
      good = false;
    }
    if (good && ::fsync(::fileno(f)) != 0) good = false;
    std::fclose(f);
    if (!good) {
      std::remove(tmp.c_str());
      return false;
    }
    return std::rename(tmp.c_str(), path.c_str()) == 0;
  }();

  if (!ok) {
    dead_ = true;
    if (stats_ != nullptr) ++stats_->snapshot_failures;
    return false;
  }
  if (stats_ != nullptr) {
    ++stats_->snapshots_taken;
    stats_->snapshot_bytes = total;
  }
  return true;
}

SnapshotContents read_snapshot(const std::string& path) {
  SnapshotContents out;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    out.error = "cannot open snapshot: " + path;
    return out;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();

  constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 8 + 8 + 8 + 8 + 4;
  if (bytes.size() < kHeaderSize) {
    out.error = "snapshot shorter than its header";
    return out;
  }
  StateReader header(std::string_view(bytes).substr(0, kHeaderSize));
  if (header.u32() != kSnapshotMagic) {
    out.error = "bad snapshot magic";
    return out;
  }
  const std::uint32_t version = header.u32();
  if (version != kSnapshotVersion) {
    out.error = "unsupported snapshot version " + std::to_string(version);
    return out;
  }
  out.meta.fingerprint = header.u64();
  out.meta.events_processed = header.u64();
  out.meta.journal_records = header.u64();
  out.meta.now = header.f64();
  const std::uint64_t size = header.u64();
  const std::uint32_t crc = header.u32();
  if (bytes.size() - kHeaderSize != size) {
    out.error = "snapshot payload size mismatch";
    return out;
  }
  const std::string_view payload(bytes.data() + kHeaderSize,
                                 static_cast<std::size_t>(size));
  if (crc32(payload) != crc) {
    out.error = "snapshot payload CRC mismatch";
    return out;
  }
  out.payload = std::string(payload);
  out.ok = true;
  return out;
}

}  // namespace mris::recovery

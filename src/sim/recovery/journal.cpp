#include "sim/recovery/journal.hpp"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sim/recovery/state_io.hpp"
#include "util/contracts.hpp"

namespace mris::recovery {

namespace {

constexpr std::size_t kHeaderSize = 4 + 4 + 8;

std::string encode_header(JournalFormat format, std::uint64_t fingerprint) {
  StateWriter w;
  w.u32(format.magic);
  w.u32(format.version);
  w.u64(fingerprint);
  return w.take();
}

/// Builds one CRC frame around `payload` into `out` (clearing it first).
void frame_into(std::string_view payload, StateWriter& out) {
  MRIS_EXPECT(payload.size() <= kMaxFrameBytes, "journal payload too large");
  out.clear();
  out.u32(static_cast<std::uint32_t>(payload.size()));
  out.u32(crc32(payload));
  out.raw(payload.data(), payload.size());
}

}  // namespace

void encode_event_record(const EventRecord& rec, StateWriter& w) {
  w.u8(static_cast<std::uint8_t>(rec.kind));
  w.f64(rec.t);
  w.i32(rec.job);
  w.i32(rec.machine);
  w.f64(rec.start);
}

std::string encode_event_record(const EventRecord& rec) {
  StateWriter w;
  encode_event_record(rec, w);
  return w.take();
}

EventRecord decode_event_record(std::string_view payload) {
  StateReader r(payload);
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(EventRecord::Kind::kRetryReady)) {
    throw std::runtime_error("recovery: bad event kind in journal record");
  }
  EventRecord rec;
  rec.kind = static_cast<EventRecord::Kind>(kind);
  rec.t = r.f64();
  rec.job = r.i32();
  rec.machine = r.i32();
  rec.start = r.f64();
  if (!r.done()) {
    throw std::runtime_error("recovery: trailing bytes in journal record");
  }
  return rec;
}

// --- JournalWriter --------------------------------------------------------

JournalWriter::JournalWriter(const RecoveryOptions& options,
                             RecoveryStats* stats, JournalFormat format)
    : options_(options), stats_(stats), format_(format) {}

JournalWriter::~JournalWriter() { close(); }

bool JournalWriter::open_fresh(std::uint64_t fingerprint) {
  MRIS_EXPECT(file_ == nullptr, "journal already open");
  if (!open_file("wb")) return false;
  return write_bytes(encode_header(format_, fingerprint)) && sync();
}

bool JournalWriter::open_append() {
  MRIS_EXPECT(file_ == nullptr, "journal already open");
  if (!open_file("ab")) return false;
  std::error_code ec;
  const auto size = std::filesystem::file_size(options_.journal_path, ec);
  bytes_written_ = synced_bytes_ = ec ? 0 : size;
  return true;
}

bool JournalWriter::append(std::string_view payload) {
  if (dead_) return false;
  frame_into(payload, frame_);
  if (!write_bytes(frame_.data())) return false;
  if (stats_ != nullptr) {
    ++stats_->journal_records;
    stats_->journal_bytes += frame_.size();
  }
  if (++unsynced_ >= options_.journal_sync_every) return sync();
  return true;
}

bool JournalWriter::append(const EventRecord& rec) {
  payload_.clear();
  encode_event_record(rec, payload_);
  return append(payload_.data());
}

void JournalWriter::append_torn(const EventRecord& rec,
                                std::uint32_t keep_bytes) {
  if (dead_ || file_ == nullptr) return;
  frame_into(encode_event_record(rec), frame_);
  std::string_view bytes = frame_.data();
  if (keep_bytes < bytes.size()) bytes = bytes.substr(0, keep_bytes);
  // A crash mid-write takes no bookkeeping: just the partial bytes hitting
  // the disk, flushed so the restarted process sees them.
  std::fwrite(bytes.data(), 1, bytes.size(), file_);
  std::fflush(file_);
  ::fsync(::fileno(file_));
  std::fclose(file_);
  file_ = nullptr;
  dead_ = true;
}

void JournalWriter::kill() {
  if (file_ != nullptr) {
    std::fclose(file_);  // flushes the dirty buffer ...
    file_ = nullptr;
    std::error_code ec;  // ... which the truncation then "loses"
    std::filesystem::resize_file(options_.journal_path, synced_bytes_, ec);
  }
  dead_ = true;
}

bool JournalWriter::sync() {
  if (dead_ || file_ == nullptr) return false;
  if (synced_bytes_ == bytes_written_) {
    unsynced_ = 0;
    return true;
  }
  // No second try: a failed fsync may already have dropped the dirty
  // pages, so a later fsync returning 0 would not mean they reached disk.
  const bool ok = std::fflush(file_) == 0 &&
                  (options_.hooks == nullptr || !options_.hooks->allow_sync ||
                   options_.hooks->allow_sync(options_.journal_path)) &&
                  ::fsync(::fileno(file_)) == 0;
  if (!ok) {
    give_up();
    return false;
  }
  unsynced_ = 0;
  synced_bytes_ = bytes_written_;
  return true;
}

void JournalWriter::close() {
  if (file_ != nullptr) {
    if (!dead_) sync();
    if (file_ != nullptr) {
      std::fclose(file_);
      file_ = nullptr;
    }
  }
}

bool JournalWriter::write_bytes(std::string_view bytes) {
  if (dead_ || file_ == nullptr) return false;
  // No second try: a short write leaves part of the frame in the stream,
  // and writing the whole frame again would garble the journal there.
  const bool ok =
      (options_.hooks == nullptr || !options_.hooks->allow_write ||
       options_.hooks->allow_write(options_.journal_path, bytes.size())) &&
      std::fwrite(bytes.data(), 1, bytes.size(), file_) == bytes.size();
  if (!ok) {
    give_up();
    return false;
  }
  bytes_written_ += bytes.size();
  return true;
}

bool JournalWriter::open_file(const char* mode) {
  if (options_.hooks == nullptr || !options_.hooks->allow_open ||
      options_.hooks->allow_open(options_.journal_path)) {
    file_ = std::fopen(options_.journal_path.c_str(), mode);
  }
  if (file_ == nullptr) give_up();
  return file_ != nullptr;
}

void JournalWriter::give_up() {
  if (!dead_ && stats_ != nullptr) ++stats_->journal_failures;
  dead_ = true;
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

// --- Reading --------------------------------------------------------------

JournalContents read_journal(const std::string& path, JournalFormat format) {
  JournalContents out;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    out.error = "cannot open journal: " + path;
    return out;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();

  if (bytes.size() < kHeaderSize) {
    out.error = "journal shorter than its header";
    return out;
  }
  StateReader header(std::string_view(bytes).substr(0, kHeaderSize));
  if (header.u32() != format.magic) {
    out.error = "bad journal magic";
    return out;
  }
  const std::uint32_t version = header.u32();
  if (version != format.version) {
    out.error = "unsupported journal version " + std::to_string(version);
    return out;
  }
  out.fingerprint = header.u64();
  out.ok = true;
  out.valid_bytes = kHeaderSize;

  // Frames until EOF or the first torn/corrupt one (truncation rule).
  std::size_t pos = kHeaderSize;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 8) break;  // torn frame header
    StateReader fh(std::string_view(bytes).substr(pos, 8));
    const std::uint32_t size = fh.u32();
    const std::uint32_t crc = fh.u32();
    if (size > kMaxFrameBytes) break;             // corrupt length
    if (bytes.size() - pos - 8 < size) break;     // torn payload
    const std::string_view payload(bytes.data() + pos + 8, size);
    if (crc32(payload) != crc) break;  // corrupt payload
    out.payloads.emplace_back(payload);
    pos += 8 + size;
    out.valid_bytes = pos;
  }
  out.torn_bytes = bytes.size() - out.valid_bytes;
  return out;
}

std::vector<EventRecord> event_records(const JournalContents& contents) {
  std::vector<EventRecord> records;
  records.reserve(contents.payloads.size());
  for (const std::string& p : contents.payloads) {
    records.push_back(decode_event_record(p));
  }
  return records;
}

bool truncate_journal(const std::string& path, std::uint64_t valid_bytes) {
  std::error_code ec;
  std::filesystem::resize_file(path, valid_bytes, ec);
  return !ec;
}

}  // namespace mris::recovery

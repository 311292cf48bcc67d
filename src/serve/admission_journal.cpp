#include "serve/admission_journal.hpp"

// mris-analyze: allow-file(raw-io)
// This file IS a durable-write layer: the admission journal needs a
// write-ahead per-record fsync (durable BEFORE admit), which the batched
// JournalWriter in src/sim/recovery/ deliberately does not provide.  It
// carries its own CRC framing and torn-tail truncation (docs/DAEMON.md).

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sim/recovery/state_io.hpp"

namespace mris::serve {

namespace {

constexpr std::uint32_t kMaxRecordBytes = 1u << 20;

std::string encode_header(std::uint64_t fingerprint) {
  recovery::StateWriter w;
  w.u32(kAdmissionMagic);
  w.u32(kAdmissionVersion);
  w.u64(fingerprint);
  return w.take();
}

std::string encode_record(std::uint64_t seq, const Job& job) {
  recovery::StateWriter payload;
  payload.u64(seq);
  payload.f64(job.release);
  payload.f64(job.processing);
  payload.f64(job.weight);
  payload.i32(job.tenant);
  payload.u32(static_cast<std::uint32_t>(job.demand.size()));
  for (double d : job.demand) payload.f64(d);

  recovery::StateWriter frame;
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.raw(payload.data().data(), payload.size());
  frame.u32(recovery::crc32(payload.data()));
  return frame.take();
}

[[noreturn]] void io_fail(const std::string& path, const char* what) {
  throw std::runtime_error("admission journal " + path + ": " + what);
}

}  // namespace

AdmissionJournalWriter::~AdmissionJournalWriter() { close(); }

void AdmissionJournalWriter::open_fresh(const std::string& path,
                                        std::uint64_t fingerprint) {
  close();
  path_ = path;
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) io_fail(path, "cannot create");
  const std::string header = encode_header(fingerprint);
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size() ||
      std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
    io_fail(path, "cannot write header");
  }
}

void AdmissionJournalWriter::open_append(const std::string& path) {
  close();
  path_ = path;
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) io_fail(path, "cannot open for append");
}

void AdmissionJournalWriter::append(std::uint64_t seq, const Job& job) {
  if (file_ == nullptr) io_fail(path_, "append on closed journal");
  const std::string frame = encode_record(seq, job);
  // Write-ahead: the record must be durable before the engine admits the
  // job, so every append syncs.  The per-admission fsync is the cost of
  // exact resume; admissions are rare next to engine events.
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size() ||
      std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
    io_fail(path_, "cannot append record");
  }
}

void AdmissionJournalWriter::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

AdmissionLog read_admission_journal(const std::string& path) {
  AdmissionLog log;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    log.error = "cannot open " + path;
    return log;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string data = ss.str();

  recovery::StateReader header(std::string_view(data).substr(
      0, data.size() < 16 ? data.size() : 16));
  try {
    if (header.u32() != kAdmissionMagic) {
      log.error = "bad magic (not an admission journal)";
      return log;
    }
    if (header.u32() != kAdmissionVersion) {
      log.error = "unsupported admission journal version";
      return log;
    }
    log.fingerprint = header.u64();
  } catch (const std::exception&) {
    log.error = "truncated admission journal header";
    return log;
  }

  log.ok = true;
  std::size_t pos = 16;
  while (pos < data.size()) {
    // Torn-record truncation: the journal ends at the first record that is
    // short, oversized, or fails its CRC.
    if (data.size() - pos < 4) break;
    recovery::StateReader szr(std::string_view(data).substr(pos, 4));
    const std::uint32_t size = szr.u32();
    if (size > kMaxRecordBytes) break;
    if (data.size() - pos < 4u + size + 4u) break;
    const std::string_view payload(data.data() + pos + 4, size);
    recovery::StateReader crcr(
        std::string_view(data).substr(pos + 4 + size, 4));
    if (crcr.u32() != recovery::crc32(payload)) break;

    AdmissionRecord rec;
    try {
      recovery::StateReader r(payload);
      rec.seq = r.u64();
      rec.job.release = r.f64();
      rec.job.processing = r.f64();
      rec.job.weight = r.f64();
      rec.job.tenant = r.i32();
      const std::uint32_t nr = r.u32();
      rec.job.demand.resize(nr);
      for (std::uint32_t i = 0; i < nr; ++i) rec.job.demand[i] = r.f64();
      if (!r.done()) break;
    } catch (const std::exception&) {
      break;
    }
    log.records.push_back(std::move(rec));
    pos += 4u + size + 4u;
  }
  log.valid_bytes = pos;
  log.torn_bytes = data.size() - pos;
  return log;
}

bool truncate_admission_journal(const std::string& path,
                                std::uint64_t valid_bytes) {
  std::error_code ec;
  std::filesystem::resize_file(path, valid_bytes, ec);
  return !ec;
}

}  // namespace mris::serve

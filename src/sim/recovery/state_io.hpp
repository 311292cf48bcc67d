// Binary state serialization for the durability subsystem (snapshot +
// write-ahead journal, docs/RECOVERY.md).
//
// StateWriter/StateReader are append-only/read-forward codecs over a byte
// buffer with an explicitly fixed encoding: all integers little-endian,
// doubles as their IEEE-754 bit pattern (so a round trip is the identity on
// every value, including -0.0, subnormals, and NaN payloads — byte-identical
// recovery depends on this), strings and vectors length-prefixed with u64.
// The encoding is platform-independent: a snapshot written on one machine
// restores bit-exactly on another.
//
// A reader that runs off the end of its buffer throws std::runtime_error
// ("truncated state") rather than returning garbage; snapshot/journal
// framing adds CRC-32 checks on top so corruption is detected before any
// field is decoded.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mris::recovery {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `data`.  Used to
/// frame journal records and checksum snapshot payloads.
std::uint32_t crc32(std::string_view data);

class StateWriter {
 public:
  // The scalar writers are inline: snapshots serialize hundreds of
  // thousands of fields per cut, and an out-of-line call per field was a
  // measurable slice of the snapshot cost.  Each field is staged in a
  // small stack buffer and appended in one call.
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    char b[4];
    for (int i = 0; i < 4; ++i) {
      b[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
    }
    buf_.append(b, 4);
  }
  void u64(std::uint64_t v) {
    char b[8];
    for (int i = 0; i < 8; ++i) {
      b[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
    }
    buf_.append(b, 8);
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  /// IEEE bit pattern, exact round trip.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view v);

  /// Appends pre-encoded bytes verbatim (no length prefix).  For callers
  /// that stage a whole fixed-layout record in a stack buffer and append
  /// it in one call — the per-field appends add up when a block repeats
  /// tens of thousands of times per snapshot.
  void raw(const char* p, std::size_t n) { buf_.append(p, n); }

  /// Pre-grows the buffer (pure optimization for bulk writers).
  void reserve(std::size_t additional) { buf_.reserve(buf_.size() + additional); }

  void vec_f64(const std::vector<double>& v);
  void vec_i32(const std::vector<std::int32_t>& v);
  void vec_u64(const std::vector<std::uint64_t>& v);
  void vec_char(const std::vector<char>& v);  ///< the engine's bool arrays

  const std::string& data() const noexcept { return buf_; }
  std::string take() noexcept { return std::move(buf_); }
  std::size_t size() const noexcept { return buf_.size(); }

  /// Drops the contents but keeps the capacity — a writer reused across
  /// snapshots pays the buffer-growth page faults only once.
  void clear() noexcept { buf_.clear(); }

 private:
  std::string buf_;
};

class StateReader {
 public:
  /// Reads from `data`, which must outlive the reader.
  explicit StateReader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32();
  double f64();
  std::string str();

  std::vector<double> vec_f64();
  std::vector<std::int32_t> vec_i32();
  std::vector<std::uint64_t> vec_u64();
  std::vector<char> vec_char();

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return pos_ == data_.size(); }

 private:
  /// Advances past `n` bytes; throws std::runtime_error on underflow.
  const char* take(std::size_t n);

  /// Reads a vector's element count and checks that that many elements of
  /// `width` bytes remain; throws std::runtime_error naming `what` if not.
  std::size_t count(std::size_t width, const char* what);

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// FNV-1a accumulator for run fingerprints: a snapshot or journal written
/// under one (instance, fault plan, scheduler) must refuse to resume under
/// another.  Not cryptographic — it guards against operator error, not
/// adversaries.
class Fingerprint {
 public:
  Fingerprint& mix(std::uint64_t v);
  Fingerprint& mix(double v);  ///< by bit pattern
  Fingerprint& mix(std::string_view v);
  std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

}  // namespace mris::recovery

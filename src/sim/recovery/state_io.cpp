#include "sim/recovery/state_io.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace mris::recovery {

namespace {

// Slicing-by-8 tables: table[0] is the classic byte-at-a-time table and
// table[k][b] is the CRC of byte b followed by k zero bytes, which lets the
// hot loop fold 8 input bytes per iteration instead of one.  Snapshots
// checksum hundreds of KB per cut, so the byte-at-a-time loop's serial
// load-xor chain was a measurable slice of durability overhead.
std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = tables[0][i];
    for (int k = 1; k < 8; ++k) {
      c = tables[0][c & 0xFFu] ^ (c >> 8);
      tables[k][i] = c;
    }
  }
  return tables;
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  static const std::array<std::array<std::uint32_t, 256>, 8> t =
      make_crc_tables();
  std::uint32_t c = 0xFFFFFFFFu;
  const char* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    if constexpr (std::endian::native != std::endian::little) {
      lo = __builtin_bswap32(lo);
      hi = __builtin_bswap32(hi);
    }
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ static_cast<unsigned char>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// --- StateWriter ----------------------------------------------------------

void StateWriter::str(std::string_view v) {
  u64(v.size());
  buf_.append(v.data(), v.size());
}

// On little-endian hosts a scalar array's memory image IS the wire format,
// so whole vectors go through one append; the element loop is the
// big-endian fallback that keeps the encoding platform-independent.

void StateWriter::vec_f64(const std::vector<double>& v) {
  u64(v.size());
  if constexpr (std::endian::native == std::endian::little) {
    buf_.append(reinterpret_cast<const char*>(v.data()), v.size() * 8);
  } else {
    for (double x : v) f64(x);
  }
}

void StateWriter::vec_i32(const std::vector<std::int32_t>& v) {
  u64(v.size());
  if constexpr (std::endian::native == std::endian::little) {
    buf_.append(reinterpret_cast<const char*>(v.data()), v.size() * 4);
  } else {
    for (std::int32_t x : v) i32(x);
  }
}

void StateWriter::vec_u64(const std::vector<std::uint64_t>& v) {
  u64(v.size());
  if constexpr (std::endian::native == std::endian::little) {
    buf_.append(reinterpret_cast<const char*>(v.data()), v.size() * 8);
  } else {
    for (std::uint64_t x : v) u64(x);
  }
}

void StateWriter::vec_char(const std::vector<char>& v) {
  u64(v.size());
  buf_.append(v.data(), v.size());
}

// --- StateReader ----------------------------------------------------------

const char* StateReader::take(std::size_t n) {
  if (n > data_.size() - pos_) {
    throw std::runtime_error("recovery: truncated state (wanted " +
                             std::to_string(n) + " bytes, have " +
                             std::to_string(data_.size() - pos_) + ")");
  }
  const char* p = data_.data() + pos_;
  pos_ += n;
  return p;
}

std::uint8_t StateReader::u8() {
  return static_cast<std::uint8_t>(*take(1));
}

std::uint32_t StateReader::u32() {
  const char* p = take(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t StateReader::u64() {
  const char* p = take(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

std::int32_t StateReader::i32() {
  return static_cast<std::int32_t>(u32());
}

double StateReader::f64() {
  return std::bit_cast<double>(u64());
}

std::string StateReader::str() {
  const std::uint64_t n = u64();
  if (n > data_.size() - pos_) {
    throw std::runtime_error("recovery: truncated string in state");
  }
  const char* p = take(static_cast<std::size_t>(n));
  return std::string(p, static_cast<std::size_t>(n));
}

std::size_t StateReader::count(std::size_t width, const char* what) {
  const std::uint64_t n = u64();
  // Divide rather than multiply: n * width wraps for a corrupt huge n.
  if (n > remaining() / width) {
    throw std::runtime_error(std::string("recovery: truncated ") + what +
                             " vector in state");
  }
  return static_cast<std::size_t>(n);
}

// The n == 0 guards skip memcpy into an empty vector's null data(), which
// is undefined behavior even for a zero-byte copy.

std::vector<double> StateReader::vec_f64() {
  const std::size_t n = count(8, "f64");
  std::vector<double> v(n);
  if constexpr (std::endian::native == std::endian::little) {
    if (n > 0) std::memcpy(v.data(), take(n * 8), n * 8);
  } else {
    for (auto& x : v) x = f64();
  }
  return v;
}

std::vector<std::int32_t> StateReader::vec_i32() {
  const std::size_t n = count(4, "i32");
  std::vector<std::int32_t> v(n);
  if constexpr (std::endian::native == std::endian::little) {
    if (n > 0) std::memcpy(v.data(), take(n * 4), n * 4);
  } else {
    for (auto& x : v) x = i32();
  }
  return v;
}

std::vector<std::uint64_t> StateReader::vec_u64() {
  const std::size_t n = count(8, "u64");
  std::vector<std::uint64_t> v(n);
  if constexpr (std::endian::native == std::endian::little) {
    if (n > 0) std::memcpy(v.data(), take(n * 8), n * 8);
  } else {
    for (auto& x : v) x = u64();
  }
  return v;
}

std::vector<char> StateReader::vec_char() {
  const std::uint64_t n = u64();
  if (n > data_.size() - pos_) {
    throw std::runtime_error("recovery: truncated char vector in state");
  }
  const char* p = take(static_cast<std::size_t>(n));
  return std::vector<char>(p, p + n);
}

// --- Fingerprint ----------------------------------------------------------

Fingerprint& Fingerprint::mix(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    state_ ^= (v >> (8 * i)) & 0xFFu;
    state_ *= 0x100000001b3ull;
  }
  return *this;
}

Fingerprint& Fingerprint::mix(double v) {
  return mix(std::bit_cast<std::uint64_t>(v));
}

Fingerprint& Fingerprint::mix(std::string_view v) {
  mix(static_cast<std::uint64_t>(v.size()));
  for (const char c : v) {
    state_ ^= static_cast<unsigned char>(c);
    state_ *= 0x100000001b3ull;
  }
  return *this;
}

}  // namespace mris::recovery

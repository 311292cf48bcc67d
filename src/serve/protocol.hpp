// Streaming admission protocol for the scheduler daemon (docs/DAEMON.md).
//
// A stream is a sequence of length-prefixed, CRC-framed messages:
//
//   frame    u32 size · u8 kind · payload · u32 crc32(kind byte + payload)
//
// where `size` counts the kind byte plus the payload (not the size word or
// the CRC).  Integers are little-endian, doubles IEEE-754 bit patterns —
// the same fixed encoding as the recovery subsystem (recovery/state_io.hpp),
// so a packed stream is platform-independent.
//
// Message kinds:
//
//   Hello (0)  u32 protocol version · u32 num_resources
//              Must be the first frame, exactly once.  `num_resources` must
//              match the daemon's configured R.
//   Job (1)    u64 seq · f64 release · f64 processing · f64 weight ·
//              i32 tenant · u32 num_resources · num_resources x f64 demand
//              One admission.  `seq` must be consecutive from 0; releases
//              must be non-decreasing; all values finite; demands in [0,1];
//              processing >= 1; weight > 0.
//   End (2)    u64 jobs_sent
//              Must be the last frame, exactly once; `jobs_sent` must equal
//              the number of Job frames.  A stream that hits EOF without an
//              End frame was truncated.
//
// Strictness contract (the protocol fuzz tests pin this down): a malformed,
// truncated, duplicated, or out-of-order frame raises ProtocolError with a
// message naming the violation, and the decoder admits nothing from the bad
// frame onward — a frame is either fully valid or it never happened.  The
// transport is a plain byte stream (stdin, a pipe, or a socket fd dup'd to
// stdin); framing carries all the structure.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/job.hpp"
#include "sim/recovery/state_io.hpp"

namespace mris::serve {

inline constexpr std::uint32_t kProtocolVersion = 1;

inline constexpr std::uint8_t kFrameHello = 0;
inline constexpr std::uint8_t kFrameJob = 1;
inline constexpr std::uint8_t kFrameEnd = 2;

/// Upper bound on `size`, the same bound the journals apply to theirs.
using recovery::kMaxFrameBytes;

/// Raised on any framing or validation violation.  The message names the
/// frame index and the violated rule.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct HelloFrame {
  std::uint32_t version = kProtocolVersion;
  std::uint32_t num_resources = 0;
};

struct JobFrame {
  std::uint64_t seq = 0;
  Job job;  ///< id unset (assigned by the engine at admission)
};

struct EndFrame {
  std::uint64_t jobs_sent = 0;
};

struct Frame {
  std::uint8_t kind = kFrameHello;
  HelloFrame hello;
  JobFrame job;
  EndFrame end;
};

// Encoders (the CLI `pack` subcommand, the bench's synthetic streams, and
// the tests all produce wire bytes through these).
void encode_hello(std::string& out, std::uint32_t num_resources);
void encode_job(std::string& out, std::uint64_t seq, const Job& job);
void encode_end(std::string& out, std::uint64_t jobs_sent);

/// The Job payload after its kind byte, shared by the wire's Job frame and
/// the daemon's admission journal record (docs/DAEMON.md):
///   u64 seq · f64 release · f64 processing · f64 weight · i32 tenant ·
///   u32 num_resources · num_resources x f64 demand
void encode_job_payload(recovery::StateWriter& w, std::uint64_t seq,
                        const Job& job);

/// Reads one Job payload without validating its values; throws
/// std::runtime_error when the payload is shorter than it claims.
JobFrame decode_job_payload(recovery::StateReader& r);

/// Convenience: the full wire encoding of an instance-like job list
/// (Hello + one Job per element in the given order + End).
std::string encode_stream(const std::vector<Job>& jobs,
                          std::uint32_t num_resources);

/// Incremental, stateful decoder.  feed() appends raw transport bytes;
/// next() yields complete frames one at a time and enforces the whole
/// stream grammar (Hello first, consecutive seq, monotone releases, End
/// last).  All violations throw ProtocolError.
class FrameDecoder {
 public:
  /// `num_resources` is the daemon's configured R; Hello and every Job
  /// frame are validated against it.
  explicit FrameDecoder(std::uint32_t num_resources);

  void feed(std::string_view bytes);

  /// True (and `frame` filled) when a complete, valid frame was consumed
  /// from the buffer; false when more bytes are needed.
  bool next(Frame& frame);

  /// Call at transport EOF: verifies the stream ended exactly at a frame
  /// boundary *after* a valid End frame; throws ProtocolError otherwise.
  void finish() const;

  bool saw_end() const noexcept { return saw_end_; }
  std::uint64_t frames_decoded() const noexcept { return frames_; }
  std::uint64_t jobs_decoded() const noexcept { return jobs_; }

 private:
  [[noreturn]] void fail(const std::string& what) const;
  void validate(Frame& frame, std::string_view payload) const;

  std::uint32_t num_resources_;
  std::string buf_;
  std::size_t pos_ = 0;  ///< consumed prefix of buf_ (compacted lazily)
  std::uint64_t frames_ = 0;
  std::uint64_t jobs_ = 0;
  double last_release_ = 0.0;
  bool saw_hello_ = false;
  bool saw_end_ = false;
};

}  // namespace mris::serve

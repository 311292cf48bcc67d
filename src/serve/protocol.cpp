#include "serve/protocol.hpp"

#include <cmath>
#include <vector>

namespace mris::serve {

namespace {

/// Wraps an encoded (kind + payload) body in the outer frame:
/// u32 size · body · u32 crc32(body).
void frame_out(std::string& out, std::string_view body) {
  recovery::StateWriter w;
  w.u32(static_cast<std::uint32_t>(body.size()));
  out += w.data();
  out.append(body.data(), body.size());
  recovery::StateWriter c;
  c.u32(recovery::crc32(body));
  out += c.data();
}

}  // namespace

void encode_job_payload(recovery::StateWriter& w, std::uint64_t seq,
                        const Job& job) {
  w.u64(seq);
  w.f64(job.release);
  w.f64(job.processing);
  w.f64(job.weight);
  w.i32(job.tenant);
  w.u32(static_cast<std::uint32_t>(job.demand.size()));
  for (double d : job.demand) w.f64(d);
}

JobFrame decode_job_payload(recovery::StateReader& r) {
  JobFrame f;
  f.seq = r.u64();
  f.job.release = r.f64();
  f.job.processing = r.f64();
  f.job.weight = r.f64();
  f.job.tenant = r.i32();
  const std::uint32_t nr = r.u32();
  if (nr > r.remaining() / 8) throw std::runtime_error("truncated state");
  f.job.demand.resize(nr);
  for (double& d : f.job.demand) d = r.f64();
  return f;
}

void encode_hello(std::string& out, std::uint32_t num_resources) {
  recovery::StateWriter w;
  w.u8(kFrameHello);
  w.u32(kProtocolVersion);
  w.u32(num_resources);
  frame_out(out, w.data());
}

void encode_job(std::string& out, std::uint64_t seq, const Job& job) {
  recovery::StateWriter w;
  w.u8(kFrameJob);
  encode_job_payload(w, seq, job);
  frame_out(out, w.data());
}

void encode_end(std::string& out, std::uint64_t jobs_sent) {
  recovery::StateWriter w;
  w.u8(kFrameEnd);
  w.u64(jobs_sent);
  frame_out(out, w.data());
}

std::string encode_stream(const std::vector<Job>& jobs,
                          std::uint32_t num_resources) {
  std::string out;
  encode_hello(out, num_resources);
  std::uint64_t seq = 0;
  for (const Job& j : jobs) encode_job(out, seq++, j);
  encode_end(out, seq);
  return out;
}

FrameDecoder::FrameDecoder(std::uint32_t num_resources)
    : num_resources_(num_resources) {}

void FrameDecoder::feed(std::string_view bytes) {
  // Compact the consumed prefix before growing — the buffer stays
  // O(one frame), not O(stream).
  if (pos_ > 0) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(bytes.data(), bytes.size());
}

void FrameDecoder::fail(const std::string& what) const {
  throw ProtocolError("protocol error at frame " + std::to_string(frames_) +
                      ": " + what);
}

bool FrameDecoder::next(Frame& frame) {
  const std::size_t avail = buf_.size() - pos_;
  if (avail < 4) return false;
  const auto* u = reinterpret_cast<const unsigned char*>(buf_.data() + pos_);
  const std::uint32_t size = static_cast<std::uint32_t>(u[0]) |
                             (static_cast<std::uint32_t>(u[1]) << 8) |
                             (static_cast<std::uint32_t>(u[2]) << 16) |
                             (static_cast<std::uint32_t>(u[3]) << 24);
  if (size < 1) fail("frame size 0 (a frame carries at least its kind byte)");
  if (size > kMaxFrameBytes) {
    fail("frame size " + std::to_string(size) + " exceeds the " +
         std::to_string(kMaxFrameBytes) + "-byte bound");
  }
  if (avail < 4u + size + 4u) return false;  // body + CRC not yet here

  const std::string_view body(buf_.data() + pos_ + 4, size);
  const auto* c =
      reinterpret_cast<const unsigned char*>(buf_.data() + pos_ + 4 + size);
  const std::uint32_t crc = static_cast<std::uint32_t>(c[0]) |
                            (static_cast<std::uint32_t>(c[1]) << 8) |
                            (static_cast<std::uint32_t>(c[2]) << 16) |
                            (static_cast<std::uint32_t>(c[3]) << 24);
  if (recovery::crc32(body) != crc) fail("CRC mismatch");

  try {
    validate(frame, body);  // throws without consuming on violation
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::exception& e) {
    // StateReader underflow ("truncated state") on a short payload.
    fail(std::string("malformed payload: ") + e.what());
  }
  pos_ += 4u + size + 4u;
  ++frames_;
  if (frame.kind == kFrameHello) saw_hello_ = true;
  if (frame.kind == kFrameJob) {
    last_release_ = frame.job.job.release;
    ++jobs_;
  }
  if (frame.kind == kFrameEnd) saw_end_ = true;
  return true;
}

void FrameDecoder::validate(Frame& frame, std::string_view payload) const {
  recovery::StateReader r(payload);
  const std::uint8_t kind = r.u8();
  if (saw_end_) fail("frame after End");
  switch (kind) {
    case kFrameHello: {
      if (saw_hello_) fail("duplicate Hello");
      frame.hello.version = r.u32();
      frame.hello.num_resources = r.u32();
      if (frame.hello.version != kProtocolVersion) {
        fail("protocol version " + std::to_string(frame.hello.version) +
             " (this daemon speaks " + std::to_string(kProtocolVersion) + ")");
      }
      if (frame.hello.num_resources != num_resources_) {
        fail("Hello declares " + std::to_string(frame.hello.num_resources) +
             " resources but the daemon is configured for " +
             std::to_string(num_resources_));
      }
      break;
    }
    case kFrameJob: {
      if (!saw_hello_) fail("Job before Hello");
      frame.job = decode_job_payload(r);
      if (frame.job.seq != jobs_) {
        fail("Job seq " + std::to_string(frame.job.seq) + " (expected " +
             std::to_string(jobs_) + "; duplicated or out-of-order frame)");
      }
      const Job& j = frame.job.job;
      if (j.demand.size() != num_resources_) {
        fail("Job declares " + std::to_string(j.demand.size()) +
             " demands for an R=" + std::to_string(num_resources_) +
             " daemon");
      }
      if (!std::isfinite(j.release) || j.release < 0.0) {
        fail("non-finite or negative release");
      }
      if (!std::isfinite(j.processing) || j.processing < 1.0) {
        fail("processing must be finite and >= 1 (the model's p_j >= 1 "
             "normalization)");
      }
      if (!std::isfinite(j.weight) || j.weight <= 0.0) {
        fail("weight must be finite and > 0");
      }
      double total_demand = 0.0;
      for (double d : j.demand) {
        if (!std::isfinite(d) || d < 0.0 || d > 1.0) {
          fail("demand out of [0, 1]");
        }
        total_demand += d;
      }
      if (total_demand <= 0.0) {
        fail("at least one resource demand must be positive");
      }
      if (j.release < last_release_) {
        fail("release " + std::to_string(j.release) +
             " regresses below the previous admission (streams are fed in "
             "release order)");
      }
      break;
    }
    case kFrameEnd: {
      if (!saw_hello_) fail("End before Hello");
      frame.end.jobs_sent = r.u64();
      if (frame.end.jobs_sent != jobs_) {
        fail("End claims " + std::to_string(frame.end.jobs_sent) +
             " jobs but " + std::to_string(jobs_) + " were framed");
      }
      break;
    }
    default:
      fail("unknown frame kind " + std::to_string(kind));
  }
  if (!r.done()) fail("trailing bytes inside frame payload");
  frame.kind = kind;
}

void FrameDecoder::finish() const {
  if (!saw_end_) {
    fail(saw_hello_ ? "stream truncated: EOF before End frame"
                    : "stream truncated: EOF before Hello frame");
  }
  if (pos_ != buf_.size()) fail("trailing bytes after End frame");
}

}  // namespace mris::serve

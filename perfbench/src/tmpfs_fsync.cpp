// The serve-durable workload is specified with its state directory on
// tmpfs, where fsync returns without a device flush, so that disk flush
// latency is not part of any metric.  The benchmark may only write inside
// its own checkout, which sits on an ordinary disk; this definition
// reproduces the tmpfs behaviour there.  It takes precedence over the C
// library's fsync for every call made from this executable (the library
// code is linked in statically), and it counts the calls.  Every write
// still reaches the page cache exactly as it would on tmpfs.
#include <unistd.h>

#include <cstdint>

namespace perfbench {
std::uint64_t g_fsync_calls = 0;
}  // namespace perfbench

extern "C" int fsync(int /*fd*/) {
  ++perfbench::g_fsync_calls;
  return 0;
}

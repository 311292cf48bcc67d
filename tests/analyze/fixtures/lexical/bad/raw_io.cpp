// Fixture: raw durable-IO calls outside src/sim/recovery/, each on a known
// line.  Never compiled — scanned by mris_analyze tests only.
#include <cstdio>
#include <unistd.h>

void persist(std::FILE* f, int fd, const char* p, unsigned long n) {
  std::fwrite(p, 1, n, f);  // line 7: raw-io (fwrite)
  ::fsync(fd);              // line 8: raw-io (fsync)
  ::fdatasync(fd);          // line 9: raw-io (fdatasync)
  ::pwrite(fd, p, n, 0);    // line 10: raw-io (pwrite)
  ::write(fd, p, n);        // line 11: raw-io (global-qualified write)
}

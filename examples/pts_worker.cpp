// pts_worker: one slave of the `--backend=proc` farm (DESIGN.md §8).
//
// Not run by hand — the master-side ProcSupervisor spawns one of these per
// slave with its socket on a known fd, sends a Hello frame (identity, seed,
// problem data), then assignments; the process exits when the link closes
// (EOF, or a kStop frame from the supervisor). Everything interesting lives in
// pts::parallel::run_worker; this file only parses --fd.

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "parallel/proc_backend.hpp"

int main(int argc, char** argv) {
  int fd = -1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--fd=", 5) == 0) {
      fd = std::atoi(argv[i] + 5);
    } else {
      std::fprintf(stderr, "pts_worker: unknown argument '%s'\n", argv[i]);
      return 64;
    }
  }
  if (fd < 0) {
    std::fprintf(stderr,
                 "usage: pts_worker --fd=N\n"
                 "Spawned by the pts proc backend; N is the fd of a connected\n"
                 "stream socket speaking the frame protocol of wire.hpp.\n");
    return 64;
  }
  return pts::parallel::run_worker(fd);
}

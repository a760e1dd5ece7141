// Replica subprocesses for the benchmark: spawned over a snapshot spool,
// found by their "replica serving on ADDR:PORT" banner, and stopped on
// every exit path — by the destructor, by the signal handler, and by the
// kernel (PR_SET_PDEATHSIG) should the benchmark itself die.

#ifndef PERFBENCH_FLEET_H_
#define PERFBENCH_FLEET_H_

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace perfbench {

class ReplicaProcess {
 public:
  ReplicaProcess() = default;
  ~ReplicaProcess() { Stop(); }
  ReplicaProcess(const ReplicaProcess&) = delete;
  ReplicaProcess& operator=(const ReplicaProcess&) = delete;

  /// Starts `binary --snapshot-dir=spool --workers=1` and waits for its
  /// banner. Returns an empty string on success, an error otherwise.
  std::string Start(const std::string& binary, const std::string& spool);
  /// Closes the replica's stdin (its shutdown signal) and reaps it, killing
  /// it after two seconds.
  void Stop();
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

/// Installs SIGINT/SIGTERM handlers that kill and reap every live replica
/// before the benchmark exits.
void InstallChildReaper();

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_H_

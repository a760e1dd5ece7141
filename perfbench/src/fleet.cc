#include "fleet.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace perfbench {

namespace {

// Live replica pids, readable from a signal handler.
std::array<std::atomic<pid_t>, 16> g_children{};

void Track(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
}

void Untrack(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

void KillChildrenAndExit(int signo) {
  for (auto& slot : g_children) {
    pid_t pid = slot.load();
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
  ::_exit(128 + signo);
}

}  // namespace

void InstallChildReaper() {
  struct sigaction action {};
  action.sa_handler = KillChildrenAndExit;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);
}

std::string ReplicaProcess::Start(const std::string& binary,
                                  const std::string& spool) {
  int to_child[2];
  int from_child[2];
  if (::pipe(to_child) != 0) return std::string("pipe: ") + std::strerror(errno);
  if (::pipe(from_child) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    return std::string("pipe: ") + std::strerror(errno);
  }
  std::string spool_flag = "--snapshot-dir=" + spool;
  pid_t parent = ::getpid();
  pid_t pid = ::fork();
  if (pid < 0) return std::string("fork: ") + std::strerror(errno);
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    ::execl(binary.c_str(), binary.c_str(), spool_flag.c_str(), "--workers=1",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  Track(pid);
  ::close(to_child[0]);
  ::close(from_child[1]);
  pid_ = pid;
  stdin_fd_ = to_child[1];
  stdout_fd_ = from_child[0];

  std::string banner;
  char c = 0;
  while (banner.find('\n') == std::string::npos) {
    ssize_t n = ::read(stdout_fd_, &c, 1);
    if (n <= 0) break;
    banner.push_back(c);
  }
  static constexpr const char* kPrefix = "127.0.0.1:";
  size_t at = banner.find(kPrefix);
  if (at != std::string::npos) {
    port_ = static_cast<uint16_t>(
        std::atoi(banner.c_str() + at + std::strlen(kPrefix)));
  }
  if (port_ == 0) {
    Stop();
    return "replica banner without a port: \"" + banner + "\"";
  }
  return "";
}

void ReplicaProcess::Stop() {
  if (pid_ < 0) return;
  if (stdin_fd_ >= 0) ::close(stdin_fd_);
  stdin_fd_ = -1;
  int status = 0;
  bool reaped = false;
  for (int spin = 0; spin < 200 && !reaped; ++spin) {
    reaped = ::waitpid(pid_, &status, WNOHANG) == pid_;
    if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!reaped) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  Untrack(pid_);
  pid_ = -1;
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
  port_ = 0;
}

}  // namespace perfbench

// Spawns the real gyo_serve binary, scrapes its port, and drains it with
// SIGTERM. Server-only CPU comes from wait4's rusage, peak RSS from the
// server's own /proc/PID/status.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "servebench.h"

namespace servebench {

namespace {

constexpr int kStartTimeoutMs = 30000;
constexpr int kDrainTimeoutMs = 60000;

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

// Reads from `fd` until `done` holds or the deadline passes; false on
// timeout. EOF ends the read too (the caller checks `done` itself).
template <typename Done>
bool ReadUntil(int fd, std::string* buffer, int timeout_ms, Done done) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!done(*buffer)) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return true;  // EOF
    buffer->append(chunk, static_cast<size_t>(n));
  }
  return true;
}

}  // namespace

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

bool ServerProcess::Start(const std::string& binary, std::string* error) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  const std::string threads = std::to_string(kServerThreads);
  const std::string slots = std::to_string(kServerSlots);
  const char* argv[] = {binary.c_str(),
                        "--threads",
                        threads.c_str(),
                        "--max-concurrent-queries",
                        slots.c_str(),
                        nullptr};
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec. The server dies with
    // the driver, so a crashed run leaves no process behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(binary.c_str(), const_cast<char* const*>(argv));
    ::_exit(127);
  }
  ::close(fds[1]);
  pid_ = pid;
  out_fd_ = fds[0];

  std::string out;
  const char* kPrefix = "listening on ";
  auto has_line = [&](const std::string& s) {
    const size_t at = s.find(kPrefix);
    return at != std::string::npos && s.find('\n', at) != std::string::npos;
  };
  if (!ReadUntil(out_fd_, &out, kStartTimeoutMs, has_line) || !has_line(out)) {
    *error = "gyo_serve did not report its port: '" + out + "'";
    return false;
  }
  const size_t at = out.find(kPrefix);
  const size_t colon = out.rfind(':', out.find('\n', at));
  port_ = colon == std::string::npos ? 0 : std::atoi(out.c_str() + colon + 1);
  if (port_ <= 0) {
    *error = "cannot parse the port from '" + out + "'";
    return false;
  }
  return true;
}

double ServerProcess::CpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

bool ServerProcess::Stop(ServerExit* exit, std::string* error) {
  *exit = ServerExit();
  if (pid_ <= 0) {
    *error = "server not running";
    return false;
  }
  // Peak RSS comes from VmHWM, which covers only the image gyo_serve runs.
  // wait4's ru_maxrss would also count the driver's pages that the child
  // held between fork and exec.
  std::ifstream status_file("/proc/" + std::to_string(pid_) + "/status");
  for (std::string line; std::getline(status_file, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      exit->max_rss_mib = std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  ::kill(pid_, SIGTERM);
  std::string out;
  const bool drained = ReadUntil(out_fd_, &out, kDrainTimeoutMs,
                                 [](const std::string&) { return false; });
  if (!drained) ::kill(pid_, SIGKILL);
  int status = 0;
  rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  ::close(out_fd_);
  out_fd_ = -1;
  exit->cpu_seconds =
      TimevalSeconds(usage.ru_utime) + TimevalSeconds(usage.ru_stime);
  exit->clean = drained && WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                out.find("drained:") != std::string::npos;
  if (!exit->clean) {
    *error = "gyo_serve drain failed (status " + std::to_string(status) +
             "): '" + out + "'";
  }
  return exit->clean;
}

}  // namespace servebench

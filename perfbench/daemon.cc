#include "daemon.hh"

#include <dirent.h>
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

extern char **environ;

namespace perfbench {

using dejavu::fatal;
using dejavu::serving::WireFrame;

Daemon::Daemon(const std::vector<std::string> &argv,
               const std::string &stdoutPath,
               const std::string &stderrPath)
{
    int in[2];
    if (::pipe2(in, O_CLOEXEC) != 0)
        fatal("pipe2: ", std::strerror(errno));
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in[0], 0);
    posix_spawn_file_actions_addopen(&actions, 1, stdoutPath.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&actions, 2, stderrPath.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::vector<char *> args;
    for (const std::string &arg : argv)
        args.push_back(const_cast<char *>(arg.c_str()));
    args.push_back(nullptr);
    const int rc = posix_spawn(&_pid, args[0], &actions, nullptr,
                               args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(in[0]);
    if (rc != 0) {
        ::close(in[1]);
        fatal("cannot start ", argv[0], ": ", std::strerror(rc));
    }
    _stdinFd = in[1];
}

Daemon::~Daemon()
{
    if (_pid <= 0)
        return;
    if (_stdinFd >= 0)
        ::close(_stdinFd);
    ::kill(_pid, SIGKILL);
    int status = 0;
    while (::waitpid(_pid, &status, 0) < 0 && errno == EINTR) {
    }
}

std::uint64_t
Daemon::peakRssBytes() const
{
    std::ifstream in("/proc/" + std::to_string(_pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            std::uint64_t kib = 0;
            fields >> kib;
            return kib * 1024;
        }
    }
    return 0;
}

bool
Daemon::shutdown()
{
    ::close(_stdinFd);
    _stdinFd = -1;
    int status = 0;
    while (::waitpid(_pid, &status, 0) < 0) {
        if (errno != EINTR)
            fatal("waitpid: ", std::strerror(errno));
    }
    _pid = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

Connection::Connection(const std::string &path, double timeoutSec)
{
    sockaddr_un addr{};
    if (path.size() >= sizeof addr.sun_path)
        fatal("socket path too long: ", path);
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    timespec start{};
    ::clock_gettime(CLOCK_MONOTONIC, &start);
    for (;;) {
        _fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (_fd < 0)
            fatal("socket: ", std::strerror(errno));
        if (::connect(_fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof addr) == 0)
            return;
        ::close(_fd);
        _fd = -1;
        timespec now{};
        ::clock_gettime(CLOCK_MONOTONIC, &now);
        if (static_cast<double>(now.tv_sec - start.tv_sec)
                + 1e-9 * static_cast<double>(now.tv_nsec - start.tv_nsec)
            > timeoutSec)
            fatal("dejavud did not listen on ", path, " within ",
                  timeoutSec, " s");
        ::usleep(200);
    }
}

Connection::~Connection()
{
    if (_fd >= 0)
        ::close(_fd);
}

void
Connection::queue(const WireFrame &frame)
{
    dejavu::serving::appendFramed(_out, frame);
}

void
Connection::flush()
{
    const std::uint8_t *data = _out.data();
    std::size_t size = _out.size();
    while (size > 0) {
        const ssize_t n = ::write(_fd, data, size);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            fatal("write to dejavud failed: ", std::strerror(errno));
        data += n;
        size -= static_cast<std::size_t>(n);
    }
    _out.clear();
}

void
Connection::receive(WireFrame &frame)
{
    for (;;) {
        if (std::optional<WireFrame> next = _reader.next()) {
            frame = std::move(*next);
            return;
        }
        if (_reader.error())
            fatal("framing error on the dejavud connection");
        std::uint8_t buffer[16384];
        const ssize_t n = ::read(_fd, buffer, sizeof buffer);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            fatal("dejavud closed the connection");
        _reader.feed(buffer, static_cast<std::size_t>(n));
    }
}

std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (::sched_getaffinity(0, sizeof set, &set) != 0)
        return cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set))
            cpus.push_back(cpu);
    }
    return cpus;
}

void
pinThread(pid_t tid, const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int cpu : cpus)
        CPU_SET(cpu, &set);
    // A thread may exit between listing and pinning; that is not an
    // error worth failing the run for.
    (void)::sched_setaffinity(tid, sizeof set, &set);
}

std::vector<pid_t>
threadsOf(pid_t pid)
{
    std::vector<pid_t> tids;
    const std::string dir = "/proc/" + std::to_string(pid) + "/task";
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return tids;
    while (dirent *entry = ::readdir(d)) {
        if (entry->d_name[0] >= '0' && entry->d_name[0] <= '9')
            tids.push_back(static_cast<pid_t>(std::atoi(entry->d_name)));
    }
    ::closedir(d);
    return tids;
}

} // namespace perfbench

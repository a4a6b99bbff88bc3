/**
 * @file
 * The benchmark's handle on a `dejavud` child process and its AF_UNIX
 * connections, plus CPU pinning of the benchmark's own threads.
 *
 * The daemon is the real binary, started with posix_spawn: its stdin
 * is a pipe the benchmark holds (closing it shuts the daemon down),
 * its stdout (the --report dump) and stderr go to files in the run's
 * output directory. The destructor always reaps the child, killing it
 * first if it has not exited.
 */

#ifndef PERFBENCH_DAEMON_HH
#define PERFBENCH_DAEMON_HH

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "serving/wire.hh"

namespace perfbench {

class Daemon
{
  public:
    /** Spawn @p argv (argv[0] is the binary path); fatal on failure. */
    Daemon(const std::vector<std::string> &argv,
           const std::string &stdoutPath,
           const std::string &stderrPath);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    pid_t pid() const { return _pid; }

    /** Peak resident set of the daemon (VmHWM), in bytes. */
    std::uint64_t peakRssBytes() const;

    /** Close stdin, wait for exit; true when it exited with 0. */
    bool shutdown();

  private:
    pid_t _pid = -1;
    int _stdinFd = -1;
};

/**
 * One AF_UNIX stream connection speaking the dejavud wire format.
 * Unlike serving::SocketClient, which writes each frame on its own,
 * frames are queued and flushed in one write, so a pipelined window of
 * requests costs one system call.
 */
class Connection
{
  public:
    /** Connect to @p path, retrying until @p timeoutSec elapses. */
    Connection(const std::string &path, double timeoutSec);
    ~Connection();

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /** Append one framed message to the pending output. */
    void queue(const dejavu::serving::WireFrame &frame);
    /** Write all pending output; fatal on a broken connection. */
    void flush();
    /** Block for the next frame; fatal on EOF or framing error. */
    void receive(dejavu::serving::WireFrame &frame);

  private:
    int _fd = -1;
    std::vector<std::uint8_t> _out;
    dejavu::serving::FrameReader _reader;
};

/** CPUs this process may run on. */
std::vector<int> allowedCpus();

/** Restrict thread @p tid (0 = calling thread) to @p cpus. */
void pinThread(pid_t tid, const std::vector<int> &cpus);

/** Every thread of process @p pid. */
std::vector<pid_t> threadsOf(pid_t pid);

} // namespace perfbench

#endif // PERFBENCH_DAEMON_HH

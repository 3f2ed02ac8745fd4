// Graceful SIGINT/SIGTERM shutdown for the long-running subcommands
// (`mbcr fuzz`, measurement campaigns, TAC, `mbcr sweep`/`worker`).
//
// The handler only sets a lock-free flag; long loops poll it at natural
// claim points (fuzz: between cases; campaigns: between chunk claims;
// TAC: per conflict group evaluated; supervisor: each scheduling pass)
// and wind down instead of dying mid-write: no new work is claimed,
// partial corpus/journal state is flushed by the code that owns it, and
// the process exits with the conventional 128+signal code (130 for
// SIGINT, 143 for SIGTERM) so scripts can tell an interrupted run from a
// failed one (1), a usage error (2) or a partial sweep (3).
#pragma once

#include <stdexcept>

namespace mbcr::util {

/// Installs the SIGINT/SIGTERM handlers (idempotent). Call once from the
/// front-end before long-running work starts.
void install_shutdown_handlers();

/// Signal number of the first shutdown request, or 0 when none arrived.
int shutdown_signal() noexcept;

inline bool shutdown_requested() noexcept { return shutdown_signal() != 0; }

/// The conventional exit code for the received signal (128 + sig), or 0.
int shutdown_exit_code() noexcept;

/// Clears the flag (tests; also lets a supervisor distinguish a second
/// Ctrl-C from the first).
void reset_shutdown() noexcept;

/// Thrown from deep loops (the campaign chunk claim) to unwind to the
/// front-end, which turns it into the 128+sig exit. Carries the signal.
class ShutdownRequested : public std::runtime_error {
public:
  explicit ShutdownRequested(int sig)
      : std::runtime_error(sig == 15 ? "interrupted by SIGTERM"
                                     : "interrupted by SIGINT"),
        signal_(sig) {}
  int signal() const noexcept { return signal_; }
  int exit_code() const noexcept { return 128 + signal_; }

private:
  int signal_;
};

/// Throws ShutdownRequested when a shutdown signal has arrived. The
/// campaign engine calls this between chunk claims, so any convergence
/// loop or measure campaign stops within one grain of work.
void throw_if_shutdown();

}  // namespace mbcr::util

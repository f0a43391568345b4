#ifndef TPIIN_CLI_CLI_H_
#define TPIIN_CLI_CLI_H_

#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace tpiin {

/// The `tpiin` command-line tool, as a library so every command is unit
/// testable. The commands and their flags are listed once, in
/// CliUsage() (`tpiin help`); the serve verbs once, in kServeVerbs
/// (serve/protocol.h).
///
/// `RunCli` dispatches argv and writes human-readable output to `out`;
/// errors are reported on the returned Status (the binary prints them to
/// stderr and exits non-zero).
///
/// When `exit_code` is non-null it receives the process exit code:
///   0  success
///   1  error (the returned Status is non-OK)
///   2  completed, but degraded — a RunBudget limit bound (deadline hit
///      or subTPIINs skipped by a cap) and the results are partial.
Status RunCli(const std::vector<std::string>& args, std::ostream& out,
              int* exit_code = nullptr);

/// Renders the top-level usage text.
std::string CliUsage();

}  // namespace tpiin

#endif  // TPIIN_CLI_CLI_H_

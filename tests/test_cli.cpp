// Flag discipline of the `spatl` CLI: every subcommand rejects a flag
// outside its accepted list (tools/cli_flags.hpp) with an `error:` line and
// exit code 1, accepts every flag on the list, and the lists match the
// flags each subcommand actually reads in tools/spatl_cli.cpp.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <string>

#include "cli_flags.hpp"

namespace spatl {
namespace {

struct Outcome {
  int exit_code = -1;
  std::string output;  // stdout and stderr
};

Outcome run_cli(const std::string& args) {
  const std::string cmd = std::string(SPATL_CLI) + " " + args + " 2>&1";
  Outcome out;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return out;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out.output += buf;
  const int status = pclose(pipe);
  if (WIFEXITED(status)) out.exit_code = WEXITSTATUS(status);
  return out;
}

TEST(CliFlags, MisspeltInputSizeFailsInsteadOfTraining) {
  const Outcome r = run_cli("train --algo fedavg --rounds 1 --clients 2 "
                            "--arch cnn2 --input-size 16 --width 0.25");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("error: unknown flag --input-size"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("round "), std::string::npos)
      << "no round may run: " << r.output;
}

TEST(CliFlags, EverySubcommandRejectsAnUnknownFlag) {
  for (const auto& [sub, accepted] : cli::subcommand_flags()) {
    const Outcome r = run_cli(sub + " --no-such-flag 1");
    EXPECT_EQ(r.exit_code, 1) << sub << ": " << r.output;
    EXPECT_NE(r.output.find("error: unknown flag --no-such-flag"),
              std::string::npos)
        << sub << ": " << r.output;
  }
}

TEST(CliFlags, EveryListedFlagIsAccepted) {
  // An unknown --arch stops each subcommand right after the flag check,
  // before any work, with its own error line.
  for (const auto& [sub, accepted] : cli::subcommand_flags()) {
    const std::string base = sub + (sub == "evaluate" ? " --ckpt unused" : "") +
                             " --arch no-such-arch";
    for (const std::string& flag : accepted) {
      if (flag == "arch" || flag == "ckpt") continue;
      const std::string value = flag == "backend" ? "scalar" : "1";
      const Outcome r = run_cli(base + " --" + flag + " " + value);
      EXPECT_EQ(r.exit_code, 1) << sub << " --" << flag << ": " << r.output;
      EXPECT_NE(r.output.find("error: unknown --arch no-such-arch"),
                std::string::npos)
          << sub << " --" << flag << ": " << r.output;
    }
  }
}

TEST(CliFlags, AlgorithmsWithoutTheResiliencePathRefuseItsOptions) {
  // Their run_round never delivers, vets or robustly combines uplinks, so
  // these options would otherwise be accepted and silently ignored.
  for (const char* algo :
       {"fedavgm", "fedadam", "fedavg+topk", "fedavg+int8"}) {
    for (const char* option :
         {"--fault-corruption 1.0", "--aggregator median"}) {
      const Outcome r =
          run_cli(std::string("train --algo ") + algo +
                  " --rounds 1 --clients 2 --arch cnn2 --input 8 "
                  "--width 0.25 " + option);
      EXPECT_EQ(r.exit_code, 1) << algo << " " << option << ": " << r.output;
      EXPECT_NE(r.output.find("error: "), std::string::npos)
          << algo << " " << option << ": " << r.output;
      EXPECT_EQ(r.output.find("round "), std::string::npos)
          << algo << " " << option << " ran a round: " << r.output;
    }
  }
}

/// The text of the function whose definition starts with `head`.
std::string function_body(const std::string& src, const std::string& head) {
  const std::size_t begin = src.find(head);
  if (begin == std::string::npos) return {};
  const std::size_t end = src.find("\n}\n", begin);
  return src.substr(begin, end == std::string::npos ? std::string::npos
                                                    : end - begin);
}

/// Names passed as string literals to flags.get / get_int / get_double /
/// get_bool / has in `code`.
std::set<std::string> flags_read(const std::string& code) {
  static const char* const kGetters[] = {"get(", "get_int(", "get_double(",
                                         "get_bool(", "has("};
  std::set<std::string> names;
  for (std::size_t at = code.find("flags."); at != std::string::npos;
       at = code.find("flags.", at + 1)) {
    const std::size_t call = at + 6;
    for (const char* getter : kGetters) {
      if (code.compare(call, std::strlen(getter), getter) != 0) continue;
      std::size_t q = call + std::strlen(getter);
      while (q < code.size() &&
             std::isspace(static_cast<unsigned char>(code[q])) != 0) {
        ++q;
      }
      const std::size_t end =
          q < code.size() && code[q] == '"' ? code.find('"', q + 1)
                                            : std::string::npos;
      if (end != std::string::npos) {
        names.insert(code.substr(q + 1, end - q - 1));
      }
      break;
    }
  }
  return names;
}

TEST(CliFlags, ListsMatchTheFlagsEachSubcommandReads) {
  std::ifstream in(std::string(SPATL_REPO_ROOT) + "/tools/spatl_cli.cpp");
  ASSERT_TRUE(in) << "cannot read tools/spatl_cli.cpp";
  const std::string src((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const std::set<std::string> model_flags =
      flags_read(function_body(src, "models::ModelConfig model_config("));
  ASSERT_FALSE(model_flags.empty());
  for (const auto& [sub, accepted] : cli::subcommand_flags()) {
    const std::string body = function_body(src, "int cmd_" + sub + "(");
    ASSERT_FALSE(body.empty()) << "no cmd_" << sub;
    std::set<std::string> read = flags_read(body);
    if (body.find("model_config(flags)") != std::string::npos) {
      read.insert(model_flags.begin(), model_flags.end());
    }
    read.insert("backend");  // main() applies --backend to every subcommand
    EXPECT_EQ(std::set<std::string>(accepted.begin(), accepted.end()), read)
        << sub;
  }
}

}  // namespace
}  // namespace spatl

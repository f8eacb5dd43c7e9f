// Bad fabric and scheduler options through the CLI: each must exit 2 with
// exactly one "option --<name>: ..." line on stderr — the contract --topo
// and the numeric getters keep — never abort on a library assertion or
// quietly run something other than what was asked.  Every network/soak
// case carries a short --cycles so a regression that accepts the option
// still finishes quickly.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

namespace {

struct CliCase {
  std::string args;
  std::string option;  // the option the stderr line must name
};

TEST(CliOptions, BadFabricAndSchedulerOptionsExit2WithOneLine) {
  const std::vector<CliCase> cases = {
      {"network --cycles 100 --vcs 0", "vcs"},
      {"network --cycles 100 --vcs 13", "vcs"},
      {"network --cycles 100 --topo torus4x4 --vcs 1", "vcs"},
      {"network --cycles 100 --arbiter bogus", "arbiter"},
      {"network --cycles 100 --flow-control=onoff --on-low 8", "on-low"},
      {"run --cycles 100 --scheduler bogus", "scheduler"},
      {"compare --cycles 100 --schedulers err,bogus", "schedulers"},
      {"soak --cycles 100 --vcs 0", "vcs"},
      {"soak --cycles 100 --arbiter nope", "arbiter"},
      {"network --cycles 100 --pattern bogus", "pattern"},
      {"soak --cycles 100 --pattern bogus", "pattern"},
      {"network --cycles 100 --vcs 4294967297", "vcs"},
      {"network --cycles 100 --buffers 5000000000", "buffers"},
  };
  const std::string err_path = testing::TempDir() + "cli_options_stderr.txt";
  for (const CliCase& c : cases) {
    const std::string command = std::string(WS_CLI) + " " + c.args +
                                " > /dev/null 2> " + err_path;
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << c.args;
    EXPECT_EQ(WEXITSTATUS(status), 2) << c.args;
    std::ifstream err(err_path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(err, line);) lines.push_back(line);
    ASSERT_EQ(lines.size(), 1u) << c.args;
    EXPECT_EQ(lines[0].rfind("option --" + c.option + ": ", 0), 0u)
        << c.args << ": " << lines[0];
  }
  // Control: the same harness sees a valid torus run exit 0.
  const std::string control = std::string(WS_CLI) +
                              " network --cycles 50 --topo torus4x4 --vcs 2"
                              " > /dev/null 2>&1";
  const int status = std::system(control.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  std::remove(err_path.c_str());
}

}  // namespace

// Golden tests for the trace exporters and run manifests: the Chrome JSON
// and timeline CSV renderings are deterministic for a given event
// sequence, so small sinks can be compared byte-for-byte.
#include "obs/trace_export.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/manifest.hpp"

namespace wormsched::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(ChromeTrace, GoldenTwoEventWindow) {
  TraceSink sink;
  sink.record(TraceEvent::packet_enqueue(5, /*flow=*/1, /*packet=*/9, 4));
  sink.record(TraceEvent::flit_eject(8, /*node=*/3, /*flow=*/1, /*packet=*/9,
                                     /*index=*/3, /*tail=*/true,
                                     /*latency=*/12.0));
  std::ostringstream os;
  write_chrome_trace(os, sink);
  EXPECT_EQ(os.str(),
            "{\"traceEvents\":[\n"
            "{\"name\":\"packet_enqueue\",\"cat\":\"sched\",\"ph\":\"i\","
            "\"s\":\"t\",\"ts\":5,\"pid\":0,\"tid\":1,"
            "\"args\":{\"packet\":9,\"length\":4}},\n"
            "{\"name\":\"flit_eject\",\"cat\":\"net\",\"ph\":\"i\","
            "\"s\":\"t\",\"ts\":8,\"pid\":0,\"tid\":3,"
            "\"args\":{\"flow\":1,\"packet\":9,\"index\":3,\"tail\":true,"
            "\"latency\":12}}\n"
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{"
            "\"tool\":\"wormsched\",\"recorded\":2,\"dropped\":0,"
            "\"filtered\":0}}\n");
}

TEST(ChromeTrace, SchedulerEventsUseFlowTrackFabricEventsNodeTrack) {
  TraceSink sink;
  sink.record(TraceEvent::opportunity(1, /*flow=*/6, /*round=*/2, 3.0, 1.0,
                                      /*node=*/9, /*unit=*/4));
  sink.record(TraceEvent::router_stall(2, /*node=*/9, /*port=*/1));
  std::ostringstream os;
  write_chrome_trace(os, sink);
  const std::string out = os.str();
  // The opportunity rides the flow track even though it carries a node...
  EXPECT_NE(out.find("\"name\":\"opportunity\",\"cat\":\"sched\",\"ph\":\"i\","
                     "\"s\":\"t\",\"ts\":1,\"pid\":0,\"tid\":6"),
            std::string::npos)
      << out;
  // ...while the stall rides the node track.
  EXPECT_NE(out.find("\"name\":\"router_stall\",\"cat\":\"net\",\"ph\":\"i\","
                     "\"s\":\"t\",\"ts\":2,\"pid\":0,\"tid\":9"),
            std::string::npos)
      << out;
}

TEST(ChromeTrace, ViolationEmbedsEscapedNoteText) {
  TraceSink sink;
  const std::uint32_t idx = sink.note("sc_monotone: \"max\" went\nbackwards");
  sink.record(TraceEvent::violation(3, idx));
  std::ostringstream os;
  write_chrome_trace(os, sink);
  EXPECT_NE(os.str().find("{\"detail\":\"sc_monotone: \\\"max\\\" "
                          "went\\nbackwards\"}"),
            std::string::npos)
      << os.str();
}

TEST(TimelineCsv, GoldenServiceRows) {
  TraceSink sink;
  sink.record(TraceEvent::packet_enqueue(1, 0, 100, 3));
  sink.record(TraceEvent::opportunity(4, 0, /*round=*/2, 3.0, 1.0));
  sink.record(TraceEvent::packet_dequeue(4, 0, 100, 3, /*allowance=*/2.5,
                                         /*surplus=*/1.0));
  // Non-service events are omitted; non-tail ejects are omitted.
  sink.record(TraceEvent::router_stall(5, 1, 0));
  sink.record(TraceEvent::flit_eject(6, 2, 0, 100, 2, /*tail=*/false, 0.0));
  sink.record(TraceEvent::flit_eject(7, 2, 0, 100, 3, /*tail=*/true, 6.0));
  std::ostringstream os;
  write_service_timeline_csv(os, sink);
  EXPECT_EQ(os.str(),
            "cycle,event,flow,node,id,units,allowance,surplus\n"
            "1,packet_enqueue,0,0,100,3,0,0\n"
            "4,opportunity,0,0,2,0,3,1\n"
            "4,packet_dequeue,0,0,100,3,2.5,1\n"
            "7,flit_eject,0,2,100,1,6,0\n");
}

TEST(ExportTrace, WritesOnlyRequestedFiles) {
  TraceSink sink;
  sink.record(TraceEvent::round_boundary(1, 1, 0.0));
  const std::string dir = ::testing::TempDir();
  TraceRequest request;
  request.chrome_path = dir + "/ws_export_test.json";
  EXPECT_TRUE(request.enabled());
  export_trace(request, sink);
  const std::string json = slurp(request.chrome_path);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"round\""), std::string::npos);
  std::remove(request.chrome_path.c_str());

  TraceRequest none;
  EXPECT_FALSE(none.enabled());
  export_trace(none, sink);  // no paths, no files, no throw
}

TEST(ExportTrace, UnwritablePathThrows) {
  TraceSink sink;
  TraceRequest request;
  request.chrome_path = "/nonexistent-dir/trace.json";
  EXPECT_THROW(export_trace(request, sink), std::runtime_error);
}

TEST(WithSeedSuffix, InsertsBeforeExtension) {
  EXPECT_EQ(with_seed_suffix("trace.json", 3), "trace.seed3.json");
  EXPECT_EQ(with_seed_suffix("out/timeline.csv", 0), "out/timeline.seed0.csv");
  EXPECT_EQ(with_seed_suffix("noext", 2), "noext.seed2");
  // A dot in a directory name is not an extension.
  EXPECT_EQ(with_seed_suffix("run.v2/trace", 1), "run.v2/trace.seed1");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(json_escape(std::string("\x01", 1)), "\\u0001");
}

TEST(RunManifest, GoldenJson) {
  RunManifest m;
  m.tool = "wormsched network";
  m.git_sha = "abc123";
  m.seed = 7;
  m.add_config("cycles", "2000");
  m.add_config("topo", "mesh8x8");
  m.add_counter("delivered_packets", 4721);
  m.add_counter("mean_latency", 18.25);
  m.violations = 2;
  m.trace_path = "trace.json";
  m.trace_recorded = 65536;
  m.trace_dropped = 12;
  std::ostringstream os;
  m.write(os);
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"schema\": \"wormsched-manifest-v1\",\n"
            "  \"tool\": \"wormsched network\",\n"
            "  \"git_sha\": \"abc123\",\n"
            "  \"seed\": 7,\n"
            "  \"config\": {\n"
            "    \"cycles\": \"2000\",\n"
            "    \"topo\": \"mesh8x8\"\n"
            "  },\n"
            "  \"counters\": {\n"
            "    \"delivered_packets\": 4721,\n"
            "    \"mean_latency\": 18.25\n"
            "  },\n"
            "  \"violations\": 2,\n"
            "  \"trace\": {\"path\": \"trace.json\", \"recorded\": 65536, "
            "\"dropped\": 12}\n"
            "}\n");
}

TEST(RunManifest, EmptySectionsAndNullTrace) {
  RunManifest m;
  m.tool.assign(1, 't');
  m.git_sha.assign(1, 'x');
  std::ostringstream os;
  m.write(os);
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"schema\": \"wormsched-manifest-v1\",\n"
            "  \"tool\": \"t\",\n"
            "  \"git_sha\": \"x\",\n"
            "  \"seed\": 0,\n"
            "  \"config\": {},\n"
            "  \"counters\": {},\n"
            "  \"violations\": 0,\n"
            "  \"trace\": null\n"
            "}\n");
}

TEST(RunManifest, DefaultGitShaIsNeverEmpty) {
  RunManifest m;  // picks up current_git_sha()
  EXPECT_FALSE(m.git_sha.empty());
}

TEST(RunManifest, GitShaHonorsEnvOverride) {
  ::setenv("WORMSCHED_GIT_SHA", "deadbeef", 1);
  EXPECT_EQ(current_git_sha(), "deadbeef");
  ::unsetenv("WORMSCHED_GIT_SHA");
}

TEST(RunManifest, GitShaResolvesOncePerProcessAndEnvStillWins) {
  const char* pinned = std::getenv("WORMSCHED_GIT_SHA");
  const std::string saved = pinned != nullptr ? pinned : "";
  ::unsetenv("WORMSCHED_GIT_SHA");
  const std::string first = current_git_sha();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(current_git_sha(), first);
  ::setenv("WORMSCHED_GIT_SHA", "cafef00d", 1);
  EXPECT_EQ(current_git_sha(), "cafef00d");
  ::unsetenv("WORMSCHED_GIT_SHA");
  EXPECT_EQ(current_git_sha(), first);
  if (!saved.empty()) ::setenv("WORMSCHED_GIT_SHA", saved.c_str(), 1);
}

TEST(RunManifest, FileWriteRoundTrips) {
  RunManifest m;
  m.tool.assign(1, 't');
  const std::string path = ::testing::TempDir() + "/ws_manifest_test.json";
  m.write_file(path);
  EXPECT_NE(slurp(path).find("wormsched-manifest-v1"), std::string::npos);
  std::remove(path.c_str());
  EXPECT_THROW(m.write_file("/nonexistent-dir/m.json"), std::runtime_error);
}

}  // namespace
}  // namespace wormsched::obs

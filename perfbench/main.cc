// perfbench: one workload of the lossyts end-to-end benchmark per run.
//
//   perfbench --workload sweep|grid|serve --seed N --seconds S --trace 0|1
//             --run-dir DIR --digest-dir DIR [--source-id ID]
//             [--write-digest PATH]
//
// Prints a human-readable report, then one line "RESULT {json}" with the
// gate verdict, op counts, every metric with its unit and sample count, and
// the run record. Exit status 1 when an output gate failed, 2 on bad usage.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/simd.h"
#include "workloads/common.h"

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload sweep|grid|serve --seed N "
               "--seconds S --trace 0|1 --run-dir DIR --digest-dir DIR "
               "[--source-id ID] [--write-digest PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  std::string source_id = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--run-dir") {
      args.run_dir = value;
    } else if (flag == "--digest-dir") {
      args.digest_dir = value;
    } else if (flag == "--source-id") {
      source_id = value;
    } else if (flag == "--write-digest") {
      args.write_digest = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.run_dir.empty() || args.digest_dir.empty() ||
      !(args.seconds > 0)) {
    return Usage();
  }

  perfbench::RunResult result;
  const double fsync_ms = perfbench::MeasureFsyncMs(args.run_dir);
  if (args.workload == "sweep") {
    perfbench::RunSweep(args, result);
  } else if (args.workload == "grid") {
    perfbench::RunGridWorkload(args, result);
  } else if (args.workload == "serve") {
    perfbench::RunServe(args, result);
  } else {
    return Usage();
  }
  if (!args.trace) {
    result.Add("peak_rss_mb", "MB", perfbench::PeakRssMb(), 1);
    result.Add("failed_ratio", "ratio", result.ops.FailedRatio(),
               result.ops.attempted());
    result.Add("env.fsync_ms", "ms", fsync_ms, 20);
  }

  const long cores = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("== perfbench %s seed %llu trace %d (%s build, SIMD %s, %ld "
              "cores, source %s)\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, PERFBENCH_BUILD_TYPE,
              lossyts::simd::LevelName(lossyts::simd::ActiveLevel()), cores,
              source_id.c_str());
  for (const std::string& line : result.notes()) {
    std::printf("%s\n", line.c_str());
  }
  for (const auto& [type, entry] : result.ops.entries()) {
    std::printf("ops %-12s attempted %llu failed %llu refused %llu\n",
                type.c_str(), static_cast<unsigned long long>(entry.attempted),
                static_cast<unsigned long long>(entry.failed),
                static_cast<unsigned long long>(entry.refused));
  }
  for (const perfbench::Metric& m : result.metrics()) {
    std::printf("metric %-36s %20.6f %-8s samples %llu\n", m.name.c_str(),
                m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  for (const std::string& error : result.errors()) {
    std::printf("GATE FAILED: %s\n", error.c_str());
  }

  std::string json = "{\"correct\":";
  json += result.correct() ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(result.ops.attempted());
  json += ",\"failed\":" + std::to_string(result.ops.failed());
  json += ",\"metrics\":{";
  for (size_t i = 0; i < result.metrics().size(); ++i) {
    const perfbench::Metric& m = result.metrics()[i];
    json += (i ? "," : "") + JsonString(m.name) + ":{\"value\":" +
            perfbench::FormatG17(m.value) + ",\"unit\":" + JsonString(m.unit) +
            ",\"samples\":" + std::to_string(m.samples) + "}";
  }
  json += "},\"record\":{\"workload\":" + JsonString(args.workload) +
          ",\"seed\":" + std::to_string(args.seed) +
          ",\"trace\":" + (args.trace ? "1" : "0") +
          ",\"seconds\":" + perfbench::FormatG17(args.seconds) +
          ",\"source\":" + JsonString(source_id) +
          ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
          ",\"simd\":" +
          JsonString(lossyts::simd::LevelName(lossyts::simd::ActiveLevel())) +
          ",\"nproc\":" + std::to_string(cores) +
          ",\"env.fsync_ms\":" + perfbench::FormatG17(fsync_ms) +
          "},\"errors\":[";
  for (size_t i = 0; i < result.errors().size(); ++i) {
    json += (i ? "," : "") + JsonString(result.errors()[i]);
  }
  json += "]}";
  std::printf("RESULT %s\n", json.c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}

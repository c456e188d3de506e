// lsmcol_e2e: runs one workload of the end-to-end benchmark in this
// process and writes its result file.
//
//   lsmcol_e2e --workload W --seed S --out PATH [--seconds T] [--scale F]
//              [--setups K] [--dir DIR] [--trace PATH]
//
// W is one of sensors_scan, tweet_cold_scan, wos_ingest, tweet2_mixed.
// --trace PATH turns span recording on and writes the spans there as
// Chrome trace-event JSON; the result file then carries the per-layer
// metrics too. The exit status is 0 when the run completed and every
// check passed, 1 when an operation or check failed, 2 on a usage error
// or a run that could not complete.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench/e2e/e2e.h"

namespace lsmcol::e2e {
namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: lsmcol_e2e --workload "
               "sensors_scan|tweet_cold_scan|wos_ingest|tweet2_mixed\n"
               "       --seed S --out PATH [--seconds T] [--scale F]\n"
               "       [--setups K] [--dir DIR] [--trace PATH]\n");
}

bool ParseArgs(int argc, char** argv, Config* config) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config->workload = value;
    } else if (arg == "--seed") {
      config->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config->seconds = std::atof(value.c_str());
    } else if (arg == "--scale") {
      config->scale = std::atof(value.c_str());
    } else if (arg == "--setups") {
      config->setups = std::atoi(value.c_str());
    } else if (arg == "--dir") {
      config->dir = value;
    } else if (arg == "--trace") {
      config->trace_path = value;
    } else if (arg == "--out") {
      config->out_path = value;
    } else {
      return false;
    }
  }
  return !config->workload.empty() && !config->out_path.empty() &&
         config->seconds > 0 && config->scale > 0 && config->setups > 0;
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool WriteResult(const RunContext& ctx, bool correct, const std::string& path) {
  const Config& c = ctx.config;
  std::string out = "{\n";
  out += "  \"workload\": " + Quoted(c.workload) + ",\n";
  out += "  \"seed\": " + std::to_string(c.seed) + ",\n";
  out += "  \"scale\": " + Number(c.scale) + ",\n";
  out += "  \"seconds\": " + Number(c.seconds) + ",\n";
  out += "  \"traced\": " + std::string(c.traced() ? "true" : "false") + ",\n";
  out += "  \"build_type\": " + Quoted(LSMCOL_E2E_BUILD_TYPE) + ",\n";
  out += "  \"correct\": " + std::string(correct ? "true" : "false") + ",\n";
  out += "  \"attempted\": " + std::to_string(ctx.ledger.attempted()) + ",\n";
  out += "  \"failed\": " + std::to_string(ctx.ledger.failed()) + ",\n";
  out += "  \"errors\": [";
  bool first = true;
  for (const std::string& e : ctx.ledger.errors()) {
    out += (first ? "" : ", ") + Quoted(e);
    first = false;
  }
  out += "],\n  \"metrics\": {";
  first = true;
  for (const auto& [name, m] : ctx.metrics()) {
    out += std::string(first ? "\n" : ",\n") + "    " + Quoted(name) +
           ": {\"value\": " + Number(m.value) + ", \"unit\": " +
           Quoted(m.unit) + ", \"samples\": " + std::to_string(m.samples) +
           "}";
    first = false;
  }
  out += "\n  },\n  \"info\": {";
  first = true;
  for (const auto& [key, value] : ctx.info) {
    out += std::string(first ? "\n" : ",\n") + "    " + Quoted(key) + ": " +
           Quoted(value);
    first = false;
  }
  out += "\n  }\n}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

int Main(int argc, char** argv) {
  Config config;
  if (!ParseArgs(argc, argv, &config)) {
    Usage();
    return 2;
  }
  Status (*run)(RunContext*) = nullptr;
  if (config.workload == "sensors_scan") {
    run = RunSensorsScan;
  } else if (config.workload == "tweet_cold_scan") {
    run = RunTweetColdScan;
  } else if (config.workload == "wos_ingest") {
    run = RunWosIngest;
  } else if (config.workload == "tweet2_mixed") {
    run = RunTweet2Mixed;
  } else {
    Usage();
    return 2;
  }
  if (config.dir.empty()) {
    config.dir = "lsmcol_e2e_" + config.workload;
  }
  std::filesystem::remove_all(config.dir);
  std::filesystem::create_directories(config.dir);

  RunContext ctx(config);
  const Status st = run(&ctx);
  if (!st.ok()) {
    std::fprintf(stderr, "lsmcol_e2e %s: %s\n", config.workload.c_str(),
                 st.ToString().c_str());
    std::filesystem::remove_all(config.dir);
    return 2;
  }
  if (config.traced()) {
    const std::vector<Span> spans = ctx.tracer.Collect();
    ctx.ReportLayers(spans);
    ctx.info["spans"] = std::to_string(spans.size());
    const Status written = Tracer::WriteChromeTrace(spans, config.trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 2;
    }
  }
  std::filesystem::remove_all(config.dir);
  const bool correct =
      ctx.ledger.failed() == 0 && ctx.ledger.checks_passed();
  for (const std::string& e : ctx.ledger.errors()) {
    std::fprintf(stderr, "lsmcol_e2e %s: FAILED %s\n",
                 config.workload.c_str(), e.c_str());
  }
  if (!WriteResult(ctx, correct, config.out_path)) {
    std::fprintf(stderr, "cannot write %s\n", config.out_path.c_str());
    return 2;
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace lsmcol::e2e

int main(int argc, char** argv) { return lsmcol::e2e::Main(argc, argv); }

#ifndef PPDBSCAN_BENCH_BENCH_UTIL_H_
#define PPDBSCAN_BENCH_BENCH_UTIL_H_

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/run.h"
#include "data/fixed_point.h"
#include "data/generators.h"
#include "data/partitioners.h"
#include "eval/table.h"

namespace ppdbscan {
namespace bench_util {

/// --csv on the command line switches every table to CSV.
inline bool WantCsv(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) return true;
  }
  return false;
}

/// True when `flag` appears on the command line.
inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

// --- machine-readable perf baselines ----------------------------------------
// Every bench driver accepts `--json <path>` and appends one record per
// measured operation. The records are the repository's perf trajectory:
// committed BENCH_<name>.json files are the baseline future PRs are
// compared against, and CI exercises the writer on every push.

/// One measured operation. `ns_per_op` is wall time per operation;
/// communication benches report `bytes` instead (ns_per_op = 0).
struct BenchRecord {
  std::string op;
  double ns_per_op = 0;
  size_t threads = 1;
  size_t modulus_bits = 0;
  double bytes = 0;
};

/// Extracts the value of `--json <path>` and removes both tokens from
/// argv (so the remaining args can go to other parsers, e.g.
/// benchmark::Initialize). Returns "" when the flag is absent.
inline std::string TakeJsonPath(int* argc, char** argv) {
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < *argc) {
      std::string path = argv[i + 1];
      for (int j = i; j + 2 < *argc; ++j) argv[j] = argv[j + 2];
      *argc -= 2;
      return path;
    }
  }
  return "";
}

/// Writes the records as a JSON array of flat objects. No-op when `path`
/// is empty.
inline void WriteBenchJson(const std::string& path,
                           const std::vector<BenchRecord>& records) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open --json path " << path << "\n";
    return;
  }
  out << "[\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    out << "  {\"op\": \"" << r.op << "\", \"ns_per_op\": " << r.ns_per_op
        << ", \"threads\": " << r.threads
        << ", \"modulus_bits\": " << r.modulus_bits
        << ", \"bytes\": " << r.bytes << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "]\n";
  std::cout << "wrote " << records.size() << " bench records to " << path
            << "\n";
}

inline void Emit(const ResultTable& table, bool csv, const std::string& title,
                 const std::string& claim) {
  if (!csv) {
    std::cout << "\n## " << title << "\n";
    if (!claim.empty()) std::cout << "Paper claim: " << claim << "\n\n";
    std::cout << table.ToMarkdown();
  } else {
    std::cout << table.ToCsv();
  }
  std::cout.flush();
}

/// Default fast-but-real crypto sizes for the experiment harnesses.
inline SmcOptions FastCrypto() {
  SmcOptions smc;
  smc.paillier_bits = 256;
  smc.rsa_bits = 128;
  return smc;
}

/// Runs one two-party job pair in-process through ExecuteLocal (Alice's
/// rng seeded 0x0a11ce, Bob's 0x0b0b) and returns the outcomes
/// {alice, bob}. Aborts on failure: every harness input is fixed and valid.
inline std::vector<RunOutcome> RunPair(PartitionScheme scheme,
                                       LocalData alice, LocalData bob,
                                       const ProtocolOptions& options,
                                       const SmcOptions& smc = FastCrypto()) {
  std::vector<LocalJob> jobs;
  jobs.push_back({ClusteringJob{.scheme = scheme,
                                .data = std::move(alice),
                                .options = options,
                                .role = PartyRole::kAlice},
                  0x0a11ce});
  jobs.push_back({ClusteringJob{.scheme = scheme,
                                .data = std::move(bob),
                                .options = options,
                                .role = PartyRole::kBob},
                  0x0b0b});
  Result<std::vector<RunOutcome>> out = ExecuteLocal(jobs, smc);
  PPD_CHECK_MSG(out.ok(), out.status().ToString().c_str());
  return std::move(out).value();
}

}  // namespace bench_util
}  // namespace ppdbscan

#endif  // PPDBSCAN_BENCH_BENCH_UTIL_H_

#ifndef PERFBENCH_HARNESS_DIGEST_H_
#define PERFBENCH_HARNESS_DIGEST_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/status.h"

namespace perfbench {

/// Checked-in output digest: one 64-bit FNV-1a hash per result row, keyed by
/// the row's cell identity. The file holds lines "<16 hex digits> <key>";
/// lines starting with '#' are comments.
using Digest = std::map<std::string, uint64_t>;

uint64_t RowHash(const std::string& row);

lossyts::Result<Digest> LoadDigest(const std::string& path);

/// Writes one line per (key, row) pair, in the given order, after `header`
/// rendered as comment lines.
lossyts::Status WriteDigest(
    const std::string& path, const std::string& header,
    const std::vector<std::pair<std::string, std::string>>& rows);

/// Compares produced rows against a digest. A row whose key is absent from
/// the digest, or whose hash differs, is a mismatch; a digest key no row was
/// checked against is missing.
class DigestChecker {
 public:
  explicit DigestChecker(Digest expected) : expected_(std::move(expected)) {}

  /// Returns false (and records why) when `row` does not match.
  bool Check(const std::string& key, const std::string& row);

  size_t checked() const { return checked_; }
  const std::vector<std::string>& mismatches() const { return mismatches_; }
  /// Digest keys that no Check call has named yet, in key order.
  std::vector<std::string> Missing() const;

 private:
  Digest expected_;
  std::set<std::string> seen_;
  size_t checked_ = 0;
  std::vector<std::string> mismatches_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_DIGEST_H_

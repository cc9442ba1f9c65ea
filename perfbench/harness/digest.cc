#include "harness/digest.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "core/seed.h"

namespace perfbench {

uint64_t RowHash(const std::string& row) { return lossyts::HashTag(row); }

lossyts::Result<Digest> LoadDigest(const std::string& path) {
  std::ifstream in(path);
  if (!in) return lossyts::Status::NotFound("no digest file " + path);
  Digest digest;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.find(' ');
    uint64_t hash = 0;
    if (space != 16 ||
        std::sscanf(line.c_str(), "%16" SCNx64, &hash) != 1) {
      return lossyts::Status::Corruption("malformed digest line in " + path +
                                         ": " + line);
    }
    digest[line.substr(space + 1)] = hash;
  }
  return digest;
}

lossyts::Status WriteDigest(
    const std::string& path, const std::string& header,
    const std::vector<std::pair<std::string, std::string>>& rows) {
  std::ofstream out(path);
  if (!out) return lossyts::Status::IoError("cannot write " + path);
  size_t begin = 0;
  while (begin < header.size()) {
    size_t end = header.find('\n', begin);
    if (end == std::string::npos) end = header.size();
    out << "# " << header.substr(begin, end - begin) << '\n';
    begin = end + 1;
  }
  char hex[17];
  for (const auto& [key, row] : rows) {
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, RowHash(row));
    out << hex << ' ' << key << '\n';
  }
  out.flush();
  return out ? lossyts::Status::OK()
             : lossyts::Status::IoError("cannot write " + path);
}

bool DigestChecker::Check(const std::string& key, const std::string& row) {
  ++checked_;
  seen_.insert(key);
  const auto it = expected_.find(key);
  if (it == expected_.end()) {
    mismatches_.push_back(key + ": not in the digest (row " + row + ")");
    return false;
  }
  if (it->second != RowHash(row)) {
    mismatches_.push_back(key + ": row changed, now " + row);
    return false;
  }
  return true;
}

std::vector<std::string> DigestChecker::Missing() const {
  std::vector<std::string> missing;
  for (const auto& [key, hash] : expected_) {
    if (seen_.count(key) == 0) missing.push_back(key);
  }
  return missing;
}

}  // namespace perfbench

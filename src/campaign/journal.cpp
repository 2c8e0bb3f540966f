#include "campaign/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <sstream>

#include "common/failpoint.hpp"
#include "common/fnv.hpp"

namespace cwsp::campaign {
namespace {

constexpr char kHeaderLine[] = "# cwsp-campaign-journal v1";

std::string escape_text(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string unescape_text(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\' || i + 1 == text.size()) {
      out += text[i];
      continue;
    }
    ++i;
    switch (text[i]) {
      case 'n':
        out += '\n';
        break;
      default:
        out += text[i];
    }
  }
  return out;
}

/// Extracts the value of `key=` from a whitespace-separated line; returns
/// false when absent.
bool field(const std::string& line, const std::string& key,
           std::string& value) {
  const std::string needle = key + "=";
  std::size_t pos = 0;
  while ((pos = line.find(needle, pos)) != std::string::npos) {
    if (pos != 0 && line[pos - 1] != ' ') {
      pos += needle.size();
      continue;
    }
    const std::size_t begin = pos + needle.size();
    const std::size_t end = line.find(' ', begin);
    value = line.substr(begin, end == std::string::npos ? end : end - begin);
    return true;
  }
  return false;
}

bool parse_status(const std::string& text, StrikeStatus& status) {
  if (text == "covered") status = StrikeStatus::kCovered;
  else if (text == "escape") status = StrikeStatus::kEscape;
  else if (text == "timeout") status = StrikeStatus::kTimeout;
  else if (text == "error") status = StrikeStatus::kError;
  else return false;
  return true;
}

}  // namespace

bool parse_strike_line(const std::string& line_in, StrikeResult& result) {
  std::string line = line_in;
  if (!line.empty() && line.back() == '\n') line.pop_back();
  // diag="..." runs to the closing quote at end of line; a line truncated
  // inside the quotes is rejected. Fixed fields are only extracted from
  // the prefix, so diagnostic text can never shadow them.
  const std::size_t diag = line.find(" diag=\"");
  if (diag == std::string::npos) return false;
  const std::size_t begin = diag + 7;
  if (line.size() < begin + 1 || line.back() != '"') return false;
  result.diagnostic =
      unescape_text(line.substr(begin, line.size() - begin - 1));

  const std::string prefix = line.substr(0, diag);
  std::string value;
  try {
    if (!field(prefix, "idx", value)) return false;
    result.index = std::stoull(value);
    if (!field(prefix, "status", value) ||
        !parse_status(value, result.status))
      return false;
    if (!field(prefix, "uf", value)) return false;
    result.unprotected_failed = value == "1";
    if (!field(prefix, "bub", value)) return false;
    result.bubbles = std::stoull(value);
    if (!field(prefix, "det", value)) return false;
    result.detected_errors = std::stoull(value);
    if (!field(prefix, "spur", value)) return false;
    result.spurious_recomputes = std::stoull(value);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

std::string format_strike_line(const StrikeResult& result) {
  std::ostringstream os;
  os << "strike idx=" << result.index << " status="
     << to_string(result.status) << " uf="
     << (result.unprotected_failed ? 1 : 0) << " bub=" << result.bubbles
     << " det=" << result.detected_errors << " spur="
     << result.spurious_recomputes << " diag=\""
     << escape_text(result.diagnostic) << "\"\n";
  return os.str();
}

std::string format_shard_line(const ShardRecord& record) {
  std::ostringstream os;
  os << "shard idx=" << record.index << " total=" << record.total
     << " fp=" << std::hex << record.fingerprint << std::dec
     << " begin=" << record.begin << " count=" << record.count << "\n";
  return os.str();
}

bool parse_shard_line(const std::string& line_in, ShardRecord& record) {
  std::string line = line_in;
  if (!line.empty() && line.back() == '\n') line.pop_back();
  std::string value;
  try {
    if (!field(line, "idx", value)) return false;
    record.index = std::stoull(value);
    if (!field(line, "total", value)) return false;
    record.total = std::stoull(value);
    if (!field(line, "fp", value)) return false;
    record.fingerprint = std::stoull(value, nullptr, 16);
    if (!field(line, "begin", value)) return false;
    record.begin = std::stoull(value);
    if (!field(line, "count", value)) return false;
    record.count = std::stoull(value);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

std::uint64_t campaign_fingerprint(const set::StrikePlan& plan,
                                   std::uint64_t seed,
                                   std::size_t cycles_per_run,
                                   Picoseconds clock_period) {
  std::uint64_t h = fnv::kOffsetBasis;
  fnv::mix(h, seed);
  fnv::mix(h, cycles_per_run);
  fnv::mix(h, std::bit_cast<std::uint64_t>(clock_period.value()));
  fnv::mix(h, set::plan_fingerprint(plan));
  return h;
}

Journal read_journal(const std::string& path) {
  std::ifstream in(path);
  CWSP_REQUIRE_MSG(in.good(), "cannot read journal '" << path << "'");
  Journal journal;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("plan ", 0) == 0) {
      std::string value;
      if (field(line, "fp", value)) {
        journal.fingerprint = std::stoull(value, nullptr, 16);
      }
      if (field(line, "strikes", value)) {
        journal.total_strikes = std::stoull(value);
      }
      continue;
    }
    if (line.rfind("shard ", 0) == 0) {
      ShardRecord record;
      if (parse_shard_line(line, record)) {
        journal.shards.push_back(record);
      }
      continue;
    }
    if (line.rfind("strike ", 0) != 0) continue;
    StrikeResult result;
    if (parse_strike_line(line, result)) {
      journal.results.push_back(std::move(result));
    }
  }
  return journal;
}

namespace {

/// Flushes a file's data to stable storage (best effort: an fsync failure
/// is not a journal-corrupting event, the rename below still is atomic).
void sync_to_disk(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

JournalWriter::JournalWriter(const std::string& path,
                             std::uint64_t fingerprint,
                             std::size_t total_strikes, bool append) {
  if (!append) {
    // Stage the header in a temp file, flush + fsync it, and atomically
    // rename it over the target. Truncating in place would destroy a
    // previous (possibly still resumable) journal the instant the new
    // campaign starts, and a crash before the first flush would leave an
    // empty file behind; with the rename, every observable state of
    // `path` is either the old journal or a new one with a valid header.
    const std::string tmp = path + ".tmp";
    {
      std::ofstream header(tmp, std::ios::trunc);
      CWSP_REQUIRE_MSG(header.good(), "cannot open journal '" << tmp << "'");
      std::ostringstream header_os;
      header_os << kHeaderLine << "\nplan fp=" << std::hex << fingerprint
                << std::dec << " strikes=" << total_strikes << "\n";
      std::string header_text = header_os.str();
      failpoint::mutate("campaign.journal.header", header_text);
      header << header_text;
      header.flush();
      CWSP_REQUIRE_MSG(header.good(), "cannot write journal '" << tmp << "'");
    }
    sync_to_disk(tmp);
    CWSP_REQUIRE_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                     "cannot move journal '" << tmp << "' into place");
  }
  out_.open(path, std::ios::app);
  CWSP_REQUIRE_MSG(out_.good(), "cannot open journal '" << path << "'");
}

void JournalWriter::append(const StrikeResult& result) {
  std::string line = format_strike_line(result);
  // Chaos: a torn append models a crash mid-write — the damaged strike
  // line must be skipped by read_journal and re-executed on resume.
  failpoint::mutate("campaign.journal.append", line);
  std::lock_guard<std::mutex> lock(mutex_);
  out_ << line;
  out_.flush();
}

void JournalWriter::append_shard(const ShardRecord& record,
                                 const std::vector<StrikeResult>& results) {
  std::string block;
  for (const StrikeResult& r : results) block += format_strike_line(r);
  block += format_shard_line(record);
  // Chaos: the marker is the last line of the block, so a torn shard
  // write damages it first and resume must re-execute the whole shard.
  failpoint::mutate("campaign.journal.shard_marker", block);
  std::lock_guard<std::mutex> lock(mutex_);
  out_ << block;
  out_.flush();
}

}  // namespace cwsp::campaign

#include "common/failpoint.hpp"

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <vector>

#include "common/fnv.hpp"
#include "common/json_text.hpp"
#include "common/metrics.hpp"

namespace cwsp::failpoint {
namespace detail {

std::atomic<bool> g_armed{false};

}  // namespace detail

namespace {

double parse_number(const std::string& text, const std::string& entry) {
  std::size_t used = 0;
  double v = -1.0;
  try {
    v = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || text.empty() || !(v >= 0.0)) {
    throw ParseError("failpoint spec: bad numeric argument in '" + entry +
                     "'");
  }
  return v;
}

const char* kind_name(ActionKind kind) {
  switch (kind) {
    case ActionKind::kErr:
      return "err";
    case ActionKind::kDelay:
      return "delay";
    case ActionKind::kTorn:
      return "torn";
    case ActionKind::kGarble:
      return "garble";
    case ActionKind::kAbort:
      return "abort";
  }
  return "?";
}

}  // namespace

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

void Registry::configure(const std::string& spec, std::uint64_t seed) {
  // Parse into a staging list first so a malformed tail entry cannot
  // leave the registry half-armed.
  std::vector<std::pair<std::string, Point>> staged;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;

    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw ParseError("failpoint spec: expected name=action in '" + entry +
                       "'");
    }
    const std::string name = entry.substr(0, eq);
    std::string rest = entry.substr(eq + 1);

    Point point;
    const std::size_t at = rest.rfind('@');
    std::string policy;
    if (at != std::string::npos) {
      policy = rest.substr(at + 1);
      rest = rest.substr(0, at);
    }
    std::string arg;
    const std::size_t colon = rest.find(':');
    if (colon != std::string::npos) {
      arg = rest.substr(colon + 1);
      rest = rest.substr(0, colon);
    }

    if (rest == "err") {
      point.action.kind = ActionKind::kErr;
      point.action.message =
          arg.empty() ? "injected fault at " + name : arg;
    } else if (rest == "delay") {
      point.action.kind = ActionKind::kDelay;
      point.action.value = arg.empty() ? 10.0 : parse_number(arg, entry);
    } else if (rest == "torn") {
      point.action.kind = ActionKind::kTorn;
      point.action.value = arg.empty() ? 1.0 : parse_number(arg, entry);
    } else if (rest == "garble") {
      point.action.kind = ActionKind::kGarble;
      point.action.value = arg.empty() ? 0.0 : parse_number(arg, entry);
    } else if (rest == "abort") {
      point.action.kind = ActionKind::kAbort;
    } else {
      throw ParseError("failpoint spec: unknown action '" + rest + "' in '" +
                       entry + "'");
    }

    if (policy.empty() || policy == "always") {
      point.policy = PolicyKind::kAlways;
    } else if (policy == "once") {
      point.policy = PolicyKind::kOnce;
    } else if (policy.rfind("every=", 0) == 0) {
      point.policy = PolicyKind::kEvery;
      point.every_n = static_cast<std::uint64_t>(
          parse_number(policy.substr(6), entry));
      if (point.every_n < 1) {
        throw ParseError("failpoint spec: every=N needs N >= 1 in '" + entry +
                         "'");
      }
    } else if (policy.rfind("prob=", 0) == 0) {
      point.policy = PolicyKind::kProb;
      point.prob = parse_number(policy.substr(5), entry);
      if (point.prob > 1.0) {
        throw ParseError("failpoint spec: prob=P needs P in [0,1] in '" +
                         entry + "'");
      }
    } else {
      throw ParseError("failpoint spec: unknown policy '" + policy + "' in '" +
                       entry + "'");
    }

    std::uint64_t name_hash = fnv::kOffsetBasis;
    fnv::mix_bytes(name_hash, name);
    point.rng = Rng::stream(seed, name_hash);
    staged.emplace_back(name, std::move(point));
  }

  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, point] : staged) {
    points_[name] = std::move(point);
  }
  detail::g_armed.store(!points_.empty(), std::memory_order_relaxed);
  metrics::Registry::global()
      .gauge("failpoint.armed")
      .set(static_cast<std::int64_t>(points_.size()));
}

void Registry::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  points_.clear();
  detail::g_armed.store(false, std::memory_order_relaxed);
  metrics::Registry::global().gauge("failpoint.armed").set(0);
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return points_.size();
}

std::optional<Action> Registry::fire(const std::string& name) {
  std::optional<Action> action;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = points_.find(name);
    if (it == points_.end()) return std::nullopt;
    Point& point = it->second;
    ++point.hits;
    bool fired = false;
    switch (point.policy) {
      case PolicyKind::kAlways:
        fired = true;
        break;
      case PolicyKind::kOnce:
        fired = !point.once_done;
        point.once_done = true;
        break;
      case PolicyKind::kEvery:
        fired = point.hits % point.every_n == 0;
        break;
      case PolicyKind::kProb:
        fired = point.rng.next_bool(point.prob);
        break;
    }
    if (!fired) return std::nullopt;
    ++point.fired;
    action = point.action;
  }
  metrics::Registry::global().counter("failpoint." + name + ".fired").add(1);
  return action;
}

std::string Registry::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "{\"schema\":\"cwsp-failpoints-v1\",\"armed\":" << points_.size()
     << ",\"points\":[";
  bool first = true;
  for (const auto& [name, point] : points_) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << json_text::escape(name) << "\",\"action\":\""
       << kind_name(point.action.kind) << "\",\"hits\":" << point.hits
       << ",\"fired\":" << point.fired << '}';
  }
  os << "]}";
  return os.str();
}

namespace detail {

namespace {

// Applies err/delay/abort inline; returns torn/garble for the site.
std::optional<Action> apply_inline(std::optional<Action> action) {
  if (!action) return std::nullopt;
  switch (action->kind) {
    case ActionKind::kErr:
      throw InjectedFault(action->message);
    case ActionKind::kDelay:
      std::this_thread::sleep_for(std::chrono::microseconds(
          static_cast<std::int64_t>(action->value * 1000.0)));
      return std::nullopt;
    case ActionKind::kAbort:
      std::abort();
    case ActionKind::kTorn:
    case ActionKind::kGarble:
      return action;
  }
  return std::nullopt;
}

}  // namespace

std::optional<Action> inject_slow(const char* name) {
  return apply_inline(Registry::global().fire(name));
}

void mutate_slow(const char* name, std::string& data) {
  const auto action = apply_inline(Registry::global().fire(name));
  if (!action) return;
  if (action->kind == ActionKind::kTorn) {
    const auto drop = static_cast<std::size_t>(action->value);
    data.resize(drop >= data.size() ? 0 : data.size() - drop);
  } else if (action->kind == ActionKind::kGarble && !data.empty()) {
    const auto offset = static_cast<std::size_t>(action->value) % data.size();
    data[offset] = static_cast<char>(data[offset] ^ 0x20);
  }
}

bool fires_slow(const char* name) {
  auto action = Registry::global().fire(name);
  if (action && action->kind == ActionKind::kDelay) {
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<std::int64_t>(action->value * 1000.0)));
  }
  return action.has_value();
}

}  // namespace detail
}  // namespace cwsp::failpoint

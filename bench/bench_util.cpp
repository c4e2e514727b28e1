#include "bench_util.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <exception>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace gnnie::bench {

double BenchOptions::scale_for(const DatasetSpec& spec) const {
  switch (spec.id) {
    case DatasetId::kPpi:
    case DatasetId::kReddit:
      return scale;
    default:
      return 1.0;
  }
}

namespace {

template <class T>
T parse_number(const std::string& arg, const char* expected) {
  const std::size_t eq = arg.find('=');
  const char* first = arg.data() + (eq == std::string::npos ? arg.size() : eq + 1);
  const char* last = arg.data() + arg.size();
  T value{};
  const auto [end, ec] = std::from_chars(first, last, value);
  if (first == last || ec != std::errc{} || end != last) {
    throw std::invalid_argument(arg + ": expected " + expected);
  }
  return value;
}

}  // namespace

std::uint64_t parse_count(const std::string& arg) {
  return parse_number<std::uint64_t>(arg, "an unsigned decimal integer");
}

double parse_scale(const std::string& arg) {
  const double scale = parse_number<double>(arg, "a number in (0, 1]");
  if (!(scale > 0.0 && scale <= 1.0)) throw std::invalid_argument(arg + ": must be in (0, 1]");
  return scale;
}

BenchOptions parse_options(int argc, char** argv, unsigned accepted, BenchOptions defaults) {
  struct Flag {
    BenchFlags bit;
    const char* prefix;
  };
  static constexpr Flag kFlags[] = {{kSeed, "--seed="},         {kScale, "--scale="},
                                    {kDatasets, "--datasets="}, {kRequests, "--requests="},
                                    {kReps, "--reps="},         {kJson, "--json="}};
  BenchOptions opt = std::move(defaults);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const Flag* flag = nullptr;
    for (const Flag& f : kFlags) {
      if ((accepted & f.bit) != 0 && arg.rfind(f.prefix, 0) == 0) flag = &f;
    }
    if (flag == nullptr) {
      std::string takes;
      for (const Flag& f : kFlags) {
        if ((accepted & f.bit) != 0) takes += (takes.empty() ? "" : ", ") + std::string(f.prefix);
      }
      throw std::invalid_argument("unknown flag: " + arg + " (this bench takes " + takes + ")");
    }
    const std::string value = arg.substr(std::string(flag->prefix).size());
    switch (flag->bit) {
      case kSeed:
        opt.seed = parse_count(arg);
        break;
      case kScale:
        opt.scale = parse_scale(arg);
        break;
      case kDatasets:
        for (std::size_t pos = 0; pos <= value.size();) {
          const std::size_t comma = std::min(value.find(',', pos), value.size());
          if (comma > pos) opt.datasets.push_back(value.substr(pos, comma - pos));
          pos = comma + 1;
        }
        break;
      case kRequests:
        opt.requests = parse_count(arg);
        break;
      case kReps:
        opt.reps = parse_count(arg);
        break;
      default:  // kJson
        opt.json_path = value;
    }
  }
  if ((accepted & kRequests) != 0 && opt.requests == 0) {
    throw std::invalid_argument("--requests must be positive");
  }
  if ((accepted & kReps) != 0 && opt.reps == 0) {
    throw std::invalid_argument("--reps must be positive");
  }
  return opt;
}

bool write_json(const std::string& json, const std::string& path) {
  if (json.empty() || json.front() != '{' || json.back() != '}' ||
      !json_braces_balanced(json)) {
    std::fprintf(stderr, "emitted JSON is malformed\n");
    return false;
  }
  if (path.empty()) {
    std::printf("%s\n", json.c_str());
    return true;
  }
  std::ofstream f(path);
  f << json << "\n";
  if (!f) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

std::string scale_note(const DatasetSpec& spec, double scale) {
  if (scale >= 1.0) return spec.short_name;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s (scale %.3g)", spec.short_name.c_str(), scale);
  return buf;
}

void print_banner(const std::string& experiment, const std::string& claim) {
  std::printf("==========================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper claim: %s\n", claim.c_str());
  std::printf("==========================================================================\n");
}

Workload make_workload(const DatasetSpec& spec, double scale, GnnKind kind,
                       std::uint64_t seed) {
  Workload w;
  w.data = generate_dataset(spec.scaled(scale), seed);
  w.model.kind = kind;
  w.model.input_dim = w.data.spec.feature_length;
  w.model.hidden_dim = 128;  // Table III
  w.model.num_layers = 2;
  w.model.sample_size = 25;
  w.weights = init_weights(w.model, seed + 1);
  if (kind == GnnKind::kGraphSage) {
    for (std::uint32_t l = 0; l < w.model.num_layers; ++l) {
      w.sampled.push_back(sample_neighborhood(w.data.graph, w.model.sample_size, seed + 10 + l));
    }
  }
  return w;
}

InferenceReport run_gnnie(const Workload& w, const EngineConfig& cfg,
                          std::shared_ptr<const CachePolicy> policy) {
  const CompiledModel compiled = Engine(cfg, std::move(policy)).compile(w.model, w.weights);
  return compiled.run({compiled.plan(w.data.graph, w.sampled), &w.data.features}).report;
}

void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn) {
  parallel_for(count, 0, fn);
}

void parallel_for(std::size_t count, std::size_t workers,
                  const std::function<void(std::size_t)>& fn) {
  if (workers == 0) {
    const std::size_t hw = std::thread::hardware_concurrency();
    workers = hw == 0 ? 1 : hw;
  }
  if (workers > count) workers = count;
  if (workers <= 1) {
    // Inline fallback: exceptions propagate naturally, matching the
    // threaded path's contract (every claimed index before the throw ran
    // exactly once).
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto worker = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) break;
      try {
        fn(i);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (first_error == nullptr) first_error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
        break;
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (std::size_t t = 1; t < workers; ++t) threads.emplace_back(worker);
  worker();
  for (std::thread& t : threads) t.join();
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

bool json_braces_balanced(const std::string& s) {
  std::vector<char> closers;  // the closer each open bracket expects
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (in_string) {
      if (c == '\\' && i + 1 < s.size()) {
        c = s[++i];  // an escaped character never ends the string
      } else if (c == '"') {
        in_string = false;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control character
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      closers.push_back(c == '{' ? '}' : ']');
    } else if (c == '}' || c == ']') {
      if (closers.empty() || closers.back() != c) return false;
      closers.pop_back();
    }
  }
  return !in_string && closers.empty();
}

}  // namespace gnnie::bench

#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

namespace lfpbench {

double seconds_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
}

double seconds_since(Clock::time_point from) { return seconds_between(from, Clock::now()); }

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

std::int64_t thread_cpu_ns() {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double process_cpu_s() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::uint64_t peak_rss_bytes(pid_t pid) {
    const std::string path =
        pid == 0 ? std::string("/proc/self/status") : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream status(path);
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
        }
    }
    return 0;
}

double proc_cpu_s(pid_t pid) {
    std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
    std::string text;
    if (!std::getline(stat, text)) return -1.0;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 overall, i.e. the 12th and 13th after ')'.
    const auto close = text.rfind(')');
    if (close == std::string::npos) return -1.0;
    std::istringstream rest(text.substr(close + 2));
    std::string field;
    double ticks = 0.0;
    for (int i = 1; i <= 13 && rest >> field; ++i) {
        if (i >= 12) ticks += std::strtod(field.c_str(), nullptr);
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

IoCounters io_counters() {
    IoCounters out;
    std::ifstream io("/proc/self/io");
    std::string key;
    std::uint64_t value = 0;
    while (io >> key >> value) {
        if (key == "rchar:") out.read_bytes = value;
        if (key == "wchar:") out.write_bytes = value;
    }
    return out;
}

double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size())));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                     values.end());
    return values[index];
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

double mean(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

void Digest::add(std::string_view bytes) {
    for (const char c : bytes) {
        hash_ ^= static_cast<std::uint8_t>(c);
        hash_ *= 0x100000001b3ull;
    }
}

void Digest::add_u64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
        hash_ ^= (value >> (8 * i)) & 0xFF;
        hash_ *= 0x100000001b3ull;
    }
}

std::string hex(std::uint64_t value) {
    char text[17];
    std::snprintf(text, sizeof(text), "%016llx", static_cast<unsigned long long>(value));
    return text;
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
}

void Report::fail(const std::string& why, std::uint64_t count) {
    failed_ += count;
    std::cerr << "lfpbench: FAIL: " << why << '\n';
}

void Report::print() const {
    std::cout << "\nmetric                                         value  unit\n";
    for (const Metric& m : metrics_) {
        std::cout << std::left << std::setw(40) << m.name << std::right << std::setw(15)
                  << std::setprecision(6) << m.value << "  " << m.unit << '\n';
    }
    std::cout << "attempted=" << attempted_ << " failed=" << failed_ << '\n';
    std::ostringstream line;
    line << std::setprecision(10);
    line << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": "
         << attempted_ << ", \"failed\": " << failed_ << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const double value = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
        line << (i == 0 ? "" : ", ") << '"' << metrics_[i].name << "\": {\"value\": " << value
             << ", \"unit\": \"" << metrics_[i].unit << "\"}";
    }
    line << "}}";
    std::cout << line.str() << std::endl;
}

std::int64_t Tracer::open(std::string name, std::uint64_t request) {
    if (!enabled_) return -1;
    Span span;
    span.name = std::move(name);
    span.start_ns = now_ns();
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request;
    spans_.push_back(std::move(span));
    const auto index = static_cast<std::int64_t>(spans_.size() - 1);
    open_.push_back(index);
    return index;
}

void Tracer::close(std::int64_t index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::record(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                    std::uint64_t request) {
    if (!enabled_) return;
    spans_.push_back({std::move(name), start_ns, end_ns, open_.empty() ? -1 : open_.back(),
                      request});
}

void Tracer::write(const std::string& path) const {
    if (!enabled_) return;
    std::ofstream out(path, std::ios::trunc);
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
        if (span.parent >= 0) {
            child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
        }
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        out << "{\"id\": " << i << ", \"name\": \"" << span.name << "\", \"start_ns\": "
            << span.start_ns << ", \"end_ns\": " << span.end_ns << ", \"parent\": "
            << span.parent << ", \"request\": " << span.request << ", \"self_ns\": "
            << (span.end_ns - span.start_ns - child_ns[i]) << "}\n";
    }
}

std::string make_private_dir(const std::string& parent, const char* prefix) {
    std::filesystem::create_directories(parent);
    std::string pattern = parent + "/" + prefix + "XXXXXX";
    std::vector<char> buffer(pattern.begin(), pattern.end());
    buffer.push_back('\0');
    if (::mkdtemp(buffer.data()) == nullptr) {
        throw std::runtime_error("mkdtemp failed under " + parent);
    }
    return std::string(buffer.data());
}

void remove_tree(const std::string& path) {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
}

}  // namespace lfpbench

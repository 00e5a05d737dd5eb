/**
 * @file
 * Clocks, quantiles, the operation tally and the span tracer.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>

#include "bench.hh"

namespace perfbench
{

namespace
{

const Clock::time_point processStart = Clock::now();

} // namespace

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - processStart)
            .count());
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void
Tally::check(bool ok, std::uint64_t ops, const std::string &what)
{
    attempted += ops;
    if (!ok)
        fail(ops, what);
}

void
Tally::fail(std::uint64_t ops, const std::string &what)
{
    failed += ops;
    if (problems.size() < 8)
        problems.push_back(what);
}

Tracer::Scope::Scope(Tracer &t, const char *name, std::uint64_t run)
    : tracer_(t), index_(t.open(name, run))
{
}

Tracer::Scope::~Scope() { tracer_.close(index_); }

double
Tracer::Scope::seconds() const
{
    std::lock_guard<std::mutex> lock(tracer_.mutex_);
    return static_cast<double>(nowNs() - tracer_.spans_[index_].startNs) *
           1e-9;
}

int
Tracer::open(const char *name, std::uint64_t run)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.run = run;
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
}

void
Tracer::close(int index)
{
    const std::uint64_t end = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[index].endNs = end;
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

void
Tracer::add(const std::string &name, std::uint64_t start_ns,
            std::uint64_t end_ns, std::uint64_t run)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Span s;
    s.name = name;
    s.startNs = start_ns;
    s.endNs = end_ns;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.run = run;
    spans_.push_back(std::move(s));
}

std::vector<std::pair<std::string, double>>
Tracer::selfSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child[s.parent] += static_cast<double>(s.endNs - s.startNs);
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const double dur =
            static_cast<double>(spans_[i].endNs - spans_[i].startNs);
        self[spans_[i].name] += std::max(0.0, dur - child[i]) * 1e-9;
    }
    return {self.begin(), self.end()};
}

double
Tracer::lastSeconds(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it)
        if (it->name == name && it->endNs >= it->startNs)
            return static_cast<double>(it->endNs - it->startNs) * 1e-9;
    return 0.0;
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

bool
Tracer::writeChrome(const std::string &path,
                    const std::string &workload) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[160];
        std::snprintf(buf, sizeof buf, "%.3f,\"dur\":%.3f",
                      static_cast<double>(s.startNs) * 1e-3,
                      static_cast<double>(s.endNs - s.startNs) * 1e-3);
        out << (i ? ",\n" : "") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.run
            << ",\"ts\":" << buf << ",\"args\":{\"id\":" << i
            << ",\"parent\":" << s.parent << ",\"workload\":\"" << workload
            << "\",\"run\":" << s.run << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench

/**
 * @file
 * Host-time span recorder for the benchmark's traced run.
 *
 * The benchmark wraps every call it makes into a library layer in a
 * span: name, start, end, the enclosing span and the operation the
 * call belongs to. Spans stay in memory and are written once, at
 * exit, as Chrome/Perfetto trace-event JSON. Per-layer totals and
 * counters feed the per-layer metrics. A disabled tracer records
 * nothing and costs one branch per call.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One host-time interval spent inside a library call. */
struct Span {
    std::string name;
    double begin_us = 0;
    double end_us = 0;
    int parent = -1;       ///< index of the enclosing span, -1 at top
    std::uint64_t op = 0;  ///< operation id; 0 = set-up
    double child_us = 0;   ///< time covered by direct child spans
};

class Tracer
{
  public:
    explicit Tracer(bool enabled)
        : enabled_(enabled), origin_(Clock::now())
    {
    }

    /** Operation id stamped on spans opened from now on. */
    void setOp(std::uint64_t op) { op_ = op; }

    /** Run @p f inside a span named @p name and return its result. */
    template <class F>
    decltype(auto)
    span(const char *name, F &&f)
    {
        if (!enabled_)
            return f();
        struct Closer {
            Tracer &t;
            std::size_t idx;
            ~Closer() { t.close(idx); }
        } closer{*this, open(name)};
        return f();
    }

    /** Add @p v to counter @p name (traced runs only). */
    void
    count(const std::string &name, double v)
    {
        if (enabled_)
            counters_[name] += v;
    }

    /** Host seconds summed over every span named @p name. */
    double
    seconds(const std::string &name) const
    {
        auto it = totals_.find(name);
        return it == totals_.end() ? 0.0 : it->second;
    }

    /** Seconds of spans named @p name not covered by a child span. */
    double
    selfSeconds(const std::string &name) const
    {
        double us = 0;
        for (const Span &s : spans_)
            if (s.name == name)
                us += s.end_us - s.begin_us - s.child_us;
        return us * 1e-6;
    }

    double
    counter(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0.0 : it->second;
    }

    /** Write all spans as Chrome trace-event JSON; false on I/O error. */
    bool
    writeChromeJson(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        out << std::fixed << std::setprecision(3)
            << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
                << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
                << s.begin_us << ",\"dur\":" << s.end_us - s.begin_us
                << ",\"args\":{\"id\":" << i << ",\"parent\":"
                << s.parent << ",\"op\":" << s.op << "}}";
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now()
                                                         - origin_)
            .count();
    }

    std::size_t
    open(const char *name)
    {
        Span s;
        s.name = name;
        s.parent = stack_.empty() ? -1 : static_cast<int>(stack_.back());
        s.op = op_;
        s.begin_us = nowUs();
        spans_.push_back(std::move(s));
        stack_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }

    void
    close(std::size_t idx)
    {
        Span &s = spans_[idx];
        s.end_us = nowUs();
        totals_[s.name] += (s.end_us - s.begin_us) * 1e-6;
        if (s.parent >= 0)
            spans_[static_cast<std::size_t>(s.parent)].child_us +=
                s.end_us - s.begin_us;
        stack_.pop_back();
    }

    bool enabled_;
    Clock::time_point origin_;
    std::uint64_t op_ = 0;
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
    std::map<std::string, double> totals_;
    std::map<std::string, double> counters_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH

/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span is one call into a layer: name, start, end, parent span and
 * the id of the operation (one guest run slice, one fuzz case, one
 * replayed artifact) it belongs to. Spans are kept in memory and
 * written out once, when the run ends. Self time of a span is its
 * duration minus the part covered by its child spans; everything runs
 * on one thread, so children never overlap.
 *
 * Recording is off unless a Tracer is installed, so an untraced run
 * pays one null compare per wrapped call.
 */

#ifndef PERFBENCH_TRACE_HH_
#define PERFBENCH_TRACE_HH_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Seconds on the steady clock since an arbitrary epoch. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::uint64_t op = 0;
    double children = 0.0; //!< seconds covered by direct children

    double self() const { return end - start - children; }
};

/** Per-layer totals derived from the recorded spans. */
struct LayerTotals
{
    double self_s = 0.0;
    std::uint64_t calls = 0;
};

class Tracer
{
  public:
    /** The recorder spans go to, or nullptr when tracing is off. */
    static Tracer *active;

    int
    begin(const char *name)
    {
        Span s;
        s.name = name;
        s.parent = stack.empty() ? -1 : stack.back();
        s.op = op;
        s.start = now();
        spans.push_back(s);
        stack.push_back(static_cast<int>(spans.size()) - 1);
        return stack.back();
    }

    void
    end(int id)
    {
        Span &s = spans[static_cast<std::size_t>(id)];
        s.end = now();
        stack.pop_back();
        if (s.parent >= 0)
            spans[static_cast<std::size_t>(s.parent)].children +=
                s.end - s.start;
    }

    /** Tag the spans that follow with operation id @p id. */
    void setOp(std::uint64_t id) { op = id; }

    const std::vector<Span> &all() const { return spans; }

    /** Self time and call count per span name. */
    std::map<std::string, LayerTotals> layers() const;

    /**
     * Self time of the spans named @p name whose parent is named
     * @p parent_name.
     */
    double selfUnder(const char *name, const char *parent_name) const;

    /** Write every span as one JSON object per line. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans;
    std::vector<int> stack;
    std::uint64_t op = 0;
};

/** RAII span; records nothing when tracing is off. */
class Scope
{
  public:
    explicit Scope(const char *name)
        : id(Tracer::active ? Tracer::active->begin(name) : -1)
    {
    }
    ~Scope()
    {
        if (id >= 0)
            Tracer::active->end(id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int id;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH_

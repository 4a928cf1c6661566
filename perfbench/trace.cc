#include "trace.hh"

#include <cstdio>
#include <cstring>

namespace perfbench {

Tracer *Tracer::active = nullptr;

std::map<std::string, LayerTotals>
Tracer::layers() const
{
    std::map<std::string, LayerTotals> out;
    for (const Span &s : spans) {
        LayerTotals &t = out[s.name];
        t.self_s += s.self();
        ++t.calls;
    }
    return out;
}

double
Tracer::selfUnder(const char *name, const char *parent_name) const
{
    double total = 0.0;
    for (const Span &s : spans) {
        if (s.parent < 0 || std::strcmp(s.name, name) != 0)
            continue;
        const Span &p = spans[static_cast<std::size_t>(s.parent)];
        if (std::strcmp(p.name, parent_name) == 0)
            total += s.self();
    }
    return total;
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,"
                     "\"op\":%llu,\"start\":%.9f,\"end\":%.9f,"
                     "\"self\":%.9f}\n",
                     i, s.name, s.parent,
                     static_cast<unsigned long long>(s.op), s.start, s.end,
                     s.self());
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench

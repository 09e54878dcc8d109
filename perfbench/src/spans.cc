#include "spans.h"

#include <algorithm>
#include <map>

#include "bench.h"

namespace perfbench {

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

int
Tracer::begin(const char *name)
{
    if (!enabled_)
        return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, nowNs(), 0, parent});
    const int id = static_cast<int>(spans_.size() - 1);
    open_.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    spans_[static_cast<size_t>(id)].endNs = nowNs();
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

std::vector<Tracer::Row>
Tracer::rows() const
{
    std::vector<double> childNs(spans_.size(), 0.0);
    for (const Record &span : spans_)
        if (span.parent >= 0)
            childNs[static_cast<size_t>(span.parent)] +=
                static_cast<double>(span.endNs - span.startNs);

    std::map<std::string, Row> byName;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Record &span = spans_[i];
        const double dur = static_cast<double>(span.endNs - span.startNs);
        Row &row = byName[span.name];
        row.name = span.name;
        ++row.calls;
        row.totalMs += dur * 1e-6;
        row.selfMs += (dur - childNs[i]) * 1e-6;
    }
    std::vector<Row> out;
    for (auto &[name, row] : byName)
        out.push_back(row);
    std::sort(out.begin(), out.end(), [](const Row &a, const Row &b) {
        return a.selfMs > b.selfMs;
    });
    return out;
}

double
Tracer::totalMs(const std::string &name) const
{
    double ns = 0.0;
    for (const Record &span : spans_)
        if (name == span.name)
            ns += static_cast<double>(span.endNs - span.startNs);
    return ns * 1e-6;
}

double
Tracer::coverage(const std::string &root) const
{
    double rootNs = 0.0;
    double childNs = 0.0;
    for (const Record &span : spans_) {
        if (root == span.name)
            rootNs += static_cast<double>(span.endNs - span.startNs);
        else if (span.parent >= 0 &&
                 root == spans_[static_cast<size_t>(span.parent)].name)
            childNs += static_cast<double>(span.endNs - span.startNs);
    }
    return rootNs > 0.0 ? childNs / rootNs : 0.0;
}

void
Tracer::printTable(std::FILE *out, const std::string &title,
                   const std::string &root) const
{
    const double rootMs = totalMs(root);
    std::fprintf(out, "where the time goes: %s (traced wall %.1f ms, "
                      "spans cover %.1f%%)\n",
                 title.c_str(), rootMs, 100.0 * coverage(root));
    std::fprintf(out, "  %-44s %9s %12s %12s %7s\n", "span", "calls",
                 "total ms", "self ms", "self %");
    for (const Row &row : rows()) {
        std::fprintf(out, "  %-44s %9llu %12.2f %12.2f %6.1f%%\n",
                     row.name.c_str(),
                     static_cast<unsigned long long>(row.calls), row.totalMs,
                     row.selfMs,
                     rootMs > 0.0 ? 100.0 * row.selfMs / rootMs : 0.0);
    }
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        return false;
    const int64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
    std::fprintf(file, "{\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Record &span = spans_[i];
        std::fprintf(file,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                     "\"parent\":%d}}",
                     i == 0 ? "" : ",", span.name,
                     static_cast<double>(span.startNs - origin) * 1e-3,
                     static_cast<double>(span.endNs - span.startNs) * 1e-3, i,
                     span.parent);
    }
    std::fprintf(file, "\n]}\n");
    return std::fclose(file) == 0;
}

} // namespace perfbench

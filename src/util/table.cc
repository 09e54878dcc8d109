#include "util/table.h"

#include <algorithm>
#include <cstdio>

#include "util/logging.h"
#include "util/units.h"

namespace wsp {

void
Table::setHeader(std::vector<std::string> header)
{
    WSP_CHECK(rows_.empty());
    header_ = std::move(header);
}

void
Table::addRow(std::vector<std::string> row)
{
    WSP_CHECK(row.size() == header_.size());
    rows_.push_back(std::move(row));
}

std::string
Table::render() const
{
    std::vector<size_t> widths(header_.size(), 0);
    for (size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_)
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto render_row = [&](const std::vector<std::string> &row) {
        std::string line = "|";
        for (size_t c = 0; c < row.size(); ++c) {
            line += " " + row[c];
            line.append(widths[c] - row[c].size() + 1, ' ');
            line += "|";
        }
        return line + "\n";
    };

    std::string rule = "+";
    for (size_t w : widths) {
        rule.append(w + 2, '-');
        rule += "+";
    }
    rule += "\n";

    std::string out = "== " + title_ + " ==\n" + rule;
    out += render_row(header_);
    out += rule;
    for (const auto &row : rows_)
        out += render_row(row);
    out += rule;
    return out;
}

void
Table::print() const
{
    std::fputs(render().c_str(), stdout);
}

void
AsciiChart::addSeries(const Series &series)
{
    WSP_CHECK(!series.xs.empty());
    series_.push_back(series);
}

std::string
AsciiChart::render(size_t width, size_t height) const
{
    WSP_CHECK(!series_.empty());

    double x_min = series_.front().xs.front();
    double x_max = x_min;
    double y_min = series_.front().ys.front();
    double y_max = y_min;
    for (const auto &s : series_) {
        for (double x : s.xs) {
            x_min = std::min(x_min, x);
            x_max = std::max(x_max, x);
        }
        for (double y : s.ys) {
            y_min = std::min(y_min, y);
            y_max = std::max(y_max, y);
        }
    }
    if (x_max == x_min)
        x_max = x_min + 1.0;
    if (y_max == y_min)
        y_max = y_min + 1.0;

    static const char kGlyphs[] = "*o+x#@%&";
    std::vector<std::string> grid(height, std::string(width, ' '));

    for (size_t si = 0; si < series_.size(); ++si) {
        const auto &s = series_[si];
        const char glyph = kGlyphs[si % (sizeof(kGlyphs) - 1)];
        for (size_t i = 0; i < s.xs.size(); ++i) {
            const double xf = (s.xs[i] - x_min) / (x_max - x_min);
            const double yf = (s.ys[i] - y_min) / (y_max - y_min);
            auto col = static_cast<size_t>(
                xf * static_cast<double>(width - 1) + 0.5);
            auto row = static_cast<size_t>(
                yf * static_cast<double>(height - 1) + 0.5);
            grid[height - 1 - row][col] = glyph;
        }
    }

    char buf[128];
    std::string out = "== " + title_ + " ==\n";
    std::snprintf(buf, sizeof(buf), "%s (top=%.4g bottom=%.4g)\n",
                  yLabel_.c_str(), y_max, y_min);
    out += buf;
    for (const auto &row : grid)
        out += "  |" + row + "\n";
    out += "  +" + std::string(width, '-') + "\n";
    std::snprintf(buf, sizeof(buf), "   %s: left=%.4g right=%.4g\n",
                  xLabel_.c_str(), x_min, x_max);
    out += buf;
    for (size_t si = 0; si < series_.size(); ++si) {
        std::snprintf(buf, sizeof(buf), "   %c %s\n",
                      kGlyphs[si % (sizeof(kGlyphs) - 1)],
                      series_[si].name.c_str());
        out += buf;
    }
    return out;
}

void
AsciiChart::print() const
{
    std::fputs(render().c_str(), stdout);
}

void
ShapeCheck::expectBetween(const std::string &what, double value, double lo,
                          double hi)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "value %.4g, expected [%.4g, %.4g]",
                  value, lo, hi);
    record(what, value >= lo && value <= hi, buf);
}

void
ShapeCheck::expectGreater(const std::string &what, double a, double b)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.4g vs %.4g", a, b);
    record(what, a > b, buf);
}

void
ShapeCheck::expectRatio(const std::string &what, double a, double b,
                        double lo, double hi)
{
    const double ratio = (b == 0.0) ? 0.0 : a / b;
    char buf[128];
    std::snprintf(buf, sizeof(buf), "ratio %.3g, expected [%.3g, %.3g]",
                  ratio, lo, hi);
    record(what, b != 0.0 && ratio >= lo && ratio <= hi, buf);
}

void
ShapeCheck::expectTrue(const std::string &what, bool ok)
{
    record(what, ok, ok ? "holds" : "violated");
}

void
ShapeCheck::record(const std::string &what, bool ok,
                   const std::string &detail)
{
    lines_.push_back(std::string(ok ? "  [PASS] " : "  [FAIL] ") + what +
                     " (" + detail + ")");
    if (!ok)
        ++failures_;
}

bool
ShapeCheck::summarize() const
{
    std::printf("shape check: %s\n", experiment_.c_str());
    for (const auto &line : lines_)
        std::printf("%s\n", line.c_str());
    std::printf("shape check result: %s (%d of %zu failed)\n",
                failures_ == 0 ? "PASS" : "FAIL", failures_, lines_.size());
    return failures_ == 0;
}

} // namespace wsp

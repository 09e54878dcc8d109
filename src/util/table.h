/**
 * @file
 * Paper-style table and figure rendering for bench output.
 *
 * Every bench binary regenerates one table or figure from the paper
 * and prints it through these helpers so the output format is uniform:
 * an aligned text table (optionally also CSV), an ASCII line chart for
 * figures, and a ShapeCheck summary that records whether the measured
 * result preserves the paper's qualitative shape.
 */

#pragma once

#include <string>
#include <vector>

#include "util/stats.h"

namespace wsp {

/** Aligned text table with a title, column headers, and string cells. */
class Table
{
  public:
    explicit Table(std::string title) : title_(std::move(title)) {}

    /** Set the column headers; must be called before addRow(). */
    void setHeader(std::vector<std::string> header);

    /** Append one row; must match the header's column count. */
    void addRow(std::vector<std::string> row);

    /** Render as an aligned text table. */
    std::string render() const;

    /** Print render() to stdout. */
    void print() const;

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/**
 * ASCII line chart over one or more series, for figure benches.
 * Series are drawn with distinct glyphs and listed in a legend.
 */
class AsciiChart
{
  public:
    AsciiChart(std::string title, std::string x_label, std::string y_label)
        : title_(std::move(title)), xLabel_(std::move(x_label)),
          yLabel_(std::move(y_label))
    {}

    void addSeries(const Series &series);

    /** Render to a character grid of the given size. */
    std::string render(size_t width = 72, size_t height = 20) const;

    /** Print render() to stdout. */
    void print() const;

  private:
    std::string title_;
    std::string xLabel_;
    std::string yLabel_;
    std::vector<Series> series_;
};

/**
 * Records qualitative expectations ("who wins, by roughly what factor,
 * where crossovers fall") and reports PASS/FAIL per expectation. Bench
 * main()s return nonzero when any expectation fails so the harness can
 * flag drift from the paper's shape.
 */
class ShapeCheck
{
  public:
    explicit ShapeCheck(std::string experiment)
        : experiment_(std::move(experiment))
    {}

    /** Expect @p value to lie within [lo, hi]. */
    void expectBetween(const std::string &what, double value, double lo,
                       double hi);

    /** Expect @p a > @p b. */
    void expectGreater(const std::string &what, double a, double b);

    /** Expect ratio a/b to lie within [lo, hi]. */
    void expectRatio(const std::string &what, double a, double b, double lo,
                     double hi);

    /** Expect a boolean condition, described by @p what. */
    void expectTrue(const std::string &what, bool ok);

    /** Print the PASS/FAIL summary; returns true when all passed. */
    bool summarize() const;

    bool allPassed() const { return failures_ == 0; }

  private:
    void record(const std::string &what, bool ok, const std::string &detail);

    std::string experiment_;
    std::vector<std::string> lines_;
    int failures_ = 0;
};

} // namespace wsp

#!/usr/bin/env python3
"""Plot the CSV or JSON series emitted by the bench binaries.

Every figure bench writes `results/results_<bench>.csv` (columns
    series,x,y,ci95_half_width
under the directory it ran in) plus a machine-readable
`results/BENCH_<bench>.json` summary (schema_version 1/2: a `series` array
of {name, x, y, ci95_half_width} objects; see bench/bench_common.hpp).
This script turns one or more of either format into matplotlib figures
(PNG next to each input file), shading the 95% confidence band where
present.

    ./scripts/plot_results.py results/results_fig3_arrival_rate.csv
    ./scripts/plot_results.py results/BENCH_fig3_arrival_rate.json
    ./scripts/plot_results.py --logx --logy results/results_*.csv

Benches that emit several metric families into one file prefix the series
name (`AWCT:...`, `WASTED:...`, `XOVER-AWCT:...`; see
bench/fault_degradation.cpp).  Use --metric to plot one family at a
time — series whose name is the prefix or starts with "<prefix>:":

    ./scripts/plot_results.py --metric WASTED --logx --logy \
        results/results_fault_degradation.csv
    ./scripts/plot_results.py --metric XOVER-AWCT \
        results/results_fault_degradation.csv
"""
import argparse
import collections
import csv
import json
import os
import sys


def load_series_csv(path):
    """Returns {series name: (xs, ys, cis)} preserving file order."""
    data = collections.OrderedDict()
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        required = {"series", "x", "y"}
        if not required.issubset(reader.fieldnames or ()):
            raise SystemExit(
                f"{path}: expected columns series,x,y[,ci95_half_width]")
        for row in reader:
            xs, ys, cis = data.setdefault(row["series"], ([], [], []))
            xs.append(float(row["x"]))
            ys.append(float(row["y"]))
            ci = row.get("ci95_half_width") or ""
            cis.append(float(ci) if ci else 0.0)
    return data


def load_series_json(path):
    """Loads a BENCH_<bench>.json summary (schema_version 1 or 2)."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema_version") not in (1, 2):
        raise SystemExit(f"{path}: unsupported schema_version "
                         f"{doc.get('schema_version')!r}")
    if "series" not in doc:
        raise SystemExit(f"{path}: no 'series' array to plot "
                         f"(bench {doc.get('bench')!r})")
    data = collections.OrderedDict()
    for s in doc["series"]:
        cis = s.get("ci95_half_width") or []
        cis = cis + [0.0] * (len(s["x"]) - len(cis))
        data[s["name"]] = (list(s["x"]), list(s["y"]), cis)
    return data


def load_series(path):
    if path.endswith(".json"):
        return load_series_json(path)
    return load_series_csv(path)


def plot_file(path, args, plt):
    data = load_series(path)
    if args.metric:
        data = collections.OrderedDict(
            (name, series) for name, series in data.items()
            if name == args.metric or name.startswith(args.metric + ":"))
        if not data:
            raise SystemExit(
                f"{path}: no series match --metric {args.metric}")
    fig, ax = plt.subplots(figsize=(7, 4.5))
    for name, (xs, ys, cis) in data.items():
        line, = ax.plot(xs, ys, marker="o", markersize=3, label=name)
        if any(cis):
            lo = [y - c for y, c in zip(ys, cis)]
            hi = [y + c for y, c in zip(ys, cis)]
            ax.fill_between(xs, lo, hi, alpha=0.15, color=line.get_color())
    if args.logx:
        ax.set_xscale("log")
    if args.logy:
        ax.set_yscale("log")
    title = (os.path.basename(path)
             .removeprefix("results_").removeprefix("BENCH_")
             .removesuffix(".csv").removesuffix(".json"))
    ax.set_title(title)
    ax.set_xlabel(args.xlabel)
    ax.set_ylabel(args.ylabel)
    ax.legend(fontsize=8)
    ax.grid(True, alpha=0.3)
    suffix = f".{args.metric}" if args.metric else ""
    out = os.path.splitext(path)[0] + suffix + ".png"
    fig.tight_layout()
    fig.savefig(out, dpi=150)
    print(f"wrote {out}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("csv_files", nargs="+", metavar="FILE",
                        help="results_<bench>.csv or BENCH_<bench>.json")
    parser.add_argument("--logx", action="store_true")
    parser.add_argument("--logy", action="store_true")
    parser.add_argument("--metric", default="",
                        help="only plot series named PREFIX or 'PREFIX:...' "
                             "(e.g. WASTED, XOVER-AWCT)")
    parser.add_argument("--xlabel", default="x")
    parser.add_argument("--ylabel", default="AWCT")
    args = parser.parse_args()
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        raise SystemExit("matplotlib is required: pip install matplotlib")
    for path in args.csv_files:
        plot_file(path, args, plt)


if __name__ == "__main__":
    sys.exit(main())

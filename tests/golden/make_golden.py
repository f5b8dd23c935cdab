"""Golden ledger of the bundled scenarios: its format, its tolerances, and
the script that rewrites it.

``scenarios.json`` holds, for every bundled scenario run at its bundled
seed, each line its CSV writes: the comment lines (scenario, kind, seed,
description and meta lines, but not the version line), every metric, the
column header and every cell. ``tests/test_cli.py`` compares a fresh run
of each scenario against it inside ``test_bundled_scenario_passes``.

Tolerances, fixed before any value moves:

* text (comment lines, header, string cells) compares exactly, and a
  number must keep its type (int or float);
* numbers compare at 1e-12 relative, with an absolute floor of 1e-15 for
  cells that are exact zeros at one side (round-off of about 1e-17 shows
  in such cells);
* residuals (the metrics and columns in RESIDUALS) compare at 1e-12
  absolute. Each is a difference of O(1) numbers, so a last-bit change in
  its operands moves it by a large relative amount and by nothing the
  model can mean.

Regenerate the ledger only for an intended change of physics, and say in
CHANGES.md which values moved and why:

    PYTHONPATH=src python tests/golden/make_golden.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import warnings

LEDGER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "scenarios.json")

RTOL = 1e-12
ATOL_FLOOR = 1e-15
RESIDUAL_ATOL = 1e-12
RESIDUALS = frozenset({
    "trace_defect", "final_tv_vs_thermal", "mean_n_closed_abs_err",
    "fast_max_closed_err", "residual", "max_abs_error", "abs_err",
    "norm_defect",
})


def parse_cell(text: str):
    """A CSV cell as the int or float it was written from, else the text."""
    try:
        if str(int(text)) == text:
            return int(text)
    except ValueError:
        pass
    try:
        if repr(float(text)) == text:
            return float(text)
    except ValueError:
        pass
    return text


def parse_csv(text: str) -> dict:
    """Ledger entry of one scenario CSV as ``ionsim run`` writes it."""
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    metrics = {}
    for ln in comments:
        if ln.startswith("# metric "):
            name, _, value = ln[len("# metric "):].partition(" = ")
            metrics[name] = parse_cell(value)
    return {
        "comments": [ln for ln in comments[1:] if not ln.startswith("# metric ")],
        "metrics": metrics,
        "header": body[0],
        "rows": [[parse_cell(c) for c in ln.split(",")] for ln in body[1:]],
    }


def _close(want, got, residual: bool) -> bool:
    if type(want) is not type(got):
        return False
    if isinstance(want, str):
        return want == got
    if residual:
        return abs(got - want) <= RESIDUAL_ATOL
    return abs(got - want) <= max(RTOL * abs(want), ATOL_FLOOR)


def mismatches(want: dict, got: dict) -> list[str]:
    """Every difference of a fresh entry from the ledger, one per line."""
    out = []
    for key in ("comments", "header"):
        if want[key] != got[key]:
            out.append(f"{key}: {got[key]!r} != ledger {want[key]!r}")
    if list(want["metrics"]) != list(got["metrics"]):
        out.append(f"metric names {list(got['metrics'])} != ledger "
                   f"{list(want['metrics'])}")
    for name, w in want["metrics"].items():
        g = got["metrics"].get(name)
        if name in got["metrics"] and not _close(w, g, name in RESIDUALS):
            out.append(f"metric {name}: {g!r} != ledger {w!r}")
    if len(want["rows"]) != len(got["rows"]):
        out.append(f"{len(got['rows'])} rows != ledger {len(want['rows'])}")
    columns = [c.split(" [")[0] for c in want["header"].split(",")]
    for i, (wr, gr) in enumerate(zip(want["rows"], got["rows"])):
        if len(wr) != len(gr):
            out.append(f"row {i}: {len(gr)} cells != ledger {len(wr)}")
            continue
        for col, w, g in zip(columns, wr, gr):
            if not _close(w, g, col in RESIDUALS):
                out.append(f"row {i} {col}: {g!r} != ledger {w!r}")
    return out


def main() -> int:
    from ionsim import cli

    ledger = {}
    with tempfile.TemporaryDirectory() as out_dir:
        for s in cli.list_scenarios():
            name = s["name"]
            with warnings.catch_warnings(), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("ignore")
                rc = cli.main(["run", name, "--out", out_dir])
            if rc != 0:
                print(f"{name}: exit {rc}", file=sys.stderr)
                return 1
            with open(os.path.join(out_dir, f"{name}.csv"), encoding="utf-8") as fh:
                ledger[name] = parse_csv(fh.read())
    with open(LEDGER, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(ledger, fh, indent=1, allow_nan=False)
        fh.write("\n")
    print(f"wrote {len(ledger)} scenarios to {LEDGER}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

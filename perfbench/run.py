"""Whole-pass benchmark of ionsim.

    python3 perfbench/run.py --workload cli_light --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: ionsim is imported from ``src/``
of the checkout, nothing has to be installed. Each run starts fresh
Python processes one after another (a closed loop, one operation at a
time) with BLAS/OpenMP held to one thread, and prints one JSON line last:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1``
the per-layer ones. Outputs go to ``perfbench/out/``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import select
import subprocess
import sys
import time

from catalog import FRESH_PROCESSES, IMPORT_FIGURES, WORKLOADS, layer_names, runs_first_pass

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
TIME_LIMIT_S = 170.0
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def import_times_ms(stderr_text: str) -> dict:
    """Cumulative import time in ms per module from ``python -X importtime``."""
    out = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if cumulative.strip().isdigit():
            out.setdefault(name.strip(), int(cumulative) / 1e3)
    return out


class Worker:
    """One fresh worker process; its stderr goes to a file, stdout is JSON lines."""

    def __init__(self, cmd, env, err_path, deadline):
        self.err_path, self.deadline = err_path, deadline
        self.started = time.monotonic()
        with open(err_path, "w", encoding="utf-8") as err:
            self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, stderr=err, text=True)

    def read(self) -> dict:
        fd = self.proc.stdout.fileno()
        ready, _, _ = select.select([fd], [], [], max(0.0, self.deadline - time.monotonic()))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.close()
            raise BenchError(self._why())
        return json.loads(line)

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        """Wait for the process to end, killing it if it is still running."""
        if self.proc.returncode is None:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.communicate()

    def _why(self) -> str:
        if time.monotonic() >= self.deadline:
            return f"worker exceeded the {TIME_LIMIT_S:.0f} s limit"
        self.proc.wait()
        with open(self.err_path, encoding="utf-8") as fh:
            return f"worker exited {self.proc.returncode}:\n{fh.read()[-2000:]}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ionsim", "cli.py")):
        print(f"no ionsim source under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    unknown = {m["name"] for m in spec["per_layer"]} - layer_names()
    if unknown:
        print(f"BENCHMARK.json names layer figures no run produces: {sorted(unknown)}",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = os.path.join(BENCH, "out", tag)
    shutil.rmtree(out_dir, ignore_errors=True)
    cli_dir = os.path.join(out_dir, "cli")
    os.makedirs(cli_dir)
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    env.update({k: "1" for k in ONE_THREAD})
    deadline = time.monotonic() + TIME_LIMIT_S

    fresh = FRESH_PROCESSES[args.workload]

    def start(i: int, first_pass: bool, serve: bool) -> Worker:
        cmd = [sys.executable] + (["-X", "importtime"] if args.trace else []) + [
            os.path.join(BENCH, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--out", os.path.join(cli_dir, f"w{i}"),
            "--first-pass", str(int(first_pass)), "--serve", str(int(serve)),
            "--trace", str(args.trace), "--spans-file", os.path.join(out_dir, "spans.json")]
        return Worker(cmd, env, os.path.join(out_dir, f"worker{i}.err"), deadline)

    # The warm process starts first; the other fresh processes run between
    # its chunks of warm passes, so that set-up, first passes and warm
    # passes all sample the whole run and not one phase of the machine.
    reports, setup_s, workers = [], [], []
    try:
        warm = start(0, runs_first_pass(args.workload, 0), True)
        workers.append(warm)
        setup_s.append(warm.read()["ready_at"] - warm.started)
        for i in range(1, fresh):
            w = start(i, runs_first_pass(args.workload, i), False)
            workers.append(w)
            reports.append(w.read())
            w.close()
            setup_s.append(reports[-1]["ready_at"] - w.started)
            warm.send(f"warm {args.seconds * i / (fresh - 1)!r}")
            warm.read()
        warm.send("end")
        reports.append(warm.read())
        warm.close()
        for rep in reports:
            if not os.path.abspath(rep["ionsim_file"]).startswith(SRC + os.sep):
                raise BenchError(f"ionsim imported from {rep['ionsim_file']}, not {SRC}")
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    finally:
        for w in workers:
            w.close()
        shutil.rmtree(cli_dir, ignore_errors=True)
    imports = []
    if args.trace:
        for w in workers:
            with open(w.err_path, encoding="utf-8") as fh:
                imports.append(import_times_ms(fh.read()))

    work = reports[-1]
    errors = [e for r in reports for e in r["errors"]]
    for name, sha in work["csv_sha"].items():
        if any(r["csv_sha"].get(name, sha) != sha for r in reports):
            errors.append(f"{name}: CSV bytes differ between fresh processes")
    if args.trace:
        figures = {name: 0 for name in layer_names()}
        for key in work["layers"][0]:
            figures[key] = statistics.median(p.get(key, 0) for p in work["layers"])
        for name, module in IMPORT_FIGURES:
            figures[name] = statistics.median(t[module] for t in imports)
        figures["bench.pass_cpu_s"] = statistics.median(work["pass_cpu_s"])
        figures["bench.trace_overhead_s"] = (statistics.median(work["traced_pass_s"])
                                            - statistics.median(work["pass_s"]))
    else:
        figures = {
            "setup_s": statistics.median(setup_s),
            "first_pass_s": statistics.median(r["first_pass_s"] for r in reports
                                              if r["first_pass_s"] is not None),
            "pass_s": statistics.median(work["pass_s"]),
            "peak_rss_mb": work["peak_rss_mb"],
        }
    result = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "setup_s_samples": setup_s,
                   "first_pass_s_samples": [r["first_pass_s"] for r in reports],
                   "pass_s_samples": work["pass_s"], "errors": errors}, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

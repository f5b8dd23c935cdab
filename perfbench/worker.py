"""One fresh benchmark process: set up, run passes, check, report.

Started by ``run.py`` with ionsim on ``PYTHONPATH`` and BLAS/OpenMP held
to one thread. Set-up is importing ``ionsim.cli`` and building the
workload's inputs. With ``--serve 1`` the process then prints
``{"ready_at": ...}`` and runs warm passes whenever ``warm <total s>``
arrives on stdin, until ``end``. Last it prints one JSON report: the
monotonic time at which set-up ended, pass wall and CPU times, operation
counts, check failures, peak RSS and, for traced passes, per-layer
figures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import sys
import time

import ionsim.cli as cli

from catalog import CALL_COUNTS, CLI_HEAVY, CLI_LIGHT, COUNTED, SPANNED, WORKLOADS
from spans import Tracer, layer_totals, span_calls, write_spans


def _resolve(pairs):
    out = []
    for name, ref in pairs:
        mod, attr = ref.split(":")
        out.append((name, getattr(sys.modules[f"ionsim.{mod}"], attr)))
    return out


def strict_json(text: str):
    """json.loads that rejects the NaN/Infinity tokens Python's json accepts."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


class CliWorkload:
    """Bundled scenarios run through ``cli.main`` as a shell user runs them."""

    def __init__(self, names, seed: int, out_dir: str):
        self.names = sorted(names)
        random.Random(seed).shuffle(self.names)
        self.out_dir = out_dir
        self.ops_per_pass = len(self.names)
        self.csv_sha: dict[str, str] = {}
        self.rows = 0     # CSV data rows of the last checked pass

    def prepare(self, index: int):
        """Argument lists of one pass, writing into a new empty directory.

        Rewriting the files of an earlier pass in place makes the file
        system flush them on close, a disk wait that varies from pass to
        pass and belongs to the machine, not to ionsim.
        """
        shutil.rmtree(os.path.join(self.out_dir, f"pass{index - 1}"), ignore_errors=True)
        pass_dir = os.path.join(self.out_dir, f"pass{index}")
        return [(n, ["run", n, "--out", pass_dir, "--json"]) for n in self.names]

    def run_pass(self, argvs, tracer: Tracer | None):
        outputs = []
        for name, argv in argvs:
            main = tracer.wrap(cli.main, f"scenario.{name}") if tracer else cli.main
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = main(argv)
            except Exception as err:  # a crash is a failed operation, not a dead run
                outputs.append((name, None, f"{type(err).__name__}: {err}"))
                continue
            outputs.append((name, rc, buf.getvalue()))
        return outputs

    def check(self, _inputs, outputs):
        """(failed, errors) of one pass; every failure here is also an error."""
        failed, errors, rows = 0, [], 0
        for name, rc, text in outputs:
            errs = []
            if rc != 0:
                errs.append(f"{name}: exit {rc} ({text[-200:]})")
            else:
                try:
                    summary = strict_json(text)
                except ValueError as err:
                    summary = {}
                    errs.append(f"{name}: --json output is not strict JSON ({err})")
                if summary and summary.get("result") != "PASS":
                    errs.append(f"{name}: result {summary.get('result')!r}")
                if summary:
                    with open(summary["outputs"][0], "rb") as fh:
                        csv = fh.read()
                    rows += sum(1 for line in csv.splitlines()
                                if not line.startswith(b"#")) - 1
                    sha = hashlib.sha256(csv).hexdigest()
                    if self.csv_sha.setdefault(name, sha) != sha:
                        errs.append(f"{name}: CSV bytes changed between passes")
            failed += bool(errs)
            errors += errs
        self.rows = rows
        return failed, errors


class KernelWorkload:
    """Direct library calls with parameters drawn fresh for every pass."""

    def __init__(self, seed: int):
        import kernels    # only here: its imports must not load modules for cli_*
        self.k = kernels
        self.seed = seed
        self.first = kernels.build_pass(seed, 0)
        self.ops_per_pass = len(self.first)
        self.csv_sha: dict[str, str] = {}
        self.rows = 0

    def prepare(self, index: int):
        return self.first if index == 0 else self.k.build_pass(self.seed, index)

    def run_pass(self, ops, tracer: Tracer | None):
        outputs = []
        for _, run, _, params in ops:
            try:
                outputs.append((True, run(params)))
            except Exception as err:  # recorded here, judged by check()
                outputs.append((False, err))
        return outputs

    def check(self, ops, outputs):
        failed, errors = 0, []
        for (name, _, check, params), (ok, out) in zip(ops, outputs):
            if not ok:
                failed += 1
                if not self.k.is_known_failure(name, out):
                    errors.append(f"{name}: {type(out).__name__}: {out}")
                continue
            errors += [f"{name}: {e}" for e in check(params, out)]
        return failed, errors


class Runner:
    """Runs and times passes of one workload in this process."""

    def __init__(self, work, trace: bool, spans_file: str | None):
        self.work = work
        self.tracer = Tracer() if trace else None
        self.spans_file = spans_file
        self.spanned, self.counted = _resolve(SPANNED), _resolve(COUNTED)
        self.index = 0
        self.warm_s = 0.0           # wall time spent in warm passes and their checks
        self.traced_passes: list[dict] = []
        self.deferred = []          # kernel checks run after timing: no peak RSS from them
        self.report = {"attempted": 0, "failed": 0, "errors": [], "first_pass_s": None,
                       "pass_s": [], "pass_cpu_s": [], "traced_pass_s": [], "layers": [],
                       "ionsim_file": cli.__file__}

    def one_pass(self, traced: bool):
        work, tracer, report = self.work, self.tracer, self.report
        inputs = work.prepare(self.index)
        if traced:
            tracer.install(self.spanned, self.counted, cli._HANDLERS)
        c0, t0 = time.process_time(), time.perf_counter()
        outputs = work.run_pass(inputs, tracer if traced else None)
        t1, c1 = time.perf_counter(), time.process_time()
        if traced:
            tracer.uninstall()
        self.index += 1
        report["attempted"] += work.ops_per_pass
        if isinstance(work, KernelWorkload):
            self.deferred.append((inputs, outputs))
        else:
            self._judge(inputs, outputs)
        if traced:
            spans, counts = tracer.take_spans(), tracer.take_counts()
            self.traced_passes.append({"index": self.index - 1, "t0": t0, "t1": t1,
                                       "counts": counts, "spans": spans})
            layers = layer_totals(spans, t1 - t0)
            calls = span_calls(spans)
            layers.update({f"{n}_calls": calls.get(n, 0) for n in CALL_COUNTS})
            layers.update(counts)
            layers["cli.rows"] = work.rows
            report["layers"].append(layers)
        return t1 - t0, c1 - c0

    def _judge(self, inputs, outputs) -> None:
        failed, errors = self.work.check(inputs, outputs)
        self.report["failed"] += failed
        self.report["errors"] += errors

    def first_pass(self) -> None:
        self.report["first_pass_s"], _ = self.one_pass(False)

    def warm_pass(self) -> None:
        """One warm pass; a traced run alternates untraced and traced passes."""
        r = self.report
        traced = self.tracer is not None and len(r["pass_s"]) > len(r["traced_pass_s"])
        start = time.perf_counter()
        wall, cpu = self.one_pass(traced)
        self.warm_s += time.perf_counter() - start
        if traced:
            r["traced_pass_s"].append(wall)
        else:
            r["pass_s"].append(wall)
            r["pass_cpu_s"].append(cpu)

    def warm_until(self, total_s: float) -> None:
        while self.warm_s < total_s:
            self.warm_pass()

    def finish(self, warm: bool) -> dict:
        r = self.report
        while warm and (not r["pass_s"] or (self.tracer is not None and not r["traced_pass_s"])):
            self.warm_pass()
        r["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for inputs, outputs in self.deferred:
            self._judge(inputs, outputs)
        r["csv_sha"] = self.work.csv_sha
        if self.traced_passes and self.spans_file:
            write_spans(self.spans_file, {"workload": r["workload"], "seed": r["seed"]},
                        self.traced_passes)
        return r


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory for CLI outputs")
    ap.add_argument("--first-pass", type=int, default=1)
    ap.add_argument("--serve", type=int, default=0,
                    help="after set-up, run warm passes on 'warm <total s>' lines from "
                         "stdin until 'end'")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans-file", default=None)
    args = ap.parse_args(argv)

    if args.workload == "kernel_sweep":
        work = KernelWorkload(args.seed)
    else:
        names = CLI_LIGHT if args.workload == "cli_light" else CLI_HEAVY
        work = CliWorkload(names, args.seed, args.out)
    ready_at = time.monotonic()

    runner = Runner(work, bool(args.trace), args.spans_file)
    runner.report.update(ready_at=ready_at, workload=args.workload, seed=args.seed)
    if args.first_pass:
        runner.first_pass()
    if args.serve:
        print(json.dumps({"ready_at": ready_at}), flush=True)
        for line in sys.stdin:
            cmd = line.split()
            if cmd[0] == "end":
                break
            runner.warm_until(float(cmd[1]))
            print(json.dumps({"warm_s": runner.warm_s}), flush=True)
    print(json.dumps(runner.finish(bool(args.serve))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of algindex on seeded job documents.

Each workload's documents go through the public entry point
``algindex.cli.main(["--format", "json", "run", doc])`` in one warm,
single-threaded process, and every result is checked against its known
answer.  Run from the root of a source checkout:

    python3 perfbench/run.py --workload sphere-charts --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                      # every workload, every metric

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run of the same documents (spans are written under .bench_trace/).
Without ``--workload`` the workloads run one after another, untraced and
traced, and every metric is printed.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import workloads
from speed import SpeedMeter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DOCS_DIR = ROOT / ".bench_docs"
TRACE_DIR = ROOT / ".bench_trace"

SETUP_LAUNCHES = 15
SETUP_CODE = "import algindex.cli as cli; cli.load_schema()"


class DeadlineExceeded(BaseException):
    """Raised by the alarm when a document overruns its deadline.

    A BaseException, so that no handler in the program can swallow it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def import_program():
    """Import algindex from this checkout's src/, and nowhere else."""
    if not (SRC / "algindex" / "cli.py").is_file():
        sys.exit(f"error: no algindex sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import algindex.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "algindex":
        sys.exit(f"error: algindex was imported from {cli.__file__}, not from {SRC}")
    return cli


class SetupProbe:
    """Launches fresh interpreters that import the CLI and load its schema.

    The launches are spread evenly over the measuring time, between
    documents, so that their median does not hinge on one moment of a shared
    machine.  Each launch is kept as a (start, end) interval.
    """

    def __init__(self, launches, seconds):
        self.intervals = []
        self.launches = launches
        self.spacing = seconds / launches
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self._env = env
        self._launch()  # fills the bytecode cache; a user's second run starts from it
        self.intervals.clear()

    def _launch(self):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=self._env, cwd=ROOT,
                       check=True, timeout=60,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.intervals.append((start, perf_counter()))

    def due(self, elapsed):
        """Make every launch that is due at this point of the run."""
        while (len(self.intervals) < self.launches
               and elapsed >= len(self.intervals) * self.spacing):
            self._launch()

    def finish(self):
        while len(self.intervals) < self.launches:
            self._launch()


# ---------------------------------------------------------------------------
# running and checking one document
# ---------------------------------------------------------------------------


def run_document(cli, path, deadline_s, recorder=None):
    """(exit code or "deadline" or "traceback", stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["--format", "json", "run", str(path)]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            try:
                if recorder is None:
                    outcome = cli.main(argv)
                else:
                    outcome = recorder.call(recorder.ROOT_SPAN, cli.main, argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        outcome = "deadline"
    except SystemExit as exc:
        outcome = exc.code
    except Exception:
        err.write(traceback.format_exc())
        outcome = "traceback"
    finally:
        signal.signal(signal.SIGALRM, previous)
    return outcome, out.getvalue(), err.getvalue()


def check_document(doc, outcome, stdout, stderr):
    """(computations attempted, computations failed, messages)."""
    expect = doc.expect
    attempted = expect.computations
    if outcome == "deadline":
        return attempted, attempted, [f"{doc.name}: deadline exceeded"]
    if "Traceback" in stderr or outcome == "traceback":
        return attempted, attempted, [f"{doc.name}: traceback\n{stderr}"]
    if outcome != expect.exit_code:
        return attempted, attempted, [
            f"{doc.name}: exit code {outcome}, expected {expect.exit_code}: {stderr.strip()}"]
    if expect.exit_code == 2:
        good = stdout == "" and stderr.startswith("error: ")
        return attempted, 0 if good else attempted, [] if good else [
            f"{doc.name}: rejection without a one-line diagnostic: {stderr!r}"]
    try:
        results = {item["label"]: item for item in json.loads(stdout)["results"]}
    except (ValueError, KeyError, TypeError) as exc:
        return attempted, attempted, [f"{doc.name}: unreadable output ({exc})"]
    failed, messages = 0, []
    for label, ok in expect.ok.items():
        item = results.get(label)
        if item is None or item["ok"] is not ok:
            failed += 1
            messages.append(f"{doc.name}/{label}: ok={item and item['ok']}, expected {ok}")
            continue
        check = expect.checks.get(label) if ok else None
        try:
            problem = check(item["result"]) if check else None
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            problem = f"malformed result ({exc!r})"
        if problem:
            failed += 1
            messages.append(f"{doc.name}/{label}: {problem}")
    extra = sorted(set(results) - set(expect.ok))
    if extra:
        failed += len(extra)
        messages.append(f"{doc.name}: unexpected computations {extra}")
    return attempted + len(extra), failed, messages


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


class Tally:
    """Latency intervals of each document slot, and the failure count of a run.

    A run may stop part-way through a round, so slots can hold different
    numbers of samples; figures per pass are built from each slot's own
    samples and then summed over the slots.
    """

    def __init__(self, docs):
        self.samples = {doc.name: [] for doc in docs}
        self.attempted = 0
        self.failed = 0
        self.messages = []

    @property
    def rounds(self):
        """Samples of the slot that has the fewest."""
        return min(len(intervals) for intervals in self.samples.values())

    def last(self, slot):
        intervals = self.samples[slot]
        return intervals[-1][1] - intervals[-1][0] if intervals else 0.0

    def pass_time(self, clock, summary=statistics.median):
        """The time of one pass: each slot's summary latency, summed."""
        return sum(summary([clock(start, end) for start, end in intervals])
                   for intervals in self.samples.values())

    def latencies(self, clock):
        """Every latency of the complete rounds.

        A cut round would weigh the slots it reached first more, and move the
        median between slots.
        """
        return [clock(start, end) for intervals in self.samples.values()
                for start, end in intervals[:self.rounds]]


def wall_seconds(start, end):
    return end - start


def _run_and_check(cli, doc, path, deadline_s, tally, recorder=None):
    if recorder is not None:
        recorder.request = doc.name
        recorder.enable()
    try:
        doc_start = perf_counter()
        outcome, stdout, stderr = run_document(cli, path, deadline_s, recorder)
        doc_end = perf_counter()
    finally:
        if recorder is not None:
            recorder.disable()
    tally.samples[doc.name].append((doc_start, doc_end))
    attempted, failed, messages = check_document(doc, outcome, stdout, stderr)
    tally.attempted += attempted
    tally.failed += failed
    tally.messages.extend(messages)


def run_rounds(cli, docs, paths, deadline_s, seconds, recorder=None, setup=None):
    """Run the documents round after round until the next one would overrun.

    The first round always completes; after it, a document is started only if
    its previous run still fits in ``seconds``.  Returns the untraced tally
    and, with a recorder, the traced one: each document then runs twice in a
    row, once without and once with the recorder, and the order alternates
    from round to round, so both see the machine at the same moments.
    """
    plain = Tally(docs)
    traced = Tally(docs) if recorder is not None else None
    start = perf_counter()
    for round_index in itertools.count():
        for doc, path in zip(docs, paths):
            cost = plain.last(doc.name) + (traced.last(doc.name) if traced else 0.0)
            if round_index and perf_counter() - start + cost > seconds:
                return plain, traced
            if setup is not None:
                setup.due(perf_counter() - start)
            modes = [(plain, None)] + ([(traced, recorder)] if traced else [])
            if round_index % 2:
                modes.reverse()
            for tally, mode_recorder in modes:
                _run_and_check(cli, doc, path, deadline_s, tally, mode_recorder)


def write_documents(workload, seed, docs):
    directory = DOCS_DIR / f"{workload}-{seed}"
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for position, doc in enumerate(docs):
        path = directory / f"{position:02d}-{doc.name}.yaml"
        path.write_text(doc.text)
        paths.append(path)
    return paths


def _metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end_metrics(tally, setup_intervals, clock, peak_rss=True):
    """The end-to-end metrics, with every interval measured by ``clock``."""
    latencies = tally.latencies(clock)
    setups = [clock(start, end) for start, end in setup_intervals]
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s", len(setups)),
        "pass_s": _metric(tally.pass_time(clock), "s", tally.rounds),
        "doc_s_p50": _metric(statistics.median(latencies), "s", len(latencies)),
    }
    if peak_rss:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = _metric(rss_mb, "MB", 1)
    return metrics


def environment():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"python {platform.python_version()}, nproc {os.cpu_count()}, cpu {cpu}")


def run_workload(cli, name, seed, seconds, trace, alone=True):
    """Measure one workload; returns (metrics, failure tally, report lines).

    ``alone`` says that this process runs no other workload, so that its
    peak RSS belongs to this one.
    """
    workload = workloads.WORKLOADS[name]
    docs = workloads.generate(name, seed)
    paths = write_documents(name, seed, docs)
    lines = [f"workload {name} ({'traced' if trace else 'untraced'}): "
             f"{len(docs)} documents, seed {seed}, "
             f"deadline {workload.deadline_s:g} s per document -- {workload.why}"]

    warm = workloads.BUNDLED / "torus-flat.yaml"
    run_document(cli, warm, workload.deadline_s)  # imports and caches before timing
    if not trace:
        with SpeedMeter() as meter:
            setup = SetupProbe(SETUP_LAUNCHES, seconds)
            tally, _ = run_rounds(cli, docs, paths, workload.deadline_s, seconds,
                                  setup=setup)
            setup.finish()
        metrics = end_to_end_metrics(tally, setup.intervals, meter.reference_seconds, alone)
        raw = end_to_end_metrics(tally, setup.intervals, wall_seconds, False)
        lines.append(f"machine speed: {meter.speed():.3f} of the reference "
                     f"({len(meter.times)} samples); raw wall times: "
                     + ", ".join(f"{k} {m['value']:.4g} s" for k, m in raw.items()))
        lines.append(_tail_latency(tally.latencies(meter.reference_seconds)))
        if not alone:
            lines.append("peak_rss_mb is left out: it is measured with --workload only")
        failures = tally
    else:
        from spans import Recorder, per_layer_metrics

        recorder = Recorder()
        recorder.install()
        try:
            with SpeedMeter() as meter:
                plain, traced = run_rounds(cli, docs, paths, workload.deadline_s, seconds,
                                           recorder)
        finally:
            recorder.uninstall()
        TRACE_DIR.mkdir(exist_ok=True)
        span_file = TRACE_DIR / f"{name}-{seed}.jsonl"
        recorder.write(span_file)
        layer = per_layer_metrics(recorder, traced, plain, meter.reference_seconds)
        metrics = {k: _metric(v, unit, traced.rounds) for k, (v, unit) in layer.items()}
        lines.append(f"{len(recorder.spans)} spans written to {span_file.relative_to(ROOT)}; "
                     f"traced pass_s {traced.pass_time(meter.reference_seconds):.4g} s, "
                     f"untraced {plain.pass_time(meter.reference_seconds):.4g} s")
        failures = traced
        failures.attempted += plain.attempted
        failures.failed += plain.failed
        failures.messages = plain.messages + failures.messages
    counts = {slot: len(intervals) for slot, intervals in failures.samples.items()}
    lines.append("samples per document: "
                 + ", ".join(f"{slot} {n}" for slot, n in counts.items()))
    lines.append(f"computations: {failures.attempted} attempted, {failures.failed} failed "
                 f"(fail_ratio {failures.failed / failures.attempted:.4g})")
    for key, m in metrics.items():
        lines.append(f"  {key:42s} {m['value']:14.6g} {m['unit']:10s} n={m['samples']}")
    lines.extend(f"FAILED {message}" for message in failures.messages[:20])
    return metrics, failures, lines


def _tail_latency(latencies):
    """The highest percentile of document latency with ten samples beyond it."""
    ordered = sorted(latencies)
    if len(ordered) <= 10:
        return f"doc latency: {len(ordered)} samples, too few for a tail percentile"
    rank = len(ordered) - 10
    return (f"doc latency p{100 * rank / len(ordered):.0f} {ordered[rank - 1]:.4g} s "
            f"({len(ordered)} samples, 10 beyond it)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time per run (per workload)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program()
    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    print(f"algindex benchmark -- {environment()}")
    if args.workload is not None:
        runs = [(args.workload, args.trace)]
    else:
        runs = [(name, trace) for name in workloads.WORKLOADS for trace in (0, 1)]
    metrics, attempted, failed = {}, 0, 0
    for name, trace in runs:
        found, tally, lines = run_workload(cli, name, args.seed, args.seconds, trace,
                                           alone=args.workload is not None)
        print("\n".join(lines), flush=True)
        prefix = "" if args.workload is not None else f"{name}/"
        metrics.update({prefix + k: {"value": m["value"], "unit": m["unit"]}
                        for k, m in found.items()})
        attempted += tally.attempted
        failed += tally.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

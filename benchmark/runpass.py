"""Run one pass of a workload: every scenario as its own fresh nlfront process.

    python3 benchmark/runpass.py SRC_DIR PASS.json

PASS.json lists the scenarios as {"config", "out", "spans"} objects: the
config file, the directory its artifacts go to, and the span file of the
outside-in tracer (null for an untraced pass).  This interpreter imports
numpy, scipy and nlfront from SRC_DIR once and then forks one child per
scenario.  A child starts from the state a fresh interpreter has after those
imports, runs nothing another scenario ran, validates its config and makes
one ``nlfront.cli.run`` call, the way one command-line invocation answers one
question; then it exits.  The BLAS and OpenMP pools are pinned to one thread
by the caller, so this interpreter has no threads when it forks.

The speed of the machine is sampled from the import of numpy to the end of
each call: a fixed unit of calibration work (interpreter work and small
FFTs) is timed at the start, every TICK_S seconds after (from a SIGALRM
handler) and at the end.  Each stretch between two samples is scaled to the
reference speed by the mean of the two; the time spent in the samples is
taken out of every figure.  The import of numpy itself is scaled by the
first sample.

Prints one JSON list, a report per scenario: setup_s (the imports plus the
child's config validation), wall_s and cpu_s of the call as measured, their
scaled values (setup_ref_s, wall_ref_s, cpu_ref_s), call_s (the whole call,
samples during it included), the range of the samples, peak_rss_mb, code,
error and status; when traced, the tracer summary and whether every wrapped
attribute was restored.  A child that gives no report gets an error entry.
"""
import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

start = time.perf_counter()
src, plan = sys.argv[1:]
sys.path.insert(0, src)

import numpy  # noqa: E402

# Seconds of one calibration unit at the reference speed (a round figure
# between the unit's fast and usual times on the 2-vCPU machine in
# README.md), and the sampling period.
UNIT_REF_S = 0.005
TICK_S = 0.2
_signal = numpy.linspace(0.0, 1.0, 4096)


def unit() -> None:
    """One fixed unit of interpreter work and small FFTs, like nlfront's."""
    acc = 0
    for i in range(25_000):
        acc += i * i % 7
    for _ in range(40):
        numpy.fft.irfft(numpy.fft.rfft(_signal))


class Speedometer:
    """Samples of the unit's time, (start, end, seconds per unit), while it runs."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self.cpu_in_samples = 0.0

    def sample(self, units: int = 1) -> None:
        c0, t0 = time.process_time(), time.perf_counter()
        for _ in range(units):
            unit()
        t1 = time.perf_counter()
        self.samples.append((t0, t1, (t1 - t0) / units))
        self.cpu_in_samples += time.process_time() - c0

    def _tick(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        self.sample(20)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample(20)

    def measured(self, t0: float, t1: float) -> tuple[float, float]:
        """Seconds of [t0, t1] outside the samples: as measured, and at the
        reference speed, each stretch scaled by the samples on either side."""
        raw = ref = 0.0
        for (_, end, a), (begin, _, b) in zip(self.samples, self.samples[1:]):
            lo, hi = max(end, t0), min(begin, t1)
            if hi > lo:
                raw += hi - lo
                ref += (hi - lo) * UNIT_REF_S / (0.5 * (a + b))
        return raw, ref


speed = Speedometer()
speed.start()
import scipy  # noqa: E402,F401
from nlfront import cli  # noqa: E402

imported = time.perf_counter()
speed.stop()
first_begin, first_end, first = speed.samples[0]
import_s, import_ref_s = speed.measured(first_end, imported)
import_s += first_begin - start            # import numpy, before the first sample
import_ref_s += (first_begin - start) * UNIT_REF_S / first


def run_scenario(config: str, out: str, spans: str | None) -> dict:
    """One scenario in this (forked) process: validate, call, measure."""
    meter = Speedometer()
    meter.start()
    t0 = time.perf_counter()
    with open(config) as fh:
        cli.validate_config(json.load(fh))
    validated = time.perf_counter()
    tracer = None
    if spans:
        from tracer import Tracer, snapshot
        before = snapshot()
        tracer = Tracer()
        tracer.install()
    captured = io.StringIO()
    report = {}
    c0 = time.process_time() - meter.cpu_in_samples
    w0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            report["code"] = cli.run(config, out_dir=out)
        report["error"] = None
    except Exception:  # a scenario that raises counts as failed
        report["code"], report["error"] = None, traceback.format_exc(limit=-4)
    w1 = time.perf_counter()
    meter.stop()
    cpu_s = time.process_time() - c0 - meter.cpu_in_samples
    validate_s, validate_ref_s = meter.measured(t0, validated)
    wall_s, wall_ref_s = meter.measured(w0, w1)
    units = [s for _, _, s in meter.samples]
    report.update({
        "setup_s": import_s + validate_s,
        "setup_ref_s": import_ref_s + validate_ref_s,
        "call_s": w1 - w0,
        "wall_s": wall_s,
        "wall_ref_s": wall_ref_s,
        "cpu_s": cpu_s,
        "cpu_ref_s": cpu_s * wall_ref_s / wall_s,
        "unit_s": [min(units), max(units)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "status": captured.getvalue(),
    })
    if tracer is not None:
        tracer.uninstall()
        after = snapshot()
        report["restored"] = after.keys() == before.keys() and all(
            after[k] is v for k, v in before.items())
        report["trace"] = tracer.summary()
        tracer.write(spans)
    return report


def fork_scenario(item: dict) -> dict:
    """Run one scenario in a forked child; its report, or why there is none."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the loop below
        code = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "w") as fh:
                json.dump(run_scenario(item["config"], item["out"], item["spans"]), fh)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    try:
        return json.loads(text)
    except ValueError:
        return {"error": f"scenario process ended with status {status} and no report"}


with open(plan) as fh:
    items = json.load(fh)
print(json.dumps([fork_scenario(item) for item in items]))

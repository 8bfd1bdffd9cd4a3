"""gh401 benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/gh401`` of that checkout and nowhere else.  With ``--trace 0`` the
last stdout line is a JSON object holding every end-to-end metric; with
``--trace 1`` it holds the per-layer metrics of a traced run.  Earlier
lines print the same figures by name with their units, the provenance,
and (traced) the full per-layer breakdown and its self-checks.  See
``perfbench/DESIGN.md`` for the workloads and the metrics.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is imported, here
# and in the set-up probes this process starts: one client, no extra threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Golden digests in golden.json were recorded from this seed.
DEFAULT_SEED = 0

SETUP_REPEATS = 15
SETUP_PROBE = ("import time; t0 = time.perf_counter(); import gh401; "
               "gh401.bundled_sbox('aes'); print(time.perf_counter() - t0)")

# A traced run's per-layer numbers come from every other op; the ops in
# between run untraced so the same run measures the tracing overhead.
MIN_OPS_TRACED_RUN = 2


@dataclass
class Op:
    index: int
    traced: bool
    op_s: float
    cycle_s: float
    result: object
    problems: list
    golden_checked: bool


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def measure_setup():
    """Median time, in fresh interpreters, to import gh401 and load the aes S-box."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    # The first probe is discarded: it may byte-compile src/gh401.
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            fail(f"set-up probe failed: {out.stderr.strip()}")
        if i:
            samples.append(float(out.stdout))
    return statistics.median(samples), samples


def import_program():
    init = SRC / "gh401" / "__init__.py"
    sys.path.insert(0, str(SRC))
    import gh401
    import gh401.cli  # noqa: F401  (the CLI is not imported by the package)

    if Path(gh401.__file__).resolve() != init.resolve():
        fail(f"gh401 was imported from {gh401.__file__}, not from {init}")
    return gh401


def tail(samples):
    """Highest percentile with at least ten samples beyond it, and its label.

    Below 30 samples that percentile is under p67, barely a tail.  There
    the linearly interpolated p90 is reported instead, labelled as such:
    it is steadier than the maximum, which one slow spell of the machine
    decides.  The switch sits well away from every workload's sample count
    on a 2-core Intel Xeon VM (1, 11-17 and 42-64 per run), so a run does
    not flip between the two definitions.
    """
    xs = sorted(samples)
    n = len(xs)
    if n >= 30:
        return xs[n - 11], f"p{100 * (n - 10) / n:.1f}"
    pos = 0.9 * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), "p90 interpolated"


def measure(w, seconds, golden, tracer):
    """Run ops back to back until the next one would end past ``seconds``."""
    ops = []
    start = perf_counter()
    while True:
        i = len(ops)
        traced = tracer is not None and i % 2 == 0
        c0 = perf_counter()
        inp = w.make_input(i, w.side)
        if traced:
            tracer.open_op(i)
        t0 = perf_counter()
        try:
            res, problems = w.run(inp), []
        except (Exception, SystemExit) as exc:  # a failed op is counted, not fatal
            res, problems = None, [f"{type(exc).__name__}: {exc}"]
        finally:
            op_s = perf_counter() - t0
            if traced:
                tracer.close_op()
        checked = False
        if res is not None:
            try:
                problems = w.check(inp, res)
                if golden is not None and i < len(golden):
                    checked = True
                    if w.golden(inp, res) != golden[i]:
                        problems.append("outputs differ from the golden digest")
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        ops.append(Op(i, traced, op_s, perf_counter() - c0, res, problems, checked))
        elapsed = perf_counter() - start
        cycle = statistics.median(o.cycle_s for o in ops)
        if elapsed + cycle > seconds and (tracer is None or len(ops) >= MIN_OPS_TRACED_RUN):
            return ops


def end_to_end(ops, setup_s):
    """The end-to-end metrics of ``ops``: name -> (value, unit)."""
    op_s = [o.op_s for o in ops]
    done = [o for o in ops if o.result is not None and not o.problems]
    enc = [t for o in ops if o.result is not None for t in o.result.encrypt_s]
    dec = [t for o in ops if o.result is not None for t in o.result.decrypt_s]
    tail_s, _ = tail(op_s)
    return {
        "setup_s": (setup_s, "s"),
        "throughput_mpix_s": (sum(o.result.pixels for o in done) / sum(op_s) / 1e6, "MPix/s"),
        "op_ms_p50": (1e3 * statistics.median(op_s), "ms"),
        "op_ms_tail": (1e3 * tail_s, "ms"),
        "encrypt_ms_p50": (1e3 * statistics.median(enc) if enc else float("nan"), "ms"),
        "decrypt_ms_p50": (1e3 * statistics.median(dec) if dec else float("nan"), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def layer_metrics(tracer, ops, gh401):
    """Per-layer figures of the traced ops, each per op, plus the breakdown text."""
    from spans import ROOT as ROOT_SPAN, ancestor, self_times

    spans = tracer.spans
    own = self_times(spans)
    n_ops = sum(o.traced for o in ops)
    calls = {name: 0 for name in tracer.layers}
    self_s = {name: 0.0 for name in tracer.layers}
    work = {name: 0 for name in tracer.layers}
    for s, t in zip(spans, own):
        if s.name != ROOT_SPAN:
            calls[s.name] += 1
            self_s[s.name] += t
            work[s.name] += s.work
    unattributed = sum(t for s, t in zip(spans, own) if s.name == ROOT_SPAN)
    traced_op_s = sum(s.end - s.start for s in spans if s.name == ROOT_SPAN)

    orbit = "chaos.generate_orbit"
    orbit_in_decrypt = sum(1 for sid, s in enumerate(spans)
                           if s.name == orbit and ancestor(spans, sid, "cipher.decrypt"))
    cli_encrypts = sum(1 for s in spans if s.name == "cli" and s.tag == "encrypt")
    side_encodes_in_cli_encrypt = sum(
        1 for sid, s in enumerate(spans) if s.name == "cipher.side_file.encode"
        and getattr(ancestor(spans, sid, "cli"), "tag", None) == "encrypt")

    metrics = {}
    for layer in ("chaos.generate_orbit", "chaos.argsort_ascending", "chaos.build_sort_sequence",
                  "permute.forward", "diffuse.forward", "cipher.encrypt"):
        metrics[f"{layer}.self_s"] = (self_s[layer] / n_ops, "s")
    metrics[f"{orbit}.rows"] = (work[orbit] / n_ops, "count")
    metrics[f"{orbit}.ns_per_row"] = (1e9 * self_s[orbit] / work[orbit] if work[orbit] else 0.0, "ns")
    metrics[f"{orbit}.calls_in_decrypt"] = (orbit_in_decrypt / n_ops, "count")
    metrics["chaos.argsort_ascending.elems"] = (work["chaos.argsort_ascending"] / n_ops, "count")
    metrics["permute.bytes_computed"] = (
        (work["permute.forward"] + work["permute.invert_permute"]) / n_ops, "bytes")
    metrics["diffuse.blocks"] = (
        (work["diffuse.forward"] + work["diffuse.inverse_diffuse"]) / n_ops, "count")
    for layer in tracer.layers:
        metrics[f"{layer}.calls"] = (calls[layer] / n_ops, "count")

    untraced = [o.op_s for o in ops if not o.traced]
    untraced_op_s = statistics.mean(untraced)
    traced_mean = traced_op_s / n_ops
    layer_sum = sum(self_s.values()) / n_ops
    overhead = traced_mean / untraced_op_s - 1
    lines = [f"trace: {n_ops} traced ops, {len(untraced)} untraced ops, {len(spans)} spans"]
    lines.append(f"  {'layer':34} {'calls/op':>9} {'self ms/op':>11} {'share':>7}  computed work/op")
    for layer in sorted(tracer.layers, key=lambda name: -self_s[name]):
        if not calls[layer]:
            continue
        share = self_s[layer] / traced_op_s
        wk = f"{work[layer] / n_ops:.0f}" if work[layer] else ""
        lines.append(f"  {layer:34} {calls[layer] / n_ops:9.2f} "
                     f"{1e3 * self_s[layer] / n_ops:11.3f} {100 * share:6.2f}%  {wk}")
    missing = [layer for layer in tracer.layers if not calls[layer]]
    lines.append("  missing (zero calls, no time reported): " + (", ".join(missing) or "none"))
    lines.append(f"  traced op {1e3 * traced_mean:.3f} ms = layer self times {1e3 * layer_sum:.3f} ms"
                 f" + unattributed {1e3 * unattributed / n_ops:.3f} ms")
    lines.append(f"  untraced op {1e3 * untraced_op_s:.3f} ms; tracing overhead {100 * overhead:+.2f}%"
                 f" (untraced throughput / traced throughput - 1); layer self sum vs untraced op"
                 f" {100 * (layer_sum / untraced_op_s - 1):+.2f}%")
    lines.append(f"  self-check: {orbit} calls inside cipher.decrypt per op = "
                 f"{orbit_in_decrypt / n_ops:g}")
    if cli_encrypts:
        lines.append(f"  self-check: cipher.side_file.encode calls per CLI encrypt = "
                     f"{side_encodes_in_cli_encrypt / cli_encrypts:g}")
    key_bytes = [o.result.outputs["key_bytes"] for o in ops
                 if o.result is not None and "key_bytes" in o.result.outputs]
    if key_bytes:
        nominal = gh401.cipher.NOMINAL_ENVELOPE_BYTES
        lines.append(f"  cipher.key_bytes = {statistics.mean(key_bytes):.1f} per op "
                     f"(min {min(key_bytes)}, max {max(key_bytes)}; "
                     f"{statistics.mean(key_bytes) / nominal:.3f} x NOMINAL_ENVELOPE_BYTES {nominal})")
    return metrics, lines


def provenance(gh401, args, ops):
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "gh401").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        git_sha = out.stdout.strip() or None
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": len(ops), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha, "src_sha256": src_hash.hexdigest(),
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gh401" / "__init__.py").is_file():
        fail(f"no program to benchmark: {SRC / 'gh401'} is missing")
    if not args.trace:
        setup_s, setup_samples = measure_setup()
    gh401 = import_program()
    from spans import Tracer, install_layers
    from workloads import WARMUP_SIDE, WORKLOADS

    golden = None
    if args.seed == DEFAULT_SEED:
        with open(HERE / "golden.json", encoding="utf-8") as fh:
            golden = json.load(fh)["workloads"][args.workload]

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    w = WORKLOADS[args.workload](gh401, args.seed, str(workdir))
    tracer = None
    try:
        w.run(w.make_input(0, WARMUP_SIDE))  # lazy set-up outside the timed window
        if args.trace:
            tracer = Tracer()
            install_layers(tracer, gh401)
        t0 = perf_counter()
        ops = measure(w, args.seconds, golden, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
        w.close()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [o for o in ops if o.result is None or o.problems]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(provenance(gh401, args, ops)))
    for o in failed[:10]:
        print(f"FAILED op {o.index}: " + "; ".join(o.problems))
    golden_checked = sum(o.golden_checked for o in ops)
    print(f"checks: {len(ops) - len(failed)}/{len(ops)} ops passed; golden digests compared "
          f"on {golden_checked} ops" + ("" if golden is not None else
                                        f" (digests exist for seed {DEFAULT_SEED} only)"))
    if args.trace:
        metrics, lines = layer_metrics(tracer, ops, gh401)
        print("\n".join(lines))
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", t0)
    else:
        metrics = end_to_end(ops, setup_s)
        _, label = tail([o.op_s for o in ops])
        notes = {
            "setup_s": f"median of {len(setup_samples)} fresh interpreters",
            "op_ms_p50": f"n={len(ops)}",
            "op_ms_tail": f"{label}, n={len(ops)}",
        }
        for name, (value, unit) in metrics.items():
            print(f"  {name:18} {value:14.6f} {unit:7} {notes.get(name, '')}")
    print(f"  {'error_rate':18} {len(failed) / len(ops):14.6f} {'':7} "
          f"{len(failed)} failed / {len(ops)} attempted")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

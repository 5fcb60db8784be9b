"""One benchmark process: set up, then run passes over a workload's items.

    python3 perfbench/worker.py MODE MANIFEST [SECONDS]
    python3 perfbench/worker.py crosscheck EXPERIMENT...

MODE is `setup` (set up and run one pass), `time` (set up, one warm-up
pass, then timed passes for SECONDS), `trace` (the same with layer spans) or
`crosscheck` (frame counts on the shipped sample configs).  The worker prints
one JSON object on its last stdout line.  Set-up time is taken from the top
of this file, before numpy or finslab is imported, to the end of config
loading and jet-plan building.  The reference kernel (reference.py) is timed
right after set-up and after every item, to scale times to a fixed machine
speed.
"""

import time

START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def setup(manifest_path: Path):
    """Import finslab, load and resolve every config and metric file, and
    build the jet plans the workload uses.  Returns the loaded items."""
    from finslab import cli, jets

    manifest = json.loads(manifest_path.read_text())
    items = []
    for name, experiment in manifest["items"]:
        cfg = cli.load_config(manifest_path.parent / f"{name}.ini")
        for key in ("metric", "metric2", "lambda"):
            value = cfg.get("metric", key)
            if value is not None:
                cli.resolve_metric(value, cfg)
        items.append((name, experiment, cfg))
    for nvars, top in manifest["jet_spaces"]:
        for order in range(top + 1):
            space = jets.jet_space(nvars, order)
            space.mul_plan()
            if order > 0:
                for var in range(nvars):
                    space.diff_plan(var)
    return items


def run_pass(items, tracer=None):
    """Run every item once, each followed by reference work for a tenth of
    its time.  Returns item name -> sha256 of its report records (or an
    error string for an item that raised or failed), the seconds spent in
    items, and the reference rate in units per second."""
    import reference
    from finslab import cli

    digests = {}
    item_s = ref_s = 0.0
    ref_units = 0
    for name, experiment, cfg in items:
        start = time.perf_counter()
        try:
            report = cli.run_experiment(experiment, cfg)
        except Exception as exc:  # an item failure is counted, not fatal
            digests[name] = f"error: {type(exc).__name__}: {exc}"
        else:
            digest = hashlib.sha256(report.records().encode()).hexdigest()
            digests[name] = digest if report.passed else f"failed: {digest}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_item()
        units, spent = reference.run_for(0.1 * elapsed)
        item_s += elapsed
        ref_units += units
        ref_s += spent
    return digests, item_s, ref_units / ref_s


def timed_passes(items, seconds: float, tracer=None) -> dict:
    """Run passes until `seconds` have elapsed; returns per pass the report
    digests, the item seconds, the reference rate and, when traced, a trace
    snapshot."""
    out = {"passes": [], "pass_s": [], "pass_rate": [], "pass_traces": []}
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds or not out["passes"]:
        digests, item_s, rate = run_pass(items, tracer)
        out["passes"].append(digests)
        out["pass_s"].append(item_s)
        out["pass_rate"].append(rate)
        if tracer is not None:
            out["pass_traces"].append(tracer.snapshot())
            tracer.reset()
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def versions() -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def crosscheck(names) -> dict:
    """Frames built and distinct on the shipped sample configs of the named
    experiments, counted by a hook on ConnectionFrame construction."""
    from finslab import cli
    from finslab.connection import ConnectionFrame
    from tracer import frame_key

    plain_init = ConnectionFrame.__init__
    built: list = []

    def init(self, m, v, order=4):
        plain_init(self, m, v, order)
        built.append((frame_key(m, v), order))

    ConnectionFrame.__init__ = init
    out = {}
    for name in names:
        built.clear()
        cfg = cli.load_config(ROOT / "configs" / f"{name}.ini")
        report = cli.run_experiment(name, cfg)
        out[name] = {"passed": report.passed, "frames_built": len(built),
                     "frames_distinct": len({key for key, _ in built}),
                     "frames_distinct_by_order": len(set(built))}
    return out


def main(argv) -> dict:
    mode = argv[0]
    if mode == "crosscheck":
        return {"crosscheck": crosscheck(argv[1:])}
    manifest = Path(argv[1])
    seconds = float(argv[2]) if len(argv) > 2 else 0.0
    tracer = None
    if mode == "trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    items = setup(manifest)
    setup_s = time.perf_counter() - START
    import reference
    units, spent = reference.run_for(0.2)
    out = {"setup_s": setup_s, "setup_rate": units / spent, "versions": versions()}
    if tracer is not None:
        out["setup_trace"] = tracer.snapshot()
        tracer.reset()
    out["first_pass"] = run_pass(items, tracer)[0]
    out["peak_rss_mb"] = peak_rss_mb()
    if mode == "setup":
        return out
    if tracer is not None:
        tracer.reset()
    out.update(timed_passes(items, seconds, tracer))
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))

"""One benchmark pass, run in a fresh process by bench/run.py.

    python3 bench/child.py CONFIG OUT_DIR COMMAND [COMMAND ...] [--spans FILE]
                           [--cholesky-calibration]

Set-up (timed as ``setup_s``) is the package import plus building the
config, spec, order, schedule and joint covariance.  The pass (timed as
``wall_s``) is ``stepanneal.cli.main`` on each COMMAND in turn.  A fixed
calibration kernel runs just before and just after the pass (``calib_s``,
the sum), so that bench/run.py can scale the timings to a reference machine
speed; ``--cholesky-calibration`` adds a large Cholesky part to it.  Every
pass counts the denoiser calls of each generation (``generation_nfe``).
With ``--spans`` the layer boundaries are also traced (bench/spans.py) and
the spans are written to FILE after the pass.  The last stdout line is a
JSON object with the timings, the call counts, the exit codes, the peak RSS
and the library versions.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time


def calibrate(cholesky: bool) -> float:
    """Seconds for a fixed kernel of the kinds of work a pass does: small
    numpy linear algebra, float formatting and Python dict building.  With
    ``cholesky``, also factoring and solving with a 512x512 matrix, the mean
    observed-block size of the big field's conditioning."""
    import numpy

    rng = numpy.random.default_rng(0)
    shift = 64.0 * numpy.eye(16)
    if cholesky:
        big = numpy.random.default_rng(1).standard_normal((512, 512))
        spd = big @ big.T + 512.0 * numpy.eye(512)
    started = time.perf_counter()
    for _ in range(1000):
        a = rng.standard_normal((16, 64))
        factor = numpy.linalg.cholesky(a @ a.T + shift)
        text = ",".join(repr(v) for v in numpy.linalg.solve(factor, a)[0].tolist())
        {i: text[i:i + 8] for i in range(0, len(text), 8)}
    if cholesky:
        for _ in range(16):
            numpy.linalg.solve(numpy.linalg.cholesky(spd), big[:, :64])
    return time.perf_counter() - started


def peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space (``VmHWM``).
    ``ru_maxrss`` would also count the parent's memory when it spawned this
    process, which Linux carries over ``fork`` and ``exec``."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("out_dir")
    parser.add_argument("commands", nargs="+")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--cholesky-calibration", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    import scipy
    from stepanneal import cli
    from stepanneal.process import joint_covariance

    cfg = cli.load_config(args.config, {})
    spec = cli.build_spec(cfg)
    cli.build_order(cfg, spec)
    if cfg["schedule_kind"] is not None:
        cli.build_schedule(cfg)
    joint_covariance(spec)
    setup_s = time.perf_counter() - started

    import spans

    generation_nfe = spans.count_generation_calls()
    run = cli.main
    if args.spans:
        tracer = spans.Tracer()
        run = spans.install(tracer)
    calib_s = calibrate(args.cholesky_calibration)
    codes = []
    started = time.perf_counter()
    for command in args.commands:
        codes.append(run([command, "--config", args.config, "--out-dir", args.out_dir]))
    wall_s = time.perf_counter() - started
    calib_s += calibrate(args.cholesky_calibration)
    if args.spans:
        tracer.write(args.spans)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "calib_s": calib_s,
        "generation_nfe": generation_nfe,
        "exit_codes": codes,
        "peak_rss_mb": peak_rss_mb(),
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
    }))
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(main())

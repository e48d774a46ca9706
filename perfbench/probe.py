"""Set-up cost of one stage, timed in the fresh interpreter this script starts.

    python3 perfbench/probe.py ROOT gch CONFIG   # import gch from ROOT/src, parse CONFIG
    python3 perfbench/probe.py ROOT numpy        # import numpy alone
    python3 perfbench/probe.py ROOT scipy        # numpy, scipy.stats and scipy.integrate

Prints one JSON line with the stage's processor time (``time.process_time``),
its wall time, the peak resident memory of the interpreter after it, and
the factor (``scale``) that rescales its times to the reference host speed.
The ``gch`` stage is what every ``gch`` command pays before its work
starts: it imports nothing but gch, so its time holds exactly the imports
gch itself makes, and it reports whether scipy was among them.  The
``numpy`` and ``scipy`` stages run in interpreters of their own and only
split that time by library.

The host's speed phases (speed.py) slow an import as well as a run, in
processor time too: the slowdown is of the CPU, not a wait for it.  So
once the stage is timed, the interpreter times CALIBRATION iterations of
speed.py's loop (0.2-0.4 s), and ``scale`` converts the stage's times to
the reference speed from the speed that loop shows.  In a phase where the
loop ran 1.7x slower than at the reference speed, 40 probes of the ``gch``
stage read 0.92-1.30 s raw and 0.66-0.79 s rescaled (medians of 5); within
that one phase both spread by 8%, so the rescaling buys steadiness across
phases only.
"""

import json
import resource
import sys
import time

CALIBRATION = 4000


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    ``VmHWM`` restarts at exec; ``ru_maxrss`` would carry over the peak of
    the process that forked this one.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(root: str, stage: str, cfg_path: str | None = None) -> None:
    sys.path.insert(0, f"{root}/src")
    out = {"stage": stage}
    w0 = time.perf_counter()
    t0 = time.process_time()
    if stage == "numpy":
        import numpy  # noqa: F401
    elif stage == "scipy":
        import numpy  # noqa: F401
        import scipy.integrate  # noqa: F401
        import scipy.stats  # noqa: F401
    elif stage == "gch":
        import gch

        t_import = time.process_time()
        gch.parse_config_file(cfg_path)
    else:
        raise SystemExit(f"unknown stage {stage!r}")
    t_end = time.process_time()
    out["wall_s"] = time.perf_counter() - w0
    out["seconds"] = t_end - t0
    if stage == "gch":
        out["import_s"] = t_import - t0
        out["parse_s"] = t_end - t_import
        out["gch_file"] = gch.__file__
        out["scipy_loaded"] = "scipy" in sys.modules
    out["rss_mb"] = peak_rss_mb()

    import speed  # after the stage: it imports numpy

    c0 = time.process_time()
    speed.calibrate(CALIBRATION)
    spent = time.process_time() - c0
    out["scale"] = speed.rescale(1.0, CALIBRATION, spent)
    print(json.dumps(out))


if __name__ == "__main__":
    main(*sys.argv[1:])

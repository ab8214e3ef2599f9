"""One measured step in a fresh interpreter; started by ``run.py``.

    python child.py setup CONFIG MANIFEST
    python child.py command TRACE_FILE -- ARGS...

``setup`` times importing ``segtta`` and loading the config and manifest.
``command`` imports ``segtta``, then times ``segtta.cli.main(ARGS)``: wall
seconds, CPU seconds of this process and the processes it waited for, and
the interpreter's peak RSS. With a TRACE_FILE other than ``-`` the tracer
is installed first and its spans are written to that file at the end.
Either mode prints one JSON line as its last line of output.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def setup(config_path, manifest_path) -> dict:
    import segtta

    segtta.load_config(config_path)
    segtta.load_manifest(manifest_path)
    return {"setup_s": time.perf_counter() - STARTED}


def command(trace_path, argv) -> dict:
    import segtta.cli

    tracer = None
    if trace_path != "-":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    segtta.cli.main(argv)
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        with open(trace_path, "w") as f:
            json.dump(tracer.dump(), f)
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_kb / 1024}


def main(argv):
    if argv[0] == "setup":
        out = setup(argv[1], argv[2])
    else:
        out = command(argv[1], argv[3:])
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])

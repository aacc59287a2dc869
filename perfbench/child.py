"""Run a batch of CLI operations in one fresh interpreter.

Reads {"ops": [[argv...], ...], "trace": bool, "timeout": seconds} as JSON
on stdin and writes JSON lines on stdout: a "ready" line with the
monotonic time at which `qbroadcast.cli` finished importing, one line per
operation (exit code, captured stdout, latency), and a final line with the
peak RSS and, when tracing, the span statistics. Needs `src` on PYTHONPATH.
"""
import sys
import time

import qbroadcast.cli

IMPORTED = time.monotonic()

import contextlib  # noqa: E402  (after the timed import on purpose)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402


class OpTimeout(BaseException):
    """Raised by the alarm when an operation runs past its timeout; a
    BaseException so that no handler inside the program swallows it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def _environment() -> dict:
    import numpy

    blas = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "blas": blas}


def main() -> None:
    out = sys.stdout

    def emit(record: dict) -> None:
        out.write(json.dumps(record) + "\n")
        out.flush()

    spec = json.load(sys.stdin)
    emit({"ready": IMPORTED, "env": _environment() if not spec["ops"] else None})

    stats = None
    if spec.get("trace"):
        import tracer

        stats = tracer.SpanStats()
        tracer.install(stats)
    signal.signal(signal.SIGALRM, _on_alarm)

    for argv in spec["ops"]:
        buf, err = io.StringIO(), io.StringIO()
        error = None
        code = None
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, spec["timeout"])
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                if stats is not None:
                    stats.enter(f"cli.{argv[0]}")
                try:
                    code = qbroadcast.cli.run_command(list(argv))
                finally:
                    if stats is not None:
                        stats.exit()
        except OpTimeout:
            error = f"timeout after {spec['timeout']} s"
        except Exception:  # a traceback that would reach the user
            error = traceback.format_exc(limit=3)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latency = time.perf_counter() - start
        emit({"code": code, "stdout": buf.getvalue(), "stderr": err.getvalue(),
              "latency_s": latency, "error": error})

    emit({"done": True, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
          "trace": stats.as_dict() if stats is not None else None})


if __name__ == "__main__":
    main()

"""One benchmark operation, run in-process or in a fresh interpreter.

An operation is a dict.  With an "argv" key it is one `qtlab` command line,
run through `qtlab.cli.main` with stdout captured.  With a "quasitree" key it
is the library call `is_quasitree(load_graph(path), c_max)`, whose result is
written as sorted-key JSON.  Either way the result is (exit code, stdout
bytes, stderr text).

Run as a script, ``python3 perfbench/ops.py '<operation as JSON>'`` runs
one operation in the current directory and writes its stdout; the cold-start
metric times exactly that.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def quasitree_report(path, c_max):
    # looked up on the modules at call time, so traced runs see the wrappers
    import qtlab.io as qio
    import qtlab.metric_graph as qmg

    g = qio.load_graph(path)
    res = qmg.is_quasitree(g, c_max)
    rep = res.report
    wit = None
    if rep.witness is not None:
        w = rep.witness
        wit = {"x": w.x, "y": w.y, "z": w.z, "avoiding_path": list(w.avoiding_path)}
    return {"graph": path, "c_max": res.c_max, "passed": res.passed,
            "constant": rep.constant, "witness": wit, "n_vertices": rep.n_vertices}


def run_op(op):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if "argv" in op:
                import qtlab.cli

                rc = qtlab.cli.main(list(op["argv"]))
            else:
                rep = quasitree_report(op["quasitree"], op["c_max"])
                sys.stdout.write(json.dumps(rep, sort_keys=True, separators=(",", ":")) + "\n")
                rc = 0
        except Exception as exc:  # an operation that raises counts as failed
            err.write(f"{type(exc).__name__}: {exc}\n")
            rc = 1
    return rc, out.getvalue().encode(), err.getvalue()


def main():
    if len(sys.argv) != 2:
        sys.stderr.write("usage: ops.py '<operation as JSON>'\n")
        return 2
    sys.path.insert(0, SRC)
    rc, out, err = run_op(json.loads(sys.argv[1]))
    sys.stdout.buffer.write(out)
    sys.stderr.write(err)
    return rc


if __name__ == "__main__":
    sys.exit(main())

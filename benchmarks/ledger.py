#!/usr/bin/env python3
"""The executed-function ledger: which ``src/repro`` functions results run.

Runs every result, then tier-1, under a call-only profile hook (``HOOK``,
installed as ``sitecustomize``) and rewrites ``benchmarks/ledger.json``;
exits 1 when a function that no result runs has no reason of a kind in
``REASONS``.  DESIGN.md, "Executed-function ledger", says what counts as
a result and what each reason means.  Run: ``python benchmarks/ledger.py``
(about ten minutes on two cores; needs pytest, pytest-benchmark and
hypothesis).
"""

from __future__ import annotations

import concurrent.futures
import glob
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
LEDGER = os.path.join(ROOT, "benchmarks", "ledger.json")
REASONS = ("error path", "teardown", "dunder", "abstract", "test oracle",
           "pinned by benchmark row")
COUNT = "40"

HOOK = r'''
import atexit, cProfile, glob, json, os, sys, time, types
_src, _out = os.environ["LEDGER_SRC"], os.environ["LEDGER_OUT"]
_seen = set()
_add, _setprofile, _disable, _exit = (_seen.add, sys.setprofile,
                                      cProfile.Profile.disable, os._exit)

def _hook(frame, event, arg):
    if event == "call":
        _add(frame.f_code)

def setprofile(function):
    """Keep the hook under a program's profiler; re-arm it on None."""
    def chained(frame, event, arg):
        _hook(frame, event, arg)
        return function(frame, event, arg)
    _setprofile(_hook if function in (None, _hook) else chained)

def disable(self):
    """Keep what a cProfile run saw, then re-arm the hook."""
    _disable(self)
    _seen.update(entry.code for entry in self.getstats()
                 if isinstance(entry.code, types.CodeType))
    _setprofile(_hook)

def keys(codes):
    found = set()
    for code in list(codes):    # the hook may add to codes meanwhile
        path = os.path.abspath(code.co_filename)
        if (path.startswith(_src) and code.co_flags & 1
                and not code.co_name.startswith("<")):
            module = path[len(_src) + 1:-3].replace(os.sep, ".")
            found.add(module.removesuffix(".__init__") + ":"
                      + code.co_qualname)
    return found

def _dump():
    _setprofile(None)
    name = "%d-%d.keys" % (os.getpid(), time.time_ns())
    with open(os.path.join(_out, name), "w") as handle:
        handle.write("\n".join(sorted(keys(_seen))))

def _dump_then_exit(status):    # how a forked pool worker ends
    _dump()
    _exit(status)

os._exit, sys.setprofile = _dump_then_exit, setprofile
cProfile.Profile.disable = disable
atexit.register(_dump)
_setprofile(_hook)

# Tier-1 loads this module as a pytest plugin (-p sitecustomize).
_first = {}

def _claim(nodeid):
    found = keys(_seen)
    _seen.clear()
    for name in glob.glob(os.path.join(_out, "*.keys")):  # its children
        with open(name) as handle:
            found.update(handle.read().split())
        os.remove(name)
    for key in found:
        _first.setdefault(key, nodeid)

def pytest_collection_finish(session):
    _claim("collection")

def pytest_runtest_logstart(nodeid, location):
    _setprofile(_hook)

def pytest_runtest_logfinish(nodeid, location):
    _claim(nodeid)

def pytest_sessionfinish(session):
    with open(os.path.join(_out, "tests.json"), "w") as handle:
        json.dump(_first, handle)
'''


def functions(path: str, module: str) -> list:
    """Every named function the module at ``path`` compiles to."""
    with open(path, encoding="utf-8") as handle:
        stack, found = [compile(handle.read(), path, "exec")], []
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
        if code.co_flags & 1 and not code.co_name.startswith("<"):
            found.append(f"{module}:{code.co_qualname}")
    return found


def enumerate_src() -> dict:
    """``{module: [keys]}`` over every module under ``src/repro``."""
    modules = {}
    for path in sorted(glob.glob(os.path.join(SRC, "repro", "**", "*.py"),
                                 recursive=True)):
        module = os.path.relpath(path, SRC)[:-3].replace(os.sep, ".")
        module = module.removesuffix(".__init__")
        modules[module] = sorted(set(functions(path, module)))
    return modules


def results(scratch: str) -> list:
    """The command lines of every result, each run from the repo root."""
    python = sys.executable
    listing = subprocess.run(
        [python, "-m", "repro", "--list"], cwd=ROOT, check=True,
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC}).stdout
    runs, section = [], None
    for line in listing.splitlines():
        if not line.startswith(" "):
            section = line.split()[0] if line else None
            continue
        words = line.split()
        if section == "traceable":
            pairs = [(command, words[0]) for command in
                     ("trace", "latency", "profile", "objects")]
            timed = "timed" in line
        elif section == "aliases":
            pairs, timed = [(words[0], words[1])], False
        else:
            continue
        for command, name in pairs:
            out = os.path.join(scratch, f"{command}-{name}")
            options = [] if command == "objects" or timed else [
                "--count", COUNT]
            options += ["-o", out + ".json"]
            if command == "trace":
                options += ["--metrics", out + ".metrics.json"]
            elif command == "profile":
                options += ["--wallclock", "--collapsed", out + ".folded"]
            runs.append([python, "-m", "repro", command, name] + options)
    repro = [python, "-m", "repro"]
    return runs + [
        repro + ["latency", "table6", "--sweep", "--count", COUNT],
        repro + ["--full", "--jobs", "2"], repro + ["scale-tenants"],
        repro + ["prog"], [python, "benchmarks/perf/run.py", "--quick"],
        [python, "-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks",
         "--ignore=benchmarks/perf", "--benchmark-disable"],
    ] + [[python, path] for path in
         sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))]


def run(argv: list, env: dict) -> None:
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True)
    # latency exits 2 on a row whose traffic starts no trace.
    if done.returncode and not (argv[3:4] == ["latency"]
                                and done.returncode == 2):
        raise SystemExit(f"{' '.join(argv[1:])} exited {done.returncode}:"
                         f"\n{done.stdout[-2000:]}{done.stderr[-2000:]}")


def collect(out: str) -> set:
    found = set()
    for name in glob.glob(os.path.join(out, "*.keys")):
        with open(name, encoding="utf-8") as handle:
            found.update(handle.read().split())
        os.remove(name)
    return found


def main() -> int:
    modules = enumerate_src()
    every = {key for keys in modules.values() for key in keys}
    with tempfile.TemporaryDirectory() as scratch:
        hook, out = os.path.join(scratch, "hook"), os.path.join(scratch, "out")
        for directory in (hook, out):
            os.mkdir(directory)
        with open(os.path.join(hook, "sitecustomize.py"), "w") as handle:
            handle.write(HOOK)
        env = {**os.environ, "LEDGER_SRC": SRC, "LEDGER_OUT": out,
               "PYTHONPATH": os.pathsep.join([hook, SRC]),
               "PYTHONDONTWRITEBYTECODE": "1"}
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            list(pool.map(lambda argv: run(argv, env), results(scratch)))
        ran = collect(out) & every
        print(f"results run {len(ran)} of {len(every)} functions",
              file=sys.stderr)
        tier1 = subprocess.run(
            # The ledger's own test checks the file being regenerated.
            [sys.executable, "-m", "pytest", "-q", "-p", "sitecustomize",
             "-p", "no:cacheprovider", "--ignore=tests/test_ledger.py"],
            cwd=ROOT, env=env, capture_output=True, text=True)
        if tier1.returncode:
            print(f"tier-1 failed under the hook:\n{tier1.stdout[-3000:]}")
        with open(os.path.join(out, "tests.json"), encoding="utf-8") as f:
            first = json.load(f)
    old = {}
    if os.path.exists(LEDGER):
        with open(LEDGER, encoding="utf-8") as handle:
            old = json.load(handle)["not_run_by_results"]
    unrun, missing = {}, []
    for key in sorted(every - ran):
        name = key.rpartition(".")[2].rpartition(":")[2]
        reason = old.get(key, {}).get("reason")
        if reason is None and name.startswith("__") and name.endswith("__"):
            reason = "dunder"
        if not (reason or "").startswith(REASONS):
            missing.append(key)
        unrun[key] = {"test": first.get(key), "reason": reason}
    ledger = {
        "functions": len(every), "run_by_results": len(ran),
        "modules": {module: {"functions": len(keys),
                             "run_by_results": len(ran.intersection(keys))}
                    for module, keys in modules.items()},
        "not_run_by_results": unrun,
    }
    with open(LEDGER, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(ledger, indent=1) + "\n")
    print(f"{len(unrun)} functions no result runs, "
          f"{sum(v['test'] is None for v in unrun.values())} run by no test"
          f" -> {os.path.relpath(LEDGER)}", file=sys.stderr)
    for key in missing:
        print(f"no reason: {key} (test: {unrun[key]['test']})")
    return 1 if missing or tier1.returncode else 0


if __name__ == "__main__":
    sys.exit(main())

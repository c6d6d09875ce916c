"""Command-line interface.

    python -m repro sizes  '(ab)*'
    python -m repro analyze 'ERROR [0-9]+' --json
    python -m repro analyze --rules-file rules.txt
    python -m repro optimize 'aaa?a?'
    python -m repro optimize --rules-file rules.txt -o opt.npz
    python -m repro match  '(ab)*' input.bin
    python -m repro match  '(ab)*' input.bin --engine sfa --chunks 8 \
        --executor processes --workers 8
    python -m repro grep   'ERROR [0-9]+' server.log src/ var/log/
    python -m repro grep   -o -n 'ERROR [0-9]+' server.log
    python -m repro grep   -c 'ERROR' logs/        # per-file match-line counts
    python -m repro dot    '(ab)*' --stage sfa --hide-traps
    python -m repro save   '(ab)*' --stage sfa -o abstar.npz
    python -m repro ruleset --rules 20 --seed 2940
    python -m repro save --stage ruleset --rules-file rules.txt -o ids.npz
    python -m repro matchset --rules-file ids.npz payload.bin \
        --chunks 8 --executor processes --kernel stride4
    python -m repro serve --port 7320 --executor processes --cache-size 128
    python -m repro client match '(ab)*' input.bin --port 7320
    python -m repro client match --contains 'ERROR' big.log --chunks 8 \
        --engine sfa
    python -m repro client stream 'ERROR [0-9]+' server.log --block-size 4096
    python -m repro calibrate            # persist kernel rates for the planner
    python -m repro plan '(ab)*' --size 2000000 --warm --json

Every scanning command runs the plan ``"auto"`` unless a strategy flag is
given: a cost model (DESIGN.md §3.10) picks engine/kernel/chunking from
the input size, pattern analysis, core count and the rates persisted by
``repro calibrate``.  The strategy flags (``--engine/--chunks/--executor/
--workers/--kernel`` where a command has them) build exactly
``Plan(**given)`` instead; fields no flag names keep the ``Plan``
defaults.

``grep`` is span-driven (DESIGN.md §3.7): files are mmapped (zero-copy),
scanned **whole** with ``finditer``, and line numbers/matching lines are
derived from the match spans against a vectorized newline index — no
per-line rescans.  Directory arguments recurse (sorted), NUL-sniffed
binary files are skipped, ``-o`` prints the matched spans themselves and
``-c`` the per-file count of matching lines (GNU-grep compatible).
Recursion visits only *regular* files — FIFOs, sockets and device nodes
in the tree are skipped exactly as GNU grep skips them (opening a FIFO
with no writer blocks forever); the file list is deduplicated by real
path so one file named twice is scanned (and counted) once; a per-file
read error warns on stderr (``repro grep: <path>: <strerror>``), the
remaining files are still scanned, and the exit code is 2.

``serve`` starts the long-lived match service (DESIGN.md §3.8): an
asyncio TCP server holding a compiled-artifact LRU cache and one warm
chunk-executor pool, so compile cost is paid once per pattern across
requests.  ``client`` drives it: one-shot ``match``/``finditer``/
``multiscan`` requests, block-wise ``stream`` sessions,
``stats``/``ping``/``shutdown`` control.  A chunked plan sent with
``client`` runs on the server's own executor (``serve --executor``).

``matchset`` scans one payload against a whole ruleset in a single
union-automaton pass and prints every matching rule; ``--rules-file``
takes either a pattern file (one regex per line, ``#`` comments) or a
compiled ``.npz`` ruleset written by ``save --stage ruleset``.

``optimize`` is the §3.13 optimizer surface: a pattern argument prints
its canonical rewritten form and the rules that fired; ``--rules-file``
rewrites + minimizes a ruleset (duplicates and proven-equivalent rules
collapse; reported rule ids never change) and ``-o`` compiles the
optimized set to an ``.npz`` archive with persisted provenance.

``analyze`` is the static analysis surface (DESIGN.md §3.9): language
facts, blowup predictions, required literal factors and the derived
span-engine prefilter plan for one pattern, or per-rule reports plus
cross-rule lint (duplicates, empty-matching, subsumption) for a ruleset —
computed from the AST alone, nothing is compiled or scanned.  Exit codes:
0 = clean, 1 = the report carries warnings or errors (info-level notes do
not affect the exit code), 2 = parse/usage error.

Exit codes follow grep conventions for ``match``/``grep``/``matchset``:
0 = matched, 1 = no match, 2 = usage/read/compile error.
"""

from __future__ import annotations

import argparse
import mmap
import os
import sys
from typing import List, Optional, Union

import numpy as np

from repro.errors import MatchEngineError, ReproError
from repro.matching.engine import compile_pattern
from repro.service.protocol import DEFAULT_MAX_PAYLOAD
from repro.service.protocol import DEFAULT_PORT as DEFAULT_SERVICE_PORT

InputData = Union[bytes, mmap.mmap]


def _read_input(path: str) -> InputData:
    """Open an input zero-copy: mmap regular files, read streams.

    The returned object supports ``len()`` and the buffer protocol, which
    is all the engines need (``translate`` wraps it with ``np.frombuffer``
    without copying) — a multi-GB file costs address space, not RSS.
    Empty and non-mappable inputs (pipes, sockets, ``-``) fall back to a
    plain read.
    """
    if path == "-":
        return sys.stdin.buffer.read()
    fh = open(path, "rb")
    try:
        try:
            return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            # empty file (cannot mmap 0 bytes) or non-mappable stream
            return fh.read()
    finally:
        fh.close()  # the mapping survives the descriptor


def _read_rule_lines(rules_file: str) -> List[str]:
    """Rule sources from a text pattern file (one regex per line, ``#``
    comments); shared by the one-shot and service client paths."""
    try:
        with open(rules_file, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except UnicodeDecodeError:
        # binary data read as a pattern file must exit 2, not crash with 1
        raise MatchEngineError(
            f"{rules_file} is not a text pattern file (compiled ruleset "
            "archives must keep their .npz extension)"
        ) from None
    rules = [ln for ln in lines if ln and not ln.startswith("#")]
    if not rules:
        raise MatchEngineError(f"no rules found in {rules_file}")
    return rules


def _load_ruleset_arg(rules_file: str, ignore_case: bool,
                      backend: str = "eager", optimize: bool = False):
    """A scan-ready MultiPatternSet from a pattern file or ``.npz`` archive.

    ``backend`` selects the union-automaton backend (DESIGN.md §3.11) for
    pattern files; archives hold materialized tables and are eager by
    construction, so the flag does not apply to them.  ``optimize`` runs
    the §3.13 ruleset optimizer before compilation (pattern files only —
    an archive was optimized, or not, when it was saved); reported rule
    ids are unchanged either way.
    """
    from repro.matching.multi import MultiPatternSet

    if rules_file.endswith(".npz"):
        import zipfile

        from repro.automata.serialize import load_ruleset

        try:
            return load_ruleset(rules_file)
        except (ValueError, zipfile.BadZipFile) as e:
            # np.load noise on a non-archive file -> the CLI error contract
            raise MatchEngineError(
                f"{rules_file} is not a ruleset archive: {e}"
            ) from None
    return MultiPatternSet(
        _read_rule_lines(rules_file), ignore_case=ignore_case,
        backend=backend, optimize=optimize,
    )


def _cmd_sizes(args: argparse.Namespace) -> int:
    m = compile_pattern(args.pattern, ignore_case=args.ignore_case)
    sizes = m.sizes()
    sizes["d_sfa_partial"] = m.sfa.partial_size
    sizes["min_dfa_partial"] = m.min_dfa.partial_size
    sizes["byte_classes"] = m.partition.num_classes
    sizes["sfa_table_bytes_expanded"] = m.sfa.table_bytes(expanded=True)
    width = max(len(k) for k in sizes)
    for k, v in sizes.items():
        print(f"{k.ljust(width)}  {v:,}")
    return 0


#: Strategy flag -> the :class:`~repro.planning.plan.Plan` field it sets.
_PLAN_FLAGS = (
    ("engine", "engine"), ("chunks", "num_chunks"), ("executor", "executor"),
    ("workers", "num_workers"), ("kernel", "kernel"),
)


def _plan_of(args: argparse.Namespace):
    """The strategy flags given on the command line as exactly
    ``Plan(**given)``; with none given, ``"auto"``."""
    from repro.planning.plan import Plan

    given = {
        field: getattr(args, flag)
        for flag, field in _PLAN_FLAGS
        if getattr(args, flag, None) is not None
    }
    return Plan(**given) if given else "auto"


def _cmd_match(args: argparse.Namespace) -> int:
    m = compile_pattern(args.pattern, ignore_case=args.ignore_case)
    data = _read_input(args.input)
    fn = m.contains if args.contains else m.fullmatch
    ok = fn(data, plan=_plan_of(args))
    print("match" if ok else "no match")
    return 0 if ok else 1


#: How many leading bytes are NUL-sniffed to classify a file as binary.
GREP_BINARY_SNIFF_BYTES = 4096


def _grep_walk(paths: List[str]) -> "tuple[list[str], list[str], bool]":
    """Expand file/directory arguments into an ordered file list.

    Directories recurse depth-first with sorted entries (so output order
    is deterministic and diffable against ``grep -r``) and include only
    *regular* files: a FIFO, socket or device node in the tree must be
    skipped, not opened — ``open()`` on a writer-less FIFO blocks forever,
    which is GNU grep's reason for the same rule.  Explicitly named
    non-regular paths are kept (grep reads an explicit FIFO argument).
    The list is deduplicated by ``os.path.realpath`` keeping first
    occurrence, so one file reachable under two names is scanned (and
    counted) once.  Directories are deduplicated the same way: a tree
    named both directly and through a symlink is *walked* once, not
    merely de-duplicated file by file, and the visited set doubles as
    loop protection against cyclic links.  Returns
    ``(files, missing, recursed)``.
    """
    files: List[str] = []
    seen: set = set()
    visited_dirs: set = set()
    missing: List[str] = []
    recursed = False

    def add(path: str) -> None:
        real = os.path.realpath(path)
        if real not in seen:
            seen.add(real)
            files.append(path)

    for p in paths:
        if p == "-":
            if "-" not in files:
                files.append(p)
        elif os.path.isdir(p):
            recursed = True
            if os.path.realpath(p) in visited_dirs:
                continue  # same tree under another name: already walked
            for root, dirs, names in os.walk(p):
                real_root = os.path.realpath(root)
                if real_root in visited_dirs:
                    dirs[:] = []  # cyclic or repeated subtree: prune
                    continue
                visited_dirs.add(real_root)
                dirs.sort()
                for name in sorted(names):
                    full = os.path.join(root, name)
                    # isfile stats through symlinks: regular files only.
                    if os.path.isfile(full):
                        add(full)
        elif os.path.exists(p):
            add(p)
        else:
            missing.append(p)
    return files, missing, recursed


def _grep_scan_file(m, path: str, plan):
    """Scan one file; returns ``(spans, data, num_lines, newline_index)``.

    ``None`` marks a skipped binary file.  The span engine picks its
    scalar or lane passes by input size; of the plan it reads only the
    prefilter policy.
    """
    data = _read_input(path)
    arr = np.frombuffer(data, dtype=np.uint8)
    if b"\0" in bytes(memoryview(data)[:GREP_BINARY_SNIFF_BYTES]):
        return None
    spans = m.span_engine().spans(data, plan=plan)
    nl = np.flatnonzero(arr == 0x0A)
    # grep line count: a trailing newline terminates the last line rather
    # than opening an empty one.
    if len(arr) == 0:
        num_lines = 0
    elif len(nl) and int(nl[-1]) == len(arr) - 1:
        num_lines = len(nl)
    else:
        num_lines = len(nl) + 1
    return spans, data, num_lines, nl


def _grep_emit(path, result, args, prefix: bool) -> "tuple[bool, list[str]]":
    """Render one scanned file; returns ``(matched, output_lines)``."""
    spans, data, num_lines, nl = result
    tag = f"{path}:" if prefix else ""
    # Map each span to the line its start falls on (spans are derived on
    # the whole buffer; a span never crosses a line unless the pattern
    # matches a literal newline, in which case it counts for its first
    # line — same attribution grep uses for -z-less multiline escapes).
    line_of = (
        np.searchsorted(nl, [s for s, _ in spans], side="left").tolist()
        if spans else []
    )
    matched_lines = sorted({
        li for li in line_of if li < num_lines
    })
    if args.count:
        return bool(matched_lines), [f"{tag}{len(matched_lines)}"]
    out: List[str] = []
    if args.only_matching:
        buf = memoryview(data)
        for (s, e), li in zip(spans, line_of):
            if s == e or li >= num_lines:
                continue  # grep -o skips empty matches
            num = f"{li + 1}:" if args.line_numbers else ""
            out.append(f"{tag}{num}{bytes(buf[s:e]).decode('latin-1')}")
        return bool(matched_lines), out
    starts = [0] + [int(i) + 1 for i in nl]
    for li in matched_lines:
        a = starts[li]
        b = int(nl[li]) if li < len(nl) else len(data)
        text = bytes(memoryview(data)[a:b]).decode("latin-1")
        num = f"{li + 1}:" if args.line_numbers else ""
        out.append(f"{tag}{num}{text}")
    return bool(matched_lines), out


def _cmd_grep(args: argparse.Namespace) -> int:
    from repro.planning.plan import Plan

    m = compile_pattern(args.pattern, ignore_case=args.ignore_case)
    m.span_engine()  # compile before fanning out to scan threads
    files, missing, recursed = _grep_walk(args.paths)
    for p in missing:
        print(f"repro grep: {p}: No such file or directory", file=sys.stderr)
    prefix = recursed or len(files) > 1
    # Spans read only a plan's prefilter (DESIGN.md §3.7): no cost model.
    plan = Plan(prefilter=False if args.no_prefilter else None)

    def scan(path):
        try:
            return _grep_scan_file(m, path, plan)
        except OSError as e:
            return e

    def results():
        if len(files) > 1:
            # Parallel file walker: scan files concurrently, print in walk
            # order.  Streaming off the ordered map (not materializing a
            # list) lets each file's mmap and index arrays be freed as soon
            # as its output is emitted.
            from concurrent.futures import ThreadPoolExecutor

            jobs = min(len(files), os.cpu_count() or 1, 8)
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                yield from zip(files, pool.map(scan, files))
        else:
            for path in files:
                yield path, scan(path)

    hit = False
    errored = bool(missing)
    for path, result in results():
        if isinstance(result, OSError):
            # GNU grep semantics: warn, keep scanning the rest, exit 2.
            reason = result.strerror or str(result)
            print(f"repro grep: {path}: {reason}", file=sys.stderr)
            errored = True
            continue
        if result is None:  # binary file skipped
            continue
        matched, lines = _grep_emit(path, result, args, prefix)
        hit = hit or matched
        for line in lines:
            print(line)
    if errored:
        return 2
    return 0 if hit else 1


def _cmd_dot(args: argparse.Namespace) -> int:
    from repro.automata.dot import dfa_to_dot, nfa_to_dot, sfa_to_dot

    m = compile_pattern(args.pattern, ignore_case=args.ignore_case)
    if args.stage == "nfa":
        out = nfa_to_dot(m.nfa)
    elif args.stage == "dfa":
        out = dfa_to_dot(m.min_dfa, hide_traps=args.hide_traps)
    else:
        out = sfa_to_dot(
            m.sfa, hide_traps=args.hide_traps, show_mappings=args.show_mappings
        )
    print(out)
    return 0


def _cmd_save(args: argparse.Namespace) -> int:
    from repro.automata.serialize import save_dfa, save_ruleset, save_sfa

    # np.savez appends .npz to extension-less paths; normalize up front so
    # the reported path is the written one (and matchset's .npz dispatch
    # recognizes the archive).
    out = args.output if args.output.endswith(".npz") else args.output + ".npz"
    args.output = out
    if args.stage == "ruleset":
        if args.rules_file is None:
            raise MatchEngineError(
                "--stage ruleset needs --rules-file (a pattern positional "
                "would save a single rule, not a ruleset)"
            )
        if args.pattern is not None:
            raise MatchEngineError(
                "--stage ruleset takes its rules from --rules-file; "
                "drop the pattern argument"
            )
        mps = _load_ruleset_arg(
            args.rules_file, args.ignore_case,
            backend=getattr(args, "backend", "eager"),
            optimize=getattr(args, "optimize", False),
        )
        # A lazy/sharded set is frozen by save_ruleset itself (archives
        # are eager tables); afterwards mps.dfa is always materialized.
        save_ruleset(mps, args.output)
        info = getattr(mps, "optimize_info", None)
        optimized = (
            f", {info.num_kept}/{info.num_rules} rules compiled"
            if info is not None else ""
        )
        print(
            f"wrote ruleset ({mps.num_rules} rules, union DFA "
            f"{mps.dfa.num_states} states{optimized}) to {args.output}"
        )
        return 0
    if args.rules_file is not None:
        # A dfa/sfa archive of a union automaton is rule-blind: acceptance
        # collapses "which rules matched" to one bit.  Refuse to write the
        # lossy archive instead of silently dropping rule identities.
        raise MatchEngineError(
            f"--rules-file with --stage {args.stage} would drop per-rule "
            "acceptance; use --stage ruleset"
        )
    if args.pattern is None:
        raise MatchEngineError(f"--stage {args.stage} needs a pattern argument")
    m = compile_pattern(args.pattern, ignore_case=args.ignore_case)
    if args.stage == "dfa":
        save_dfa(m.min_dfa, args.output)
    else:
        save_sfa(m.sfa, args.output)
    print(f"wrote {args.stage} of {args.pattern!r} to {args.output}")
    return 0


def _cmd_matchset(args: argparse.Namespace) -> int:
    mps = _load_ruleset_arg(
        args.rules_file, args.ignore_case,
        backend=getattr(args, "backend", "auto"),
        optimize=getattr(args, "optimize", False),
    )
    data = _read_input(args.input)
    hits = mps.matches(data, plan=_plan_of(args))
    for i in sorted(hits):
        print(f"{i}:{mps.patterns[i]}")
    print(f"matched {len(hits)}/{mps.num_rules} rules")
    return 0 if hits else 1


def _report_dirty(report: dict) -> bool:
    """Whether a report dict (pattern or ruleset shape) carries any
    warning- or error-severity finding; info notes stay exit-0."""
    warnings = list(report.get("warnings", []))
    for rule in report.get("rules", []):
        warnings.extend(rule.get("warnings", []))
    return any(w.get("severity") in ("warning", "error") for w in warnings)


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import (
        analyze_pattern,
        analyze_ruleset,
        format_pattern_report,
        format_ruleset_report,
    )

    optimize = getattr(args, "optimize", False)
    if args.rules_file is not None:
        if args.pattern is not None:
            raise MatchEngineError(
                "analyze takes a pattern or --rules-file, not both"
            )
        stored = None
        if args.rules_file.endswith(".npz"):
            # An archive is analyzed through its persisted sources, flags
            # and mode — analysis itself never needs the compiled tables.
            mps = _load_ruleset_arg(args.rules_file, args.ignore_case)
            rules = [(p, bool(f)) for p, f in zip(mps.patterns, mps.rule_flags)]
            mode = mps.mode
            info = getattr(mps, "optimize_info", None)
            if info is not None:
                stored = info.to_meta()
        else:
            rules = [(ln, args.ignore_case) for ln in
                     _read_rule_lines(args.rules_file)]
            mode = args.mode
        report = analyze_ruleset(rules, mode=mode, optimize=optimize)
        if stored is not None and report.optimize is None:
            # The archive was compiled with optimize=True: surface the
            # persisted §3.13 provenance even without --optimize.
            report.optimize = stored
        text = format_ruleset_report(report)
    else:
        if args.pattern is None:
            raise MatchEngineError("analyze needs a pattern or --rules-file")
        report = analyze_pattern(
            args.pattern, ignore_case=args.ignore_case, optimize=optimize
        )
        text = format_pattern_report(report)
    payload = report.to_dict()
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)
    return 1 if _report_dirty(payload) else 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    """The §3.13 optimizer surface: canonicalize a pattern, or rewrite +
    minimize a ruleset (optionally compiling the result to ``.npz``)."""
    import json

    from repro.analysis import analyze_pattern, analyze_ruleset
    from repro.analysis.report import format_optimize_section

    if args.rules_file is not None:
        if args.pattern is not None:
            raise MatchEngineError(
                "optimize takes a pattern or --rules-file, not both"
            )
        rules = [(ln, args.ignore_case) for ln in
                 _read_rule_lines(args.rules_file)]
        report = analyze_ruleset(rules, mode=args.mode, optimize=True)
        section = report.optimize or {}
        if args.output is not None:
            from repro.automata.serialize import save_ruleset

            out = (args.output if args.output.endswith(".npz")
                   else args.output + ".npz")
            mps = _load_ruleset_arg(
                args.rules_file, args.ignore_case,
                backend=args.backend, optimize=True,
            )
            save_ruleset(mps, out)
            section = dict(section)
            section["output"] = out
        if args.json:
            print(json.dumps(section, indent=2, sort_keys=True))
        else:
            for line in format_optimize_section(section):
                print(line[2:] if line.startswith("  ") else line)
            if "output" in section:
                print(f"wrote optimized ruleset to {section['output']}")
        return 0
    if args.pattern is None:
        raise MatchEngineError("optimize needs a pattern or --rules-file")
    report = analyze_pattern(
        args.pattern, ignore_case=args.ignore_case, optimize=True
    )
    o = report.optimize or {}
    if args.json:
        print(json.dumps(
            {"pattern": args.pattern, **o}, indent=2, sort_keys=True
        ))
        return 0
    print(f"pattern:   {args.pattern}")
    print(f"canonical: {o.get('canonical', args.pattern)}")
    fired = ", ".join(
        f"{k}×{v}" for k, v in sorted(dict(o.get("rewrites", {})).items())
    ) or "none (already canonical)"
    print(f"rewrites:  {fired}")
    pos = o.get("positions", {})
    bound = o.get("dfa_states_bound", {})
    print(
        f"positions: {pos.get('before')} → {pos.get('after')}, "
        f"DFA bound {bound.get('before'):,} → {bound.get('after'):,}"
    )
    return 0


def _parse_ruleset_args(entries) -> dict:
    """``--ruleset NAME=PATH`` pairs into a name->path mapping."""
    rulesets = {}
    for entry in entries or []:
        name, sep, path = entry.partition("=")
        if not sep or not name or not path:
            raise MatchEngineError(
                f"--ruleset takes NAME=PATH, got {entry!r}"
            )
        if name in rulesets:
            raise MatchEngineError(f"duplicate ruleset name {name!r}")
        rulesets[name] = path
    return rulesets


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import MatchService

    rulesets = _parse_ruleset_args(args.ruleset)
    options = dict(
        cache_size=args.cache_size,
        executor=None if args.executor == "serial" else args.executor,
        num_workers=args.executor_workers,
        max_payload=args.max_payload,
        allow_shutdown=not args.no_remote_shutdown,
        rulesets=rulesets or None,
    )

    if args.workers > 1:
        from repro.service.prefork import PreforkServer

        srv = PreforkServer(
            args.host, args.port, args.workers,
            mode=args.prefork_mode, **options,
        )
        srv.start()
        # Printed *after* every worker is accepting, so scripts can wait
        # for the line (and learn the real port under --port 0).
        print(f"repro serve: listening on {args.host}:{srv.port} "
              f"(workers={args.workers}, mode={srv.mode}, "
              f"executor={args.executor}, cache={args.cache_size})",
              flush=True)
        return srv.supervise()

    svc = MatchService(host=args.host, port=args.port, **options)

    async def main() -> None:
        await svc.start()
        print(f"repro serve: listening on {svc.host}:{svc.port} "
              f"(executor={svc.executor_name or 'none'}, "
              f"cache={svc.cache.capacity})", flush=True)
        await svc.serve_until_shutdown()

    import asyncio

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    return 0


def _client_rules(args: argparse.Namespace) -> List:
    """Rule list for client multiscan/stream: sources + per-rule flags.

    The whole point of the service is that *it* owns compilation, so the
    client ships rule sources, not compiled tables: a ``.npz`` archive is
    loaded only for its persisted sources/flags, and a text file is parsed
    without building anything.
    """
    rules_file = args.rules_file
    if rules_file.endswith(".npz"):
        mps = _load_ruleset_arg(rules_file, args.ignore_case)
        return [[p, bool(f)] for p, f in zip(mps.patterns, mps.rule_flags)]
    return [
        [ln, bool(args.ignore_case)] for ln in _read_rule_lines(rules_file)
    ]


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    with ServiceClient(args.host, args.port, timeout=args.timeout) as c:
        return _run_client_op(c, args)


def _run_client_op(c, args: argparse.Namespace) -> int:
    import json

    op = args.cop
    if op == "ping":
        print("pong" if c.ping() else "no pong")
        return 0
    if op == "stats":
        print(json.dumps(c.stats(), indent=2, sort_keys=True))
        return 0
    if op == "shutdown":
        c.shutdown()
        print("server stopping")
        return 0
    if op == "reload":
        reply = c.reload()
        loaded = reply.get("rulesets", {})
        print(f"reloaded {len(loaded)} ruleset(s) at version "
              f"{reply.get('version')}")
        for name in sorted(loaded):
            info = loaded[name]
            print(f"  {name}: {info.get('rules')} rules "
                  f"from {info.get('path')}")
        return 0
    if op == "match":
        data = bytes(memoryview(_read_input(args.input)))
        ok = c.match(
            args.pattern, data,
            mode="contains" if args.contains else "fullmatch",
            ignore_case=args.ignore_case, plan=_plan_of(args),
        )
        print("match" if ok else "no match")
        return 0 if ok else 1
    if op == "finditer":
        data = bytes(memoryview(_read_input(args.input)))
        spans = c.finditer(
            args.pattern, data, ignore_case=args.ignore_case,
            plan=_plan_of(args), limit=args.limit,
        )
        for s, e in spans:
            print(f"{s}:{e}:{data[s:e].decode('latin-1')}")
        return 0 if spans else 1
    if op == "multiscan":
        data = bytes(memoryview(_read_input(args.input)))
        if args.ruleset is not None:
            if args.rules_file is not None:
                raise MatchEngineError(
                    "choose --rules-file or --ruleset, not both"
                )
            hits = c.multiscan(
                data=data, ruleset=args.ruleset, plan=_plan_of(args),
            )
            for i in hits:
                print(f"{i}:<{args.ruleset}>")
            print(f"matched {len(hits)} rules in ruleset {args.ruleset!r}")
            return 0 if hits else 1
        if args.rules_file is None:
            raise MatchEngineError(
                "multiscan needs --rules-file or --ruleset"
            )
        rules = _client_rules(args)
        hits = c.multiscan(
            rules, data, plan=_plan_of(args),
            backend=getattr(args, "backend", None),
        )
        for i in hits:
            print(f"{i}:{rules[i][0]}")
        print(f"matched {len(hits)}/{len(rules)} rules")
        return 0 if hits else 1
    if op == "analyze":
        if args.rules_file is not None:
            report = c.analyze(rules=_client_rules(args), mode=args.mode)
        elif args.pattern is not None:
            report = c.analyze(args.pattern, ignore_case=args.ignore_case)
        else:
            raise MatchEngineError("analyze needs a pattern or --rules-file")
        print(json.dumps(report, indent=2, sort_keys=True))
        return 1 if _report_dirty(report) else 0
    if op == "stream":
        return _client_stream(c, args)
    raise MatchEngineError(f"unknown client op {op!r}")


def _client_stream(c, args: argparse.Namespace) -> int:
    """Feed a file block-wise through a server-side stream session."""
    if args.rules_file is not None:
        stream = c.open_stream(
            rules=_client_rules(args), kind="multi", plan=_plan_of(args),
        )
    else:
        if args.pattern is None:
            raise MatchEngineError("stream needs a pattern or --rules-file")
        stream = c.open_stream(
            pattern=args.pattern, ignore_case=args.ignore_case,
            plan=_plan_of(args),
        )
    data = memoryview(_read_input(args.input))
    hit = False
    for off in range(0, max(len(data), 1), args.block_size):
        block = bytes(data[off:off + args.block_size])
        for item in stream.feed(block):
            hit = True
            print(_format_stream_item(stream.kind, item))
    for item in stream.finish():
        hit = True
        print(_format_stream_item(stream.kind, item))
    return 0 if hit else 1


def _format_stream_item(kind: str, item) -> str:
    if kind == "spans":
        return f"{item[0]}:{item[1]}"
    if kind == "multispans":
        return f"rule {item[0]} @ {item[1]}:{item[2]}"
    return f"rule {item}"


def _cmd_calibrate(args: argparse.Namespace) -> int:
    """Measure this machine's kernel rates and persist them (§3.10).

    The one command that *writes* the calibration file; every planner is
    a pure reader.  Safe to re-run any time — the file is replaced
    atomically and running planners pick it up on their next plan.
    """
    import json

    from repro.planning.calibration import run_calibration, save_calibration

    cal = run_calibration(
        sample_bytes=args.sample_bytes,
        repeat=args.repeat,
        measure_executors=not args.no_executors,
    )
    path = save_calibration(cal)
    if args.json:
        print(json.dumps(
            {"path": str(path), **cal.to_dict()}, indent=2, sort_keys=True
        ))
        return 0
    print(f"wrote calibration to {path}")
    width = max(len(k) for k in cal.mb_per_s)
    for k in sorted(cal.mb_per_s):
        print(f"  {k.ljust(width)}  {cal.mb_per_s[k]:10.2f} MB/s")
    for k in sorted(cal.dispatch_ms):
        print(f"  {k.ljust(width)}  {cal.dispatch_ms[k]:10.3f} ms dispatch")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    """Dry-run the planner: what would ``plan="auto"`` choose and why.

    ``--json`` dumps the plan plus the calibration provenance — CI uses
    it to assert that a ``repro calibrate`` run is actually being reused
    (``calibration.source == "measured"``).
    """
    import json

    from repro.automata.stride import best_stride_table
    from repro.planning.calibration import calibration_path, get_calibration
    from repro.planning.planner import get_planner

    m = compile_pattern(args.pattern, ignore_case=args.ignore_case)
    # ``contains`` scans (and plans against) the containment automaton
    subject = m.search_pattern() if args.task == "contains" else m
    if args.warm:
        # Build what the auto plan scans, for the steady-state plan: an
        # acceptance scan runs on the DFA's stride table when the DFA
        # synchronizes, else on the D-SFA's.
        if args.task in ("fullmatch", "contains"):
            scanned = subject.min_dfa
            if not scanned.sync_fact().holds:
                scanned = subject.sfa
            best_stride_table(scanned, 4)
        else:
            subject.sfa
        m.span_engine()
    p = get_planner().plan(args.task, args.size, subject=subject)
    cal = get_calibration()
    if args.json:
        print(json.dumps(
            {
                "plan": p.to_dict(),
                "task": args.task,
                "size": args.size,
                "calibration": {
                    "source": cal.source,
                    "path": str(calibration_path()),
                    "cpu_count": cal.cpu_count,
                },
            },
            indent=2, sort_keys=True,
        ))
    else:
        print(p.summary())
        print(p.reason)
        print(f"calibration: {cal.source}")
    return 0


def _cmd_ruleset(args: argparse.Namespace) -> int:
    from repro.workloads.snort import generate_ruleset

    for pat in generate_ruleset(args.rules, seed=args.seed):
        print(pat)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SFA-based data-parallel regular expression matching "
        "(ICPP 2013 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_plan_flags(p: argparse.ArgumentParser, *flags: str) -> None:
        """Strategy flags; the ones given build ``Plan(**given)``, and
        with none given the command runs ``"auto"``."""
        options = {
            "engine": dict(choices=["dfa", "speculative", "sfa", "lockstep"],
                           help="acceptance engine (Plan.engine); the "
                           "Plan default, dfa, reads no other strategy flag"),
            "chunks": dict(type=int, help="chunk count, the paper's p "
                           "(Plan.num_chunks)"),
            "executor": dict(
                choices=["serial", "threads", "processes"],
                help="chunk-dispatch backend for the chunked engines; "
                "'processes' runs chunk scans on real cores with "
                "shared-memory transition tables (Plan.executor)"),
            "workers": dict(type=int, help="pool size for threads/processes "
                            "(Plan.num_workers; default: CPU count)"),
            "kernel": dict(
                choices=["python", "stride2", "stride4", "vector"],
                help="chunk-scan kernel: stride2/stride4 precompose the "
                "table over 2-/4-grams (largest affordable stride under "
                "the byte budget), vector block-composes mappings in NumPy "
                "(Plan.kernel)"),
        }
        for flag in flags:
            p.add_argument(f"--{flag}", **options[flag])

    def add_common(p: argparse.ArgumentParser, with_input: bool = False) -> None:
        p.add_argument("pattern", help="regular expression")
        p.add_argument("-i", "--ignore-case", action="store_true")
        if with_input:
            p.add_argument("input", help="input file, or - for stdin")
            add_plan_flags(
                p, "engine", "chunks", "executor", "workers", "kernel"
            )

    p = sub.add_parser("sizes", help="print pipeline automaton sizes")
    add_common(p)
    p.set_defaults(func=_cmd_sizes)

    p = sub.add_parser(
        "analyze",
        help="static analysis: language facts, blowup prediction, "
        "literal factors and ruleset lint (nothing is compiled or "
        "scanned; exit 1 flags warnings)",
    )
    p.add_argument("pattern", nargs="?", default=None,
                   help="regular expression (or use --rules-file)")
    p.add_argument("-i", "--ignore-case", action="store_true")
    p.add_argument(
        "--rules-file", default=None,
        help="analyze a whole ruleset: a pattern file (one regex per "
        "line, '#' comments) or a compiled .npz ruleset (analyzed via "
        "its persisted sources, flags and mode)",
    )
    p.add_argument(
        "--mode", choices=["search", "fullmatch"], default="search",
        help="ruleset match semantics the lint assumes (pattern files "
        "only; .npz archives keep their saved mode)",
    )
    p.add_argument("--json", action="store_true",
                   help="emit the schema-stable JSON report instead of "
                   "the human rendering")
    p.add_argument(
        "--optimize", action="store_true",
        help="add the §3.13 before/after section: canonical rewrite, "
        "elimination provenance and state-bound reduction (archives "
        "compiled with optimization show their stored provenance even "
        "without this flag)",
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "optimize",
        help="semantics-preserving pattern rewriting and ruleset "
        "minimization (§3.13): canonicalize a pattern, or rewrite + "
        "dedupe + prove-equivalent a ruleset, optionally compiling the "
        "optimized set to .npz (reported rule ids are unchanged)",
    )
    p.add_argument("pattern", nargs="?", default=None,
                   help="regular expression (or use --rules-file)")
    p.add_argument("-i", "--ignore-case", action="store_true")
    p.add_argument(
        "--rules-file", default=None,
        help="optimize a whole ruleset: a pattern file (one regex per "
        "line, '#' comments)",
    )
    p.add_argument(
        "--mode", choices=["search", "fullmatch"], default="search",
        help="ruleset match semantics (for the analysis section)",
    )
    p.add_argument(
        "--backend", choices=["auto", "eager", "lazy", "sharded"],
        default="eager",
        help="compile backend when writing an optimized archive with -o",
    )
    p.add_argument(
        "-o", "--output", default=None,
        help="compile the optimized ruleset and write it to this .npz "
        "(loadable by matchset/analyze; provenance is persisted)",
    )
    p.add_argument("--json", action="store_true",
                   help="emit the optimizer section as JSON")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("match", help="whole-input membership test")
    add_common(p, with_input=True)
    p.add_argument("--contains", action="store_true",
                   help="substring-search semantics instead of fullmatch")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser(
        "grep",
        help="span-driven search over files and directories (mmap, "
        "recursive, grep exit codes)",
    )
    p.add_argument("pattern", help="regular expression")
    p.add_argument("paths", nargs="+", metavar="path",
                   help="input files and/or directories (recursed), "
                   "or - for stdin")
    p.add_argument("-i", "--ignore-case", action="store_true")
    p.add_argument("-n", "--line-numbers", action="store_true",
                   help="prefix each output line with its 1-based line "
                   "number (derived from match spans, not a rescan)")
    p.add_argument("-o", "--only-matching", action="store_true",
                   help="print each (non-empty) match instead of its line")
    p.add_argument("-c", "--count", action="store_true",
                   help="print the number of matching lines per file")
    p.add_argument(
        "--no-prefilter", action="store_true",
        help="disable the literal-factor skip-ahead (§3.9.3) and always "
        "run the exact backward start pass (Plan(prefilter=False)); "
        "output is identical either way",
    )
    p.set_defaults(func=_cmd_grep)

    p = sub.add_parser("dot", help="emit Graphviz DOT for a pipeline stage")
    add_common(p)
    p.add_argument("--stage", choices=["nfa", "dfa", "sfa"], default="dfa")
    p.add_argument("--hide-traps", action="store_true",
                   help="draw the partial automaton (paper Fig. 4 style)")
    p.add_argument("--show-mappings", action="store_true",
                   help="annotate SFA nodes with their mappings (Table I)")
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser(
        "save", help="serialize a compiled automaton or ruleset to .npz"
    )
    p.add_argument("pattern", nargs="?", default=None,
                   help="regular expression (for --stage dfa/sfa)")
    p.add_argument("-i", "--ignore-case", action="store_true")
    p.add_argument("--stage", choices=["dfa", "sfa", "ruleset"], default="sfa")
    p.add_argument(
        "--rules-file",
        default=None,
        help="rule sources for --stage ruleset: a pattern file (one regex "
        "per line, '#' comments) or an existing .npz ruleset",
    )
    p.add_argument(
        "--backend", choices=["auto", "eager", "lazy", "sharded"],
        default="eager",
        help="compile backend for --stage ruleset (archives are eager "
        "tables, so lazy/sharded sets are frozen before writing; a set "
        "whose closure exceeds the state budget cannot be saved)",
    )
    p.add_argument(
        "--optimize", action="store_true",
        help="run the §3.13 ruleset optimizer before compiling "
        "(--stage ruleset): rewrite, dedupe, prove-equivalent; reported "
        "rule ids are unchanged and provenance is persisted in the "
        "archive",
    )
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_save)

    p = sub.add_parser(
        "matchset",
        help="match a whole ruleset in one union-automaton scan",
    )
    p.add_argument(
        "--rules-file",
        required=True,
        help="pattern file (one regex per line, '#' comments) or a "
        "compiled .npz ruleset from 'save --stage ruleset'",
    )
    p.add_argument("input", help="input file, or - for stdin")
    p.add_argument("-i", "--ignore-case", action="store_true",
                   help="apply ASCII case folding to every rule "
                   "(pattern files only; archives keep their flags)")
    p.add_argument(
        "--backend", choices=["auto", "eager", "lazy", "sharded"],
        default="auto",
        help="union-automaton backend (DESIGN.md §3.11): 'eager' builds "
        "the full cross-product up front (may exceed the state budget on "
        "large rulesets), 'lazy' determinizes on the fly, 'sharded' "
        "compiles rule groups with literal routing; 'auto' (default) "
        "lets the planner pick and never explodes where lazy can serve",
    )
    p.add_argument(
        "--optimize", action="store_true",
        help="run the §3.13 ruleset optimizer before compiling (pattern "
        "files only): output is bit-identical, the union automaton is "
        "smaller",
    )
    add_plan_flags(p, "chunks", "executor", "workers", "kernel")
    p.set_defaults(func=_cmd_matchset)

    p = sub.add_parser(
        "serve",
        help="run the long-lived match service (asyncio TCP, "
        "compiled-pattern cache, warm executor pool)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=DEFAULT_SERVICE_PORT,
                   help="TCP port (0 picks a free port, printed on start)")
    p.add_argument("--cache-size", type=int, default=64,
                   help="compiled-artifact LRU capacity in entries")
    p.add_argument(
        "--executor", choices=["serial", "threads", "processes"],
        default="serial",
        help="shared warm chunk-executor pool for chunked requests "
        "(lifetime tied to the server; drained on shutdown)",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="pre-fork service workers sharing the port via SO_REUSEPORT "
        "(1 = single-process; each worker runs its own event loop and "
        "publishes metrics to the shared stats board)",
    )
    p.add_argument("--executor-workers", type=int, default=None,
                   help="pool size for each worker's shared chunk executor")
    p.add_argument(
        "--prefork-mode", choices=["reuseport", "fdpass"], default=None,
        help="connection sharding for --workers > 1: kernel SO_REUSEPORT "
        "balancing, or master-accept + fd passing (default: auto)",
    )
    p.add_argument(
        "--ruleset", action="append", metavar="NAME=PATH", default=None,
        help="named hot-reloadable ruleset from a pattern file "
        "(repeatable; clients scan it by name and the 'reload' op "
        "re-reads every file without dropping connections)",
    )
    p.add_argument("--max-payload", type=int, default=DEFAULT_MAX_PAYLOAD,
                   help="per-request payload cap in bytes")
    p.add_argument("--no-remote-shutdown", action="store_true",
                   help="refuse the wire 'shutdown' op")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("client", help="drive a running match service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=DEFAULT_SERVICE_PORT)
    p.add_argument("--timeout", type=float, default=30.0)
    csub = p.add_subparsers(dest="cop", required=True, metavar="op")

    csub.add_parser("ping", help="liveness probe")
    csub.add_parser("stats", help="cache/counter/latency snapshot as JSON "
                    "(per-worker + aggregate under --workers > 1)")
    csub.add_parser("shutdown", help="ask the server to drain and exit")
    csub.add_parser("reload", help="hot-reload the server's named "
                    "rulesets from their files (no dropped connections)")
    for cop, chelp in (
        ("match", "whole-input membership test (--contains: substring "
         "search); a chunked plan runs on the server's executor"),
        ("finditer", "leftmost-longest match spans"),
    ):
        cp = csub.add_parser(cop, help=chelp)
        cp.add_argument("pattern", help="regular expression")
        cp.add_argument("input", help="input file, or - for stdin")
        cp.add_argument("-i", "--ignore-case", action="store_true")
        if cop == "match":
            cp.add_argument("--contains", action="store_true",
                            help="substring-search semantics")
        if cop == "finditer":
            cp.add_argument("--limit", type=int, default=None)
        add_plan_flags(
            cp, *(("engine",) if cop == "match" else ()), "chunks", "kernel"
        )
    cp = csub.add_parser(
        "analyze",
        help="server-side static analysis (JSON report; exit 1 flags "
        "warnings)",
    )
    cp.add_argument("pattern", nargs="?", default=None,
                    help="regular expression (or use --rules-file)")
    cp.add_argument("-i", "--ignore-case", action="store_true")
    cp.add_argument("--rules-file", default=None,
                    help="pattern file or .npz ruleset (sources are "
                    "shipped; the server analyzes without compiling)")
    cp.add_argument("--mode", choices=["search", "fullmatch"],
                    default="search",
                    help="ruleset match semantics the lint assumes")
    cp = csub.add_parser("multiscan", help="match a whole ruleset remotely")
    cp.add_argument("--rules-file", default=None,
                    help="pattern file or .npz ruleset (sources are "
                    "shipped; the server compiles and caches)")
    cp.add_argument("--ruleset", default=None,
                    help="server-side named ruleset (--ruleset NAME=PATH "
                    "at serve time; nothing is shipped)")
    cp.add_argument("input", help="input file, or - for stdin")
    cp.add_argument("-i", "--ignore-case", action="store_true")
    cp.add_argument(
        "--backend", choices=["auto", "eager", "lazy", "sharded"],
        default=None,
        help="server-side union-automaton backend "
        "(omitted: the server's default, 'auto')",
    )
    add_plan_flags(cp, "chunks", "kernel")
    cp = csub.add_parser(
        "stream",
        help="feed a file block-wise through a stateful stream session",
    )
    cp.add_argument("pattern", nargs="?", default=None,
                    help="regular expression (span stream)")
    cp.add_argument("input", help="input file, or - for stdin")
    cp.add_argument("--rules-file", default=None,
                    help="stream a ruleset (newly-matched rules per block) "
                    "instead of a single pattern's spans")
    cp.add_argument("-i", "--ignore-case", action="store_true")
    cp.add_argument("--block-size", type=int, default=65536,
                    help="bytes per feed block")
    add_plan_flags(cp, "chunks", "kernel")
    p.set_defaults(func=_cmd_client)

    p = sub.add_parser(
        "calibrate",
        help="measure this machine's kernel rates and persist them for "
        "the plan='auto' cost model (the only command that writes the "
        "calibration file)",
    )
    p.add_argument("--sample-bytes", type=int, default=1 << 20,
                   help="synthetic workload size per kernel measurement")
    p.add_argument("--repeat", type=int, default=2,
                   help="best-of repetitions per measurement")
    p.add_argument("--no-executors", action="store_true",
                   help="skip the thread/process dispatch-overhead probes")
    p.add_argument("--json", action="store_true",
                   help="print the written calibration as JSON")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser(
        "plan",
        help="dry-run the plan='auto' cost model: print the chosen "
        "strategy and its rationale without scanning anything",
    )
    p.add_argument("pattern", help="regular expression")
    p.add_argument("-i", "--ignore-case", action="store_true")
    p.add_argument("--task", default="fullmatch",
                   choices=["fullmatch", "contains", "spans", "multi",
                            "stream"],
                   help="scan kind to plan for")
    p.add_argument("--size", type=int, default=1 << 20,
                   help="input length in bytes the plan is for")
    p.add_argument("--warm", action="store_true",
                   help="build the pattern's scan artifacts first (for "
                   "fullmatch/contains the DFA's stride table, and the "
                   "D-SFA's when the DFA does not synchronize), so the "
                   "plan is the steady-state (amortized) one")
    p.add_argument("--json", action="store_true",
                   help="dump plan + calibration provenance as JSON")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("ruleset", help="emit a synthetic SNORT-like ruleset")
    p.add_argument("--rules", type=int, default=20)
    p.add_argument("--seed", type=int, default=2940)
    p.set_defaults(func=_cmd_ruleset)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pipe reader (e.g. `head`, `grep -q`) hung up: the
        # Unix convention is to die quietly with 128+SIGPIPE, not to
        # report an error.  Detach stdout so interpreter shutdown does
        # not print a second BrokenPipeError while flushing.
        try:
            sys.stdout.close()
        except (OSError, ValueError):
            pass
        return 141
    except ReproError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

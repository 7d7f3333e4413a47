"""The program side of the ledger: every process here imports ``repro``.

``run.py`` starts one of these per set-up sample, per measured pass and per
verification, so each starts without ``repro`` imported::

    program.py setup  --inputs DIR                 one set-up, then exit
    program.py run    --inputs DIR --pass P --seconds S --trace 0|1 --probe 0|1 --out FILE --log FILE
    program.py verify --inputs DIR --writes FILE --keys FILE --out FILE
    program.py serve  --spans FILE -- <rex serve arguments>

``setup`` and ``run`` print (or write) the wall-clock time at which set-up
ended, so the parent measures set-up from the moment it started the process.
``run`` does the rounds of pass ``P`` of the plan until ``S`` seconds have
passed, but at least the plan's ``min_rounds``.  It writes one JSON line per
operation to its ``--log`` as soon as the operation is done and keeps none
of them, so the memory of the measured process does not grow with the
number of operations it gets through.  Its peak resident memory is read
after ``min_rounds`` rounds, which every pass completes: the program's own
caches grow with every first-sight request, so only a peak taken after the
same work compares two programs.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

perf = time.perf_counter


def _import_program() -> float:
    started = perf()
    import repro  # noqa: F401
    import repro.cli  # noqa: F401
    import repro.service.serialize  # noqa: F401
    return (perf() - started) * 1000


def _edges(batch):
    return [{"source": s, "label": l, "target": t, "directed": d} for s, l, t, d in batch]


def _plain_paths(explanations) -> list:
    return [
        {
            "edges": [[e.source, e.target, e.label, e.directed] for e in explanation.pattern],
            "instances": [dict(instance.items()) for instance in explanation.instances],
        }
        for explanation in explanations
    ]


def setup(args, trace: bool):
    """Import, load, build the engine and compile (via the set-up request)."""
    plan = json.loads((args.inputs / "plan.json").read_text())
    import_ms = _import_program()
    from repro.kb.io import load_tsv
    from repro.service import ExplanationEngine

    recorder = None
    if trace:
        import tracing

        recorder = tracing.install()
    if recorder is not None:
        kb = recorder.span("kb.load", load_tsv, args.inputs / "kb.tsv")
    else:
        kb = load_tsv(args.inputs / "kb.tsv")
    engine = ExplanationEngine(kb, size_limit=plan["size_limit"])
    engine.explain(*plan["setup_pair"], measure=plan["measure"], k=plan["k"],
                   size_limit=plan["size_limit"])
    ready = time.time()
    return plan, engine, recorder, {"setup_end": ready, "import_ms": import_ms}


def run(args) -> None:
    plan, engine, recorder, result = setup(args, bool(args.trace))
    from repro.service.serialize import outcome_to_dict

    measure, k, limit = plan["measure"], plan["k"], plan["size_limit"]
    acked = attempted = rounds = 0
    peak_rss_mb = None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu0 = usage.ru_utime + usage.ru_stime
    t0 = last = perf()
    with args.log.open("w", encoding="utf-8") as log:
        for ops in plan["passes"][args.pass_index]:
            for op in ops:
                started = perf()
                record = {"gap_s": started - last}
                if op[0] == "r":
                    outcome = engine.explain(op[1], op[2], measure=measure, k=k, size_limit=limit)
                    record["latency_s"] = perf() - started
                    # rendered and written out at once, as a server would
                    record.update(visible=acked, answer=outcome_to_dict(outcome))
                    if recorder is not None:
                        record["traced"] = _traced_read(recorder, engine, outcome, plan)
                    del outcome
                else:
                    summary = engine.add_edges(_edges(op[1]))
                    record.update(latency_s=perf() - started, summary=summary)
                    acked += 1
                log.write(json.dumps(record) + "\n")
                attempted += 1
                last = perf()
            rounds += 1
            if rounds == plan["min_rounds"]:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if perf() - t0 >= args.seconds and rounds >= plan["min_rounds"]:
                break
        elapsed = perf() - t0
        usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        window=[t0, t0 + elapsed],
        measured_s=elapsed,
        cpu_s=usage.ru_utime + usage.ru_stime - cpu0,
        peak_rss_mb=peak_rss_mb,
        attempted=attempted,
        rounds=rounds,
    )
    if recorder is not None:
        if args.probe:
            _probe_durability(recorder, engine, args.inputs, plan)
        result["spans"] = recorder.spans
        result["mismatches"] = recorder.mismatches
    engine.close()
    args.out.write_text(json.dumps(result))


def _traced_read(recorder, engine, outcome, plan) -> dict:
    """After a traced read: a cache hit, a serialization, the composed pieces."""
    import tracing
    from repro.service.serialize import outcome_to_dict

    composed = recorder._local.last_repeat
    tracing.probe_hit(engine, outcome)
    recorder.span("service.serialize", lambda: json.dumps(outcome_to_dict(outcome), sort_keys=True))
    if plan["workload"] != "enum-fresh" or composed is None:
        return {}
    return {
        "paths": _plain_paths(composed["paths"]),
        "scores": [[repr(entry.explanation.pattern.canonical_key), entry.value]
                   for entry in composed["scored"]],
        "returned": [repr(entry.explanation.pattern.canonical_key) for entry in outcome.ranked],
    }


def _probe_durability(recorder, engine, inputs: Path, plan) -> None:
    """Time the durable tier on this workload's KB and writes, after the run.

    In-process workloads serve from memory, so the store append and the
    checkpoint save are measured here, outside the measured phase: a store
    engine replays the first write batches, and the served compiled view is
    checkpointed three times.
    """
    import threading

    import repro.service.engine as engine_module
    from repro.kb.io import load_tsv
    from repro.service import ExplanationEngine

    batches = [op[1] for ops in plan["passes"][0] for op in ops if op[0] == "w"][:20]
    view = recorder.views.get(threading.get_ident())
    recorder._local.repeating = True
    recorder._local.suffix = "_probe"
    try:
        with tempfile.TemporaryDirectory(dir=inputs) as scratch:
            store_engine = ExplanationEngine(
                load_tsv(inputs / "kb.tsv"), size_limit=plan["size_limit"],
                store_path=Path(scratch) / "store.sqlite")
            for batch in batches:
                store_engine.add_edges(_edges(batch))
            store_engine.close()
            for _ in range(3):
                engine_module.save_checkpoint(view, Path(scratch) / "probe.ckpt")
    finally:
        recorder._local.repeating = False
        recorder._local.suffix = ""


def setup_only(args) -> None:
    _plan, engine, _recorder, result = setup(args, trace=False)
    engine.close()
    print(json.dumps(result))


def verify(args) -> None:
    """Answer the ``--keys`` pairs on a fresh engine over the rebuilt KB."""
    plan = json.loads((args.inputs / "plan.json").read_text())
    _import_program()
    from repro.kb.io import load_tsv
    from repro.service import ExplanationEngine
    from repro.service.serialize import outcome_to_dict

    kb = load_tsv(args.inputs / "kb.tsv")
    for batch in json.loads(args.writes.read_text()):
        for source, label, target, directed in batch:
            kb.add_edge(source, target, label, directed)
    engine = ExplanationEngine(kb, size_limit=plan["size_limit"])
    answers = [
        outcome_to_dict(engine.explain(start, end, measure=plan["measure"], k=plan["k"],
                                       size_limit=plan["size_limit"]))
        for start, end in json.loads(args.keys.read_text())
    ]
    engine.close()
    args.out.write_text(json.dumps({"answers": answers, "edges": kb.num_edges}))


def serve(args, rest: list[str]) -> int:
    """``rex serve`` with every layer wrapped; spans are written on exit."""
    import_ms = _import_program()
    import repro.cli
    import tracing

    recorder = tracing.install()
    code = repro.cli.main(["serve", *rest])
    recorder.dump(args.spans, import_ms=import_ms)
    return code


def main() -> int:
    argv = sys.argv[1:]
    rest: list[str] = []
    if "--" in argv:
        index = argv.index("--")
        argv, rest = argv[:index], argv[index + 1:]
    parser = argparse.ArgumentParser(prog="program.py")
    parser.add_argument("mode", choices=("setup", "run", "verify", "serve"))
    parser.add_argument("--inputs", type=Path)
    parser.add_argument("--pass", dest="pass_index", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--probe", type=int, default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--log", type=Path)
    parser.add_argument("--writes", type=Path)
    parser.add_argument("--keys", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup_only(args)
    elif args.mode == "run":
        run(args)
    elif args.mode == "verify":
        verify(args)
    else:
        return serve(args, rest)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The REX performance ledger: one run of one workload, checked, as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload enum-fresh --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --record-digests

Workloads (see ``perfbench/README.md``):

* ``enum-fresh`` — first-sight ``size+monocount`` requests on the
  entertainment KB, in process;
* ``dist-fresh`` — first-sight ``global-dist`` requests on the clustered KB,
  in process;
* ``serve-zipf`` — a Zipf-skewed open-loop ``GET /explain`` stream plus
  ``POST /kb/edges`` writes against ``python -m repro.cli serve``.

Every answer is checked (:mod:`checks`); a wrong answer exits non-zero and
names it.  The last line of standard output is the result object.  With
``--trace 0`` it holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  Metric names and units, and the default
``--seconds``, come from ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.parse import urlencode

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import metrics  # noqa: E402

perf = time.perf_counter
PROGRAM = HERE / "program.py"
WORK_ROOT = HERE / ".work"
BENCHMARK = ROOT / "BENCHMARK.json"
#: Set-up samples per untraced run, the measured passes' own set-ups included.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120


class RunFailed(Exception):
    pass


def _env(unbuffered: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # in-process and served engines evaluate on the calling thread: no worker
    # processes compete with the engine and the load generator for 2 CPUs
    env["REX_PARALLELISM"] = "0"
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _program(*args) -> list[str]:
    return [sys.executable, str(PROGRAM), *map(str, args)]


def _child(argv: list[str]) -> str:
    completed = subprocess.run(argv, capture_output=True, text=True, env=_env(),
                               timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if completed.returncode != 0:
        raise RunFailed(f"{' '.join(argv[1:3])} exited {completed.returncode}:\n"
                        f"{completed.stderr[-3000:]}")
    return completed.stdout


def _write_batches(rounds) -> list:
    return [op[1] for ops in rounds for op in ops if op[0] == "w"]


# -- in-process workloads --------------------------------------------------------


def in_process(inputs: Path, seconds: float, trace: bool, work: Path) -> dict:
    """Passes of the plan, one fresh process each, until ``seconds`` are measured.

    enum-fresh's passes each ask the same pairs, all of them; dist-fresh's
    one pass is cut by time.  Each pass's answers are checked on its own,
    since each starts from the input KB.
    """
    plan = json.loads((inputs / "plan.json").read_text())
    input_edges = gen.read_tsv(inputs / "kb.tsv")
    passes, setups = [], []
    measured = 0.0
    while measured < seconds and len(passes) < len(plan["passes"]):
        index = len(passes)
        out, log = work / f"run{index}.json", work / f"ops{index}.jsonl"
        started = time.time()
        _child(_program("run", "--inputs", inputs, "--pass", index,
                        "--seconds", seconds - measured, "--trace", int(trace),
                        "--probe", int(trace and index == 0), "--out", out, "--log", log))
        record = json.loads(out.read_text())
        setups.append(record["setup_end"] - started)
        if record.get("mismatches"):
            first = record["mismatches"][0]
            raise checks.CheckFailed(
                f"{first['measure']} ({first['start']}, {first['end']}): the composed layers "
                f"answer differently from ExplanationEngine.explain")
        rounds = plan["passes"][index][:record["rounds"]]
        record["ops"] = _check_in_process(plan, rounds, input_edges, log, trace)
        sent = len(_write_batches(rounds))
        writes, reads = record["ops"]["write_s"], record["ops"]["read_s"]
        if len(writes) != sent or len(writes) + len(reads) != record["attempted"]:
            raise RunFailed(f"pass {index}: {record['attempted']} operations and {len(writes)} "
                            f"writes logged of {sent} writes sent")
        measured += record["measured_s"]
        passes.append(record)
    ops = {key: [value for record in passes for value in record["ops"][key]]
           for key in ("read_s", "write_s", "write_summaries", "gap_s")}
    attempted = sum(record["attempted"] for record in passes)
    if not trace:
        while len(setups) < SETUP_SAMPLES:
            started = time.time()
            ready = json.loads(_child(_program("setup", "--inputs", inputs)).splitlines()[-1])
            setups.append(ready["setup_end"] - started)
        return {
            "attempted": attempted,
            "metrics": metrics.end_to_end(
                setups, ops["read_s"], ops["write_s"], measured,
                sum(record["cpu_s"] for record in passes), attempted,
                max(record["peak_rss_mb"] for record in passes)),
        }
    spans = metrics.Spans([(record["spans"], record["window"]) for record in passes])
    explains = spans.named("service.explain")
    overhead = [span[4] - span[3] - span[6]["elapsed_s"] for span in explains]
    rounds_trip = sum(span[4] - span[3] for span in explains)
    return {
        "attempted": attempted,
        "metrics": metrics.per_layer(
            spans, statistics.median(record["import_ms"] for record in passes),
            hit_ratio=sum(record["ops"]["cached"] for record in passes) / len(ops["read_s"]),
            http_overhead_s=overhead,
            http_share=100 * sum(overhead) / rounds_trip if rounds_trip else 0.0,
            write_summaries=ops["write_summaries"],
            lags_s=ops["gap_s"]),
    }


def _check_in_process(plan, rounds, input_edges, log: Path, trace) -> dict:
    """Check every logged answer of one pass; returns its latencies and write summaries."""
    batches = _write_batches(rounds)
    ledger = checks.EdgeLedger(input_edges)
    for index, batch in enumerate(batches):
        ledger.add_batch(batch, index)
    enum_traced = trace and plan["workload"] == "enum-fresh"
    if enum_traced:
        adj = gen.adjacency(input_edges)
        applied = 0
    limit, k = plan["size_limit"], plan["k"]
    ops = {"read_s": [], "write_s": [], "write_summaries": [], "gap_s": [], "cached": 0}
    reads = (op for ops in rounds for op in ops if op[0] == "r")
    with log.open(encoding="utf-8") as lines:
        for line in lines:
            entry = json.loads(line)
            ops["gap_s"].append(entry["gap_s"])
            if "summary" in entry:
                ops["write_s"].append(entry["latency_s"])
                ops["write_summaries"].append(entry["summary"])
                continue
            ops["read_s"].append(entry["latency_s"])
            ops["cached"] += entry["answer"]["cached"]
            _, start, end = next(reads)[:3]
            checks.check_answer(entry["answer"], start, end, limit, k, ledger, entry["visible"])
            if not enum_traced or not entry["traced"]:
                continue
            while applied < entry["visible"]:
                for edge in batches[applied]:
                    gen.add_to_adjacency(adj, tuple(edge))
                applied += 1
            traced = entry["traced"]
            name = f"{plan['measure']} ({start}, {end})"
            grouped = checks.check_paths(name, traced["paths"], adj, start, end, limit - 1)
            checks.check_path_aggregates(name, entry["answer"], grouped)
            checks.check_topk(name, traced["returned"], traced["scores"], k)
    return ops


# -- serve-zipf --------------------------------------------------------------------


class Server:
    """``python -m repro.cli serve`` on a fresh store and checkpoint directory."""

    def __init__(self, inputs: Path, plan: dict, work: Path, spans: Path | None) -> None:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        serve_args = ["--kb", inputs / "kb.tsv", "--db", work / "store.sqlite",
                      "--checkpoint-dir", work / "checkpoints", "--port", "0",
                      "--size-limit", plan["size_limit"]]
        if spans is None:
            argv = [sys.executable, "-m", "repro.cli", "serve", *map(str, serve_args)]
        else:
            argv = _program("serve", "--spans", spans, "--", *serve_args)
        self.log = (work / "server.log").open("w")
        self.started = time.time()
        self.process = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=self.log,
                                        text=True, env=_env(unbuffered=True), cwd=ROOT)
        self.port = None
        for line in self.process.stdout:
            if "listening on" in line:
                self.port = int(line.rsplit(":", 1)[1].strip().strip("/"))
                break
        if self.port is None:
            self.stop()
            raise RunFailed(f"server exited before listening; see {work / 'server.log'}")

    def _proc(self, name: str) -> str:
        return Path(f"/proc/{self.process.pid}/{name}").read_text()

    def cpu_s(self) -> float:
        fields = self._proc("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in self._proc("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RunFailed("no VmHWM for the server process")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()


def _request(connection, op, plan) -> tuple[int, bytes]:
    if op[0] == "r":
        query = urlencode({"start": op[1], "end": op[2], "measure": plan["measure"],
                           "k": plan["k"], "size_limit": plan["size_limit"]})
        connection.request("GET", f"/explain?{query}")
    else:
        body = json.dumps({"edges": [
            {"source": s, "label": l, "target": t, "directed": d} for s, l, t, d in op[1]]})
        connection.request("POST", "/kb/edges", body=body,
                           headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    return response.status, response.read()


def _drive(port: int, plan: dict, ops: list, paced: bool) -> list[dict]:
    """Send ``ops`` over two keep-alive connections; open loop when ``paced``.

    A paced op's last field is its slot ``s``: it is due at the start plus
    ``(s + 1) / rate`` and goes out on connection ``int(s) % 2`` once it is
    due and the connection is free.  Latency counts from the due time, so a late
    send is charged to the request.  Unpaced op ``i`` goes out on connection
    ``i % 2`` as soon as that connection is free.
    """
    records: list = [None] * len(ops)
    origin = perf()
    failures: list[BaseException] = []

    def worker(lane: int) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            for index, op in enumerate(ops):
                if int(op[-1] if paced else index) % 2 != lane:
                    continue
                due = origin + (op[-1] + 1) / plan["rate"] if paced else perf()
                wait = due - perf()
                if wait > 0:
                    time.sleep(wait)
                sent = perf()
                status, body = _request(connection, op, plan)
                records[index] = {"due": due, "sent": sent, "done": perf(),
                                  "status": status, "body": body}
        except BaseException as error:  # reported by the caller
            failures.append(error)
        finally:
            connection.close()

    threads = [threading.Thread(target=worker, args=(lane,)) for lane in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise RunFailed(f"load generator failed: {failures[0]!r}")
    return records


def serve_zipf(inputs: Path, seconds: float, trace: bool, work: Path) -> dict:
    plan = json.loads((inputs / "plan.json").read_text())
    warm_write = [["w", plan["warm_writes"]]]
    warm = [["r", start, end] for start, end in plan["warm_keys"]]
    # whole rounds, up to the one holding the last slot due within --seconds
    slots = int(seconds * plan["rate"])
    rounds = 1 + next((index for index, ops in enumerate(plan["rounds"]) if ops[-1][-1] >= slots - 1),
                      len(plan["rounds"]))
    if rounds > len(plan["rounds"]):
        raise RunFailed(f"--seconds {seconds} needs more rounds than the plan's {len(plan['rounds'])}")
    ops = [op for ops in plan["rounds"][:rounds] for op in ops]
    setups = []
    samples = 1 if trace else SETUP_SAMPLES
    spans_file = work / "server-spans.json" if trace else None
    for sample in range(samples):
        server = Server(inputs, plan, work / f"server{sample}", spans_file)
        try:
            # the first read compiles the KB, so the set-up write extends an
            # overlay over that compile, as every later write does
            warmed = [_drive(server.port, plan, warm[:1], False)[0]]
            warmed += _drive(server.port, plan, warm_write, False) + _drive(server.port, plan, warm, False)
            for record in warmed:
                if record["status"] != 200:
                    raise checks.CheckFailed(f"warm request: HTTP {record['status']}: {record['body'][:200]!r}")
            setups.append(time.time() - server.started)
            if sample < samples - 1:
                continue
            cpu0 = server.cpu_s()
            records = _drive(server.port, plan, ops, paced=True)
            cpu_s = server.cpu_s() - cpu0
            peak_rss_mb = server.peak_rss_mb()
            window = (records[0]["due"], max(record["done"] for record in records))
            verify_keys = _verify_keys(plan, ops)
            verify = _drive(server.port, plan, [["r", s, e] for s, e in verify_keys], False)
            health = _get_json(server.port, "/healthz")
        finally:
            server.stop()
    replies = _check_serve(plan, inputs, ops, records, warmed[1], verify_keys, verify, health, work)
    reads = [(record, reply) for record, reply in zip(records, replies) if reply is not None]
    latencies = [record["done"] - record["due"] for record, _ in reads]
    writes = [record["done"] - record["due"] for record, reply in zip(records, replies) if reply is None]
    if not trace:
        return {
            "attempted": len(ops),
            "metrics": metrics.end_to_end(setups, latencies, writes, window[1] - window[0],
                                          cpu_s, len(ops), peak_rss_mb),
        }
    document = json.loads(spans_file.read_text())
    if document["mismatches"]:
        first = document["mismatches"][0]
        raise checks.CheckFailed(f"{first['measure']} ({first['start']}, {first['end']}): the "
                                 f"composed layers answer differently from the served engine")
    hits = [(record, reply) for record, reply in reads if reply["cached"]]
    overhead = [record["done"] - record["sent"] - reply["elapsed_s"] for record, reply in hits]
    summaries = [json.loads(record["body"]) for record, reply in zip(records, replies) if reply is None]
    return {
        "attempted": len(ops),
        "metrics": metrics.per_layer(
            metrics.Spans([(document["spans"], window)]), document["import_ms"],
            hit_ratio=len(hits) / len(reads),
            http_overhead_s=overhead,
            http_share=100 * sum(overhead) / sum(r["done"] - r["sent"] for r, _ in hits),
            write_summaries=summaries,
            lags_s=[record["sent"] - record["due"] for record in records]),
    }


def _get_json(port: int, path: str) -> dict:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("GET", path)
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


def _verify_keys(plan: dict, ops: list) -> list:
    """Every key a write joined, then the most popular keys, each once."""
    keys = [op[2] for op in ops if op[0] == "w"] + plan["popular_keys"]
    return [list(key) for key in dict.fromkeys(map(tuple, keys))]


def _check_serve(plan, inputs, ops, records, warm_write, verify_keys, verify, health, work) -> list:
    """Every serve-zipf check; returns the parsed read replies (None for writes)."""
    input_edges = gen.read_tsv(inputs / "kb.tsv")
    ledger = checks.EdgeLedger(input_edges)
    warm_reply = json.loads(warm_write["body"])
    if warm_reply.get("durable") is not True:
        raise checks.CheckFailed(f"the set-up write was not acknowledged as durable: {warm_reply}")
    ledger.add_batch(plan["warm_writes"], -1)
    replies, acked, added = [], [plan["warm_writes"]], warm_reply["added"]
    for index, (op, record) in enumerate(zip(ops, records)):
        if record["status"] != 200:
            raise checks.CheckFailed(f"op {index} {op[:3]}: HTTP {record['status']}: {record['body'][:200]!r}")
        document = json.loads(record["body"])
        if op[0] == "w":
            if document.get("durable") is not True:
                raise checks.CheckFailed(f"write {index} was not acknowledged as durable: {document}")
            ledger.add_batch(op[1], index)
            acked.append(op[1])
            added += document["added"]
            replies.append(None)
        else:
            replies.append(document)
    for index, (op, record, reply) in enumerate(zip(ops, records, replies)):
        if reply is None:
            continue
        # a write is visible to a read only if it was sent before the reply came back
        visible = 1 + max((i for i in range(len(ops)) if ops[i][0] == "w"
                           and records[i]["sent"] < record["done"]), default=-1)
        checks.check_answer(reply, op[1], op[2], plan["size_limit"], plan["k"], ledger, visible)
    checks.check_cache_consistency([reply for reply in replies if reply is not None])
    if health["edges"] != len(input_edges) + added:
        raise checks.CheckFailed(f"server holds {health['edges']} edges; input {len(input_edges)} "
                                 f"plus {added} acknowledged additions")
    served = []
    for (start, end), record in zip(verify_keys, verify):
        if record["status"] != 200:
            raise checks.CheckFailed(f"verify ({start}, {end}): HTTP {record['status']}")
        served.append(json.loads(record["body"]))
    writes_file, keys_file, out = work / "acked.json", work / "keys.json", work / "fresh.json"
    writes_file.write_text(json.dumps(acked))
    keys_file.write_text(json.dumps(verify_keys))
    _child(_program("verify", "--inputs", inputs, "--writes", writes_file,
                    "--keys", keys_file, "--out", out))
    fresh = json.loads(out.read_text())
    if fresh["edges"] != health["edges"]:
        raise checks.CheckFailed(f"rebuilt KB holds {fresh['edges']} edges, server {health['edges']}")
    checks.check_fresh(served, fresh["answers"])
    return replies


# -- entry point ---------------------------------------------------------------------


def main() -> int:
    bench = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=gen.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="length of the measured phase (default: run_seconds "
                             "of BENCHMARK.json, the length the bounds were set for)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="regenerate the default seed's inputs and record their digests")
    args = parser.parse_args()
    if args.record_digests:
        print(json.dumps(gen.record_digests(), indent=2, sort_keys=True))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    gen.check_default_digest(args.workload)
    inputs = gen.inputs(args.workload, args.seed)
    work = WORK_ROOT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "serve-zipf":
            outcome = serve_zipf(inputs, args.seconds, bool(args.trace), work)
        else:
            outcome = in_process(inputs, args.seconds, bool(args.trace), work)
    except checks.CheckFailed as failure:
        print(f"error: wrong answer: {failure}", file=sys.stderr)
        return 1
    except (RunFailed, subprocess.TimeoutExpired) as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    declared = {metric["name"]: metric["unit"]
                for metric in bench["per_layer" if args.trace else "end_to_end"]}
    if set(declared) != set(outcome["metrics"]):
        print(f"error: BENCHMARK.json declares {sorted(set(declared) ^ set(outcome['metrics']))} "
              f"differently from the metrics computed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": outcome["attempted"],
        "failed": 0,
        "metrics": {name: {"value": outcome["metrics"][name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
